"""Discrete-event model of the streamed locator→consumer pipeline.

The streamed mode (``core/pipeline.py``) treats the Island Consumer as
one aggregate server whose work arrives in per-round batches — the
coarsest model that captures Fig. 3's overlap.  This module refines it
to event granularity while keeping the aggregate model as a provable
bound:

* **per-island release** — round r spans the locator interval
  ``[L_r, L_r + cyc_r)``; island j of the round is released when the
  locator has *produced* it, at ``L_r + cyc_r * (cumulative work share
  of islands <= j)``, not at the round start the aggregate model
  optimistically assumes;
* **PE contention** — released islands queue FIFO for free PEs instead
  of executing as one aggregate chunk; each PE sustains ``1/P`` of the
  array rate, and when the ready queue drains, idle PEs *join* an
  in-flight island (feature columns are striped across the array, so an
  island can absorb extra lanes) — the array never idles while work is
  in flight;
* **ring + DHUB-PRC port arbitration** — each completed island injects
  one ring flit per attached hub at its primary PE's ring stop (one
  injection per stop per cycle), travels ``(bank - src) % P`` hops, and
  lands on the hub's home PRC bank (one update per bank per cycle);
  grant queues and waits are tracked over event time;
* **hub-cache occupancy** — island starts touch their hubs' XW rows in
  an LRU set bounded by the HUB-XW cache capacity; hits, misses and
  occupancy are sampled into the trace.

Transport (ring/PRC) waits and cache misses are *ledger* quantities:
they shape the reported contention statistics and per-island transport
tail but do not stall the PE array, whose drain latency is already
covered by the fixed pipeline fill — this is what makes the sandwich
contract below provable rather than empirical.

**Sandwich contract.**  Work conservation plus the two release rules
pin the makespan between the existing pipeline models on *every*
input::

    streamed (round-granular, round-start release)
        <= event (island-granular, production-time release)
        <= staged (locator then consumer, back-to-back)

Lower bound: every event release is at or after its round's start and
the array serves at most the aggregate rate, so the event makespan
dominates ``pipelined_makespan`` of the round schedule.  Upper bound:
every release is at or before the locator's finish ``L_total`` and the
array is work-conserving (idle PEs join), so at most ``consumer_cycles``
of wall time remains after ``L_total``.  ``tests/test_properties.py``
pins both sides with hypothesis; ``eval/bench_event.py`` gates them in
CI together with run-to-run trace determinism.

Rounds whose consumer chunk has no island to carry it (hub-only
rounds: combination + inter-hub work) get a synthetic carrier with
``island_id = -(round_index + 1)``, released at the round's *end* (hub
aggregation cannot start before the round's hubs are final).  Carriers
occupy PEs like islands and count toward conservation, but are excluded
from the per-island latency percentiles.

Everything is deterministic: plain-float arithmetic, total orderings on
every queue, no wall clock, no RNG.  Two runs of the same inputs
produce byte-identical traces (:meth:`EventSimResult.trace_bytes`),
which the conformance harness (:func:`validate_trace`) replays to check
the causality and port invariants independently of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "EventSimResult",
    "IslandLatency",
    "simulate_events",
    "validate_trace",
]


#: Float slack for the replayed invariants: the simulator's event
#: arithmetic is exact to ~1 ulp per step, so a fixed epsilon far above
#: accumulation error but far below one cycle is unambiguous.
_EPS = 1e-6


@dataclass(frozen=True)
class IslandLatency:
    """Lifecycle record of one service unit (island or carrier)."""

    island_id: int      # positional island id; negative = round carrier
    round_id: int       # locator round that produced it
    release: float      # production time (cycles)
    start: float        # first PE grant
    completion: float   # aggregation done (compute, excl. transport)
    work: float         # array-cycles of consumer work carried
    pe: int             # primary PE
    helpers: int        # extra PEs that joined before completion
    ring_wait: float    # summed ring injection-port wait of its flits
    prc_wait: float     # summed PRC bank-port wait of its flits

    @property
    def wait(self) -> float:
        """Queueing delay: released but no free PE."""
        return self.start - self.release

    @property
    def latency(self) -> float:
        """Release-to-completion latency (the p50/p99 metric)."""
        return self.completion - self.release


@dataclass(frozen=True)
class EventSimResult:
    """Trace + statistics of one event-granular pipeline simulation."""

    num_pes: int
    consumer_cycles: float          # input: total consumer work
    locator_cycles: float           # input: locator finish time
    round_starts: tuple[float, ...]  # release L_r of each round
    round_cycles: tuple[float, ...]  # locator span cyc_r of each round
    makespan: float                 # last compute completion (0 if idle)
    islands: tuple[IslandLatency, ...]   # all units, id order per round
    trace: tuple[tuple, ...]        # time-sorted canonical event log
    pe_busy: tuple[float, ...]      # per-PE busy time (cycles)
    cache_entries: int
    cache_hits: int
    cache_misses: int
    cache_max_occupancy: int
    ring_grants: int
    ring_total_wait: float
    ring_max_wait: float
    prc_grants: int
    prc_total_wait: float
    prc_max_wait: float
    bank_updates: tuple[int, ...]   # PRC updates per bank

    # ------------------------------------------------------------------
    @property
    def work_total(self) -> float:
        """Array-cycles of work served (== the consumer chunk total)."""
        return sum(unit.work for unit in self.islands)

    @property
    def busy_pe_cycles(self) -> float:
        """Summed per-PE busy time (== ``num_pes * work_total``)."""
        return sum(self.pe_busy)

    def latencies(self) -> np.ndarray:
        """Per-*island* latencies, excluding synthetic round carriers."""
        return np.asarray(
            [u.latency for u in self.islands if u.island_id >= 0],
            dtype=np.float64,
        )

    def latency_percentile(self, q: float) -> float | None:
        """The ``q``-th percentile of island latency, or None if empty."""
        lat = self.latencies()
        if len(lat) == 0:
            return None
        return float(np.percentile(lat, q))

    def trace_bytes(self) -> bytes:
        """Canonical serialization — byte-identical across runs."""
        return "\n".join(repr(event) for event in self.trace).encode()

    def validate(self) -> None:
        """Replay the trace through :func:`validate_trace`."""
        validate_trace(self)


# ----------------------------------------------------------------------
def _split(total: float, weights: Sequence[float]) -> list[float]:
    """Split ``total`` proportionally to ``weights`` (uniform fallback).

    Telescoping prefix differences, so the shares sum to *exactly*
    ``total`` in float arithmetic.
    """
    n = len(weights)
    if n == 0:
        return []
    wsum = float(sum(weights))
    if wsum <= 0.0:
        weights = [1.0] * n
        wsum = float(n)
    shares: list[float] = []
    prefix = 0.0
    prev = 0.0
    for w in weights:
        prefix += float(w)
        cut = total * (prefix / wsum)
        shares.append(cut - prev)
        prev = cut
    shares[-1] += total - prev  # absorb the last rounding residue
    return shares


class _Unit:
    """Mutable in-flight state of one service unit."""

    __slots__ = ("uid", "round_id", "release", "work", "hubs",
                 "remaining", "servers", "joined", "start", "primary")

    def __init__(self, uid, round_id, release, work, hubs):
        self.uid = uid
        self.round_id = round_id
        self.release = release
        self.work = work
        self.hubs = hubs
        self.remaining = work
        self.servers: list[int] = []
        self.joined: dict[int, float] = {}
        self.start = -1.0
        self.primary = -1


def simulate_events(
    round_cycles: Sequence[float],
    round_islands: Sequence[Sequence[tuple[int, float, tuple[int, ...]]]],
    round_chunks: Sequence[float],
    *,
    num_pes: int,
    cache_entries: int = 4096,
) -> EventSimResult:
    """Run the discrete-event pipeline simulation.

    ``round_cycles`` are the locator's per-round cycle spans;
    ``round_islands[r]`` lists the round's islands as ``(island_id,
    weight, hub_ids)`` in production order (weight is the analytic
    intra-round work share — member + hub count); ``round_chunks[r]``
    is the round's consumer-cycle chunk from
    :func:`~repro.core.pipeline.streamed_schedule`, so the chunk totals
    match the aggregate model exactly.  ``num_pes`` PEs each sustain
    ``1/num_pes`` of the array rate; ``cache_entries`` bounds the
    HUB-XW LRU.
    """
    if num_pes < 1:
        raise SimulationError("simulate_events requires num_pes >= 1")
    if not (len(round_cycles) == len(round_islands) == len(round_chunks)):
        raise SimulationError(
            "round_cycles, round_islands and round_chunks must align"
        )
    if cache_entries < 1:
        raise SimulationError("cache_entries must be >= 1")
    pes = float(num_pes)

    # --- Build the release/work schedule -----------------------------
    trace: list[tuple] = []
    units: list[_Unit] = []
    round_starts: list[float] = []
    clock = 0.0
    for r, (cyc, islands, chunk) in enumerate(
        zip(round_cycles, round_islands, round_chunks)
    ):
        round_starts.append(clock)
        cyc = float(cyc)
        chunk = float(chunk)
        if islands:
            weights = [float(w) for _, w, _ in islands]
            works = _split(chunk, weights)
            offsets = _split(cyc, weights)
            produced = 0.0
            for (island_id, _, hubs), work, span in zip(
                islands, works, offsets
            ):
                produced += span  # released once fully formed
                units.append(
                    _Unit(island_id, r + 1, clock + produced, work, hubs)
                )
        elif chunk > 0.0:
            # Hub-only round: combination + inter-hub work with no
            # island to carry it; a synthetic carrier releases at round
            # end (its hubs are only final then).
            units.append(_Unit(-(r + 1), r + 1, clock + cyc, chunk, ()))
        clock += cyc
    locator_cycles = clock
    for unit in units:
        trace.append(("release", unit.release, unit.uid, unit.round_id))

    # --- Event loop ---------------------------------------------------
    pending = sorted(units, key=lambda u: (u.release, u.uid))
    ready: list[_Unit] = []      # FIFO, already release-ordered
    in_service: dict[int, _Unit] = {}
    free = list(range(num_pes))  # kept sorted: lowest PE first
    pe_busy = [0.0] * num_pes
    cache: dict[int, None] = {}  # insertion-ordered LRU of hub ids
    cache_hits = cache_misses = cache_max = 0
    next_pending = 0
    now = 0.0
    records: list[IslandLatency] = []
    completions: dict[int, tuple[float, int, int]] = {}

    def dispatch() -> None:
        nonlocal cache_hits, cache_misses, cache_max
        while next_pending < len(pending) and (
            pending[next_pending].release <= now
        ):
            ready.append(pending[next_pending])
            _advance_pending()
        while ready and free:
            unit = ready.pop(0)
            pe = free.pop(0)
            unit.servers.append(pe)
            unit.joined[pe] = now
            unit.start = now
            unit.primary = pe
            in_service[unit.uid] = unit
            trace.append(("start", now, unit.uid, pe))
            for hub in unit.hubs:
                hub = int(hub)
                if hub in cache:
                    del cache[hub]  # refresh LRU position
                    cache[hub] = None
                    cache_hits += 1
                    hit = 1
                else:
                    if len(cache) >= cache_entries:
                        cache.pop(next(iter(cache)))
                    cache[hub] = None
                    cache_misses += 1
                    hit = 0
                cache_max = max(cache_max, len(cache))
                trace.append(("cache", now, hub, hit, len(cache)))
        if free and not ready and in_service:
            # Idle lanes join the most backlogged unit per server —
            # the array never idles while work is in flight.
            while free:
                uid = max(
                    in_service,
                    key=lambda u: (
                        in_service[u].remaining / len(in_service[u].servers),
                        -u,
                    ),
                )
                unit = in_service[uid]
                pe = free.pop(0)
                unit.servers.append(pe)
                unit.joined[pe] = now
                trace.append(("assist", now, uid, pe))

    def _advance_pending() -> None:
        nonlocal next_pending
        next_pending += 1

    dispatch()
    while in_service or next_pending < len(pending) or ready:
        # Next completion among in-flight units (tie: lowest id).
        # Etas closer than 1e-12 of the time (at most _EPS) differ by
        # rounding only, so they tie.  A wider window would let a unit
        # that finishes first wait for a lower id's later completion,
        # its PEs busy past its work.
        next_done: _Unit | None = None
        done_at = float("inf")
        for uid in sorted(in_service):
            unit = in_service[uid]
            # Clamp to ``now`` so rounding in the depletion step can
            # never produce an eta in the past: loop timestamps stay
            # monotone in emission order, which the final stable sort
            # relies on to keep equal-time cascades causal.
            eta = max(now, now + unit.remaining * pes / len(unit.servers))
            if eta < done_at - min(_EPS, 1e-12 * done_at):
                next_done, done_at = unit, eta
        next_release = (
            pending[next_pending].release
            if next_pending < len(pending)
            else float("inf")
        )
        if next_done is None and next_release == float("inf"):
            # Ready units but no free PE and nothing in flight cannot
            # happen (dispatch assigns whenever a PE is free).
            raise SimulationError("event loop stalled")  # pragma: no cover
        completing = done_at <= next_release + _EPS and next_done is not None
        target = done_at if completing else next_release
        dt = max(0.0, target - now)
        for uid in sorted(in_service):  # deplete everyone in flight
            unit = in_service[uid]
            unit.remaining = max(
                0.0, unit.remaining - dt * len(unit.servers) / pes
            )
        now = target
        if completing:
            unit = next_done
            unit.remaining = 0.0
            del in_service[unit.uid]
            for pe in unit.servers:
                pe_busy[pe] += now - unit.joined[pe]
            free.extend(unit.servers)
            free.sort()
            trace.append(("complete", now, unit.uid, unit.primary))
            completions[unit.uid] = (now, unit.primary, len(unit.servers) - 1)
        dispatch()

    # --- Transport ledger: ring injection + PRC bank ports ------------
    ring_free = [0.0] * num_pes
    bank_free = [0.0] * num_pes
    bank_updates = [0] * num_pes
    ring_grants = prc_grants = 0
    ring_total = prc_total = 0.0
    ring_max = prc_max = 0.0
    unit_ring: dict[int, float] = {}
    unit_prc: dict[int, float] = {}
    for unit in sorted(units, key=lambda u: (completions[u.uid][0], u.uid)):
        done, src, _ = completions[unit.uid]
        r_wait = p_wait = 0.0
        for hub in unit.hubs:
            hub = int(hub)
            bank = hub % num_pes
            grant = max(done, ring_free[src])
            ring_free[src] = grant + 1.0
            wait = grant - done
            r_wait += wait
            ring_max = max(ring_max, wait)
            ring_grants += 1
            hops = (bank - src) % num_pes
            arrival = grant + hops
            trace.append(("ring", grant, unit.uid, hub, src, bank, hops))
            pgrant = max(arrival, bank_free[bank])
            bank_free[bank] = pgrant + 1.0
            pwait = pgrant - arrival
            p_wait += pwait
            prc_max = max(prc_max, pwait)
            prc_grants += 1
            bank_updates[bank] += 1
            trace.append(("prc", pgrant, hub, bank, round(pwait, 9)))
        ring_total += r_wait
        prc_total += p_wait
        unit_ring[unit.uid] = r_wait
        unit_prc[unit.uid] = p_wait

    for unit in sorted(units, key=lambda u: (u.round_id, u.uid)):
        done, primary, helpers = completions[unit.uid]
        records.append(
            IslandLatency(
                island_id=unit.uid,
                round_id=unit.round_id,
                release=unit.release,
                start=unit.start,
                completion=done,
                work=unit.work,
                pe=primary,
                helpers=helpers,
                ring_wait=unit_ring[unit.uid],
                prc_wait=unit_prc[unit.uid],
            )
        )

    # Stable sort by timestamp only: events are *emitted* in causal
    # order (releases up front in time order, the loop's cascades in
    # execution order, transport last), so equal-time cascades —
    # complete → start on the freed PE → assist — keep their causal
    # sequence, which the validator's single-pass replay relies on.
    trace.sort(key=lambda e: e[1])
    makespan = max((done for done, _, _ in completions.values()), default=0.0)
    return EventSimResult(
        num_pes=num_pes,
        consumer_cycles=float(sum(round_chunks)),
        locator_cycles=locator_cycles,
        round_starts=tuple(round_starts),
        round_cycles=tuple(float(c) for c in round_cycles),
        makespan=makespan,
        islands=tuple(records),
        trace=tuple(trace),
        pe_busy=tuple(pe_busy),
        cache_entries=cache_entries,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        cache_max_occupancy=cache_max,
        ring_grants=ring_grants,
        ring_total_wait=ring_total,
        ring_max_wait=ring_max,
        prc_grants=prc_grants,
        prc_total_wait=prc_total,
        prc_max_wait=prc_max,
        bank_updates=tuple(bank_updates),
    )


# ----------------------------------------------------------------------
def validate_trace(result: EventSimResult) -> None:
    """Replay ``result.trace`` and assert the conformance invariants.

    The validator reconstructs every unit's lifecycle and the port
    ledgers *from the trace alone* and cross-checks them against the
    result's records, so a corrupted or hand-edited trace is rejected
    even when the summary fields still look plausible.  Raises
    :class:`~repro.errors.SimulationError` on the first violation.

    Invariants:

    * causality — no unit starts before its release, no release
      precedes its round's start or outlives the locator, completions
      follow starts and take at least the unit's work;
    * PE exclusivity — reconstructed per-PE service intervals never
      overlap (one island per PE at a time);
    * port capacity — at most one ring injection per stop per cycle,
      one PRC update per bank per cycle, ring hops follow the
      ``(bank - src) % P`` topology;
    * hub-cache occupancy never exceeds the configured capacity;
    * conservation — recorded work sums to the consumer chunk total
      and the busy PE-cycles equal ``num_pes`` times it;
    * the makespan is exactly the last completion.
    """
    P = result.num_pes
    starts: dict[int, tuple[float, int]] = {}
    releases: dict[int, tuple[float, int]] = {}
    completes: dict[int, tuple[float, int]] = {}
    pe_intervals: dict[int, list[tuple[float, float]]] = {}
    pe_open: dict[int, tuple[int, float]] = {}
    unit_pes: dict[int, list[int]] = {}
    ring_last: dict[int, float] = {}
    bank_last: dict[int, float] = {}
    prev_time = float("-inf")

    def fail(msg: str) -> None:
        raise SimulationError(f"event trace invalid: {msg}")

    for event in result.trace:
        kind, time = event[0], event[1]
        if time < prev_time - _EPS:
            fail(f"timestamps regress at {event!r}")
        prev_time = max(prev_time, time)
        if kind == "release":
            _, _, uid, round_id = event
            if uid in releases:
                fail(f"unit {uid} released twice")
            r = round_id - 1
            if not 0 <= r < len(result.round_starts):
                fail(f"unit {uid} names unknown round {round_id}")
            lo = result.round_starts[r]
            hi = lo + result.round_cycles[r]
            if not lo - _EPS <= time <= hi + _EPS:
                fail(
                    f"unit {uid} released at {time} outside its round "
                    f"span [{lo}, {hi}]"
                )
            releases[uid] = (time, round_id)
        elif kind == "start":
            _, _, uid, pe = event
            if uid not in releases:
                fail(f"unit {uid} starts before any release")
            if uid in starts:
                fail(f"unit {uid} starts twice")
            if time < releases[uid][0] - _EPS:
                fail(f"unit {uid} starts before its release")
            starts[uid] = (time, pe)
            if pe in pe_open:
                fail(f"PE {pe} grabbed by {uid} while serving "
                     f"{pe_open[pe][0]}")
            pe_open[pe] = (uid, time)
            unit_pes.setdefault(uid, []).append(pe)
        elif kind == "assist":
            _, _, uid, pe = event
            if uid not in starts:
                fail(f"unit {uid} assisted before starting")
            if pe in pe_open:
                fail(f"PE {pe} joins {uid} while serving "
                     f"{pe_open[pe][0]}")
            pe_open[pe] = (uid, time)
            unit_pes.setdefault(uid, []).append(pe)
        elif kind == "complete":
            _, _, uid, pe = event
            if uid not in starts:
                fail(f"unit {uid} completes without starting")
            if uid in completes:
                fail(f"unit {uid} completes twice")
            if time < starts[uid][0] - _EPS:
                fail(f"unit {uid} completes before its start")
            completes[uid] = (time, pe)
            for served in unit_pes.get(uid, ()):  # free every lane
                if served not in pe_open or pe_open[served][0] != uid:
                    fail(f"PE {served} not serving {uid} at completion")
                pe_intervals.setdefault(served, []).append(
                    (pe_open[served][1], time)
                )
                del pe_open[served]
        elif kind == "cache":
            _, _, _hub, _hit, occupancy = event
            if occupancy > result.cache_entries:
                fail(
                    f"hub-cache occupancy {occupancy} exceeds capacity "
                    f"{result.cache_entries}"
                )
        elif kind == "ring":
            _, grant, uid, _hub, src, bank, hops = event
            if not 0 <= src < P or not 0 <= bank < P:
                fail(f"ring flit names PE/bank outside 0..{P - 1}")
            if hops != (bank - src) % P:
                fail(f"ring flit hop count {hops} != ({bank}-{src})%{P}")
            if uid not in completes or grant < completes[uid][0] - _EPS:
                fail(f"unit {uid} injects a flit before completing")
            if src in ring_last and grant < ring_last[src] + 1.0 - _EPS:
                fail(f"ring stop {src} grants twice within one cycle")
            ring_last[src] = grant
        elif kind == "prc":
            _, grant, _hub, bank, _wait = event
            if not 0 <= bank < P:
                fail(f"PRC update names bank outside 0..{P - 1}")
            if bank in bank_last and grant < bank_last[bank] + 1.0 - _EPS:
                fail(f"PRC bank {bank} grants twice within one cycle")
            bank_last[bank] = grant
        else:
            fail(f"unknown event kind {kind!r}")

    if pe_open:
        fail(f"PEs still serving at end of trace: {sorted(pe_open)}")
    if set(releases) != set(completes):
        missing = sorted(set(releases) ^ set(completes))
        fail(f"units without a full lifecycle: {missing}")
    for intervals in pe_intervals.values():
        intervals.sort()
        for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
            if b0 < a1 - _EPS:
                fail(f"overlapping PE service intervals "
                     f"[{a0},{a1}] and [{b0},{b1}]")

    # Cross-check the records against the replay.
    if len(result.islands) != len(releases):
        fail("record count disagrees with the trace")
    for unit in result.islands:
        if unit.island_id not in releases:
            fail(f"record for unit {unit.island_id} has no trace events")
        if abs(releases[unit.island_id][0] - unit.release) > _EPS:
            fail(f"unit {unit.island_id} release disagrees with trace")
        if abs(starts[unit.island_id][0] - unit.start) > _EPS:
            fail(f"unit {unit.island_id} start disagrees with trace")
        if abs(completes[unit.island_id][0] - unit.completion) > _EPS:
            fail(f"unit {unit.island_id} completion disagrees with trace")
        span = unit.completion - unit.start
        if span < unit.work - _EPS:
            fail(
                f"unit {unit.island_id} finished {unit.work} work in "
                f"{span} cycles (above array rate)"
            )
        if span > unit.work * P + _EPS:
            fail(
                f"unit {unit.island_id} took {span} cycles for "
                f"{unit.work} work (below single-lane rate)"
            )

    work_total = result.work_total
    if abs(work_total - result.consumer_cycles) > max(
        _EPS, 1e-9 * abs(result.consumer_cycles)
    ):
        fail(
            f"work not conserved: units carry {work_total}, consumer "
            f"chunks total {result.consumer_cycles}"
        )
    busy = result.busy_pe_cycles
    if abs(busy - P * work_total) > max(_EPS, 1e-9 * abs(busy)):
        fail(
            f"busy PE-cycles {busy} != num_pes * work {P * work_total}"
        )
    last = max((t for t, _ in completes.values()), default=0.0)
    if abs(last - result.makespan) > _EPS:
        fail(f"makespan {result.makespan} != last completion {last}")
