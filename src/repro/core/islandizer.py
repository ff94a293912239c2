"""The Island Locator (Algorithm 1): round-based islandization.

Orchestrates the three concurrent tasks of Algorithm 1 — hub detection
(Th1), BFS task generation (Th2) and TP-BFS execution (Th3) — with the
paper's per-round synchronisation.  The software model runs the phases
sequentially inside each round; that is result-equivalent to the
asynchronous hardware because all three phases share one predicate
(``degree >= TH_round``) and synchronise at round boundaries.  The
*work* of each phase is still tracked separately so the hardware cycle
model can overlap them.

The round loop is one private generator, :func:`_locate_rounds`, which
yields each round's raw record in the graph's own ids.  Two callers
drive it: :meth:`IslandLocator.stream` turns the records into
round statistics, each round's island table and the final
:class:`IslandizationResult`, and the incremental sub-run
(:mod:`repro.core.islandizer_incremental`) maps them to global ids for
the dirty region it re-runs.

Th3 has two interchangeable backends selected by
:attr:`~repro.core.config.LocatorConfig.backend`:

* ``"batched"`` (default) — the vectorized stamp-array kernels of
  :mod:`repro.core.tp_bfs_batched`: bulk task classification, one
  multi-source NumPy BFS for all island-producing tasks, and per-edge
  walks, one task at a time, for over-``c_max`` regions;
* ``"scalar"`` — the original per-edge Python loop of
  :mod:`repro.core.tp_bfs`, kept as the oracle.

Both return one :class:`~repro.core.tp_bfs_batched.RoundOutcome` per
round, so the loop keeps no per-backend bookkeeping, and both produce
the exact same :class:`IslandizationResult` — islands, hub order,
inter-hub edges, round statistics and work counters — which
``tests/test_backend_equivalence.py`` pins across graph families.

Termination: the threshold decays geometrically to ``th_min``; at
``th_min = 1`` every remaining node with an edge becomes a hub and
degree-0 nodes are swept into singleton islands, so the node list
always empties (docs/architecture.md#locator-termination-guard).  A
larger ``th_min`` can leave nodes no round classifies; the loop raises
:class:`~repro.errors.IslandizationError` at the first round at the
floor that makes no progress.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Generator, Iterator

import numpy as np

from repro.core.config import LocatorConfig
from repro.core.hub_detector import detect_new_hubs
from repro.core.tp_bfs import BFSRoundState, run_bfs_task
from repro.core.tp_bfs_batched import (
    TASK_CMAX,
    TASK_ISLAND,
    TASK_OUTCOME_CODES,
    TASK_SEED_HUB,
    TASK_VISITED,
    RoundOutcome,
    dedup_interhub_keys,
    execute_round_batched,
)
from repro.core.types import (
    IslandizationResult,
    IslandTable,
    LocatorWork,
    RoundOutput,
    RoundStats,
)
from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph
from repro.nputil import csr_gather

__all__ = ["IslandLocator", "islandize"]

_MAX_ROUNDS = 1000  # safety net; real runs finish in < 20 rounds

_EMPTY = np.zeros(0, dtype=np.int64)


class _GreedyEngineDispatch:
    """Greedy idle-engine assignment for the P2 work model.

    In task order, each task with nonzero scans goes to the engine with
    the least scan work so far, ties to the lowest engine index —
    ``np.argmin``'s first-minimum rule — through an O(log P2) heap.
    Heap entries are ``load * p2 + engine``: one int orders exactly like
    the ``(load, engine)`` tuple (``engine < p2``) but sifts faster, and
    adding ``scans * p2`` re-keys the least-loaded engine in place.
    """

    def __init__(self, p2: int) -> None:
        self._p2 = p2
        self._heap = list(range(p2))

    def add(self, task_scans: np.ndarray) -> None:
        """Assign a run of tasks' scans in order, skipping zero-scan tasks."""
        heap = self._heap
        heapreplace = heapq.heapreplace
        for scaled in (task_scans[task_scans > 0] * self._p2).tolist():
            heapreplace(heap, heap[0] + scaled)

    def loads(self) -> np.ndarray:
        """Per-engine scan totals (the LocatorWork distribution)."""
        p2 = self._p2
        loads = np.zeros(p2, dtype=np.int64)
        for entry in self._heap:
            loads[entry % p2] = entry // p2
        return loads


@dataclass
class _LocatedRound:
    """One round of Algorithm 1 as :func:`_locate_rounds` yields it.

    Node ids are the located graph's own.
    """

    threshold: int
    isolated: np.ndarray        # degree-0 leftovers, ascending
    new_hubs: np.ndarray        # hubs detected this round, ascending
    task_hubs: np.ndarray       # the Th2 queue, in task order
    task_seeds: np.ndarray
    outcome: RoundOutcome       # the Th3 result, either backend
    stats: dict[str, int]       # RoundStats' 12 additive fields


def _locate_rounds(
    graph: CSRGraph,
    degrees: np.ndarray,
    is_hub: np.ndarray,
    config: LocatorConfig,
    threshold: int,
    imported_hubs: np.ndarray,
    imported_seeds: np.ndarray,
) -> Iterator[_LocatedRound]:
    """Run Algorithm 1's rounds on ``graph``, yielding one record each.

    ``threshold`` is TH0.  The full run passes ``graph.degrees``, no
    hubs in ``is_hub`` and no imported tasks; the incremental sub-run
    on an extracted dirty region differs in exactly those three inputs:

    * ``degrees`` are what the threshold tests read (hub detection and
      the scalar BFS's hub contacts) — global degrees in a sub-run, so
      a boundary hub whose local row is truncated still reads as a
      hub.  Component labelling reads the CSR's own row lengths;
    * ``is_hub`` marks nodes that start out as classified hubs (the
      sub-run's boundary hubs, detected on the clean side); the caller's
      array is not modified;
    * ``imported_hubs``/``imported_seeds`` are extra round-1 tasks,
      merged into the generated queue in ``(hub, seed)`` order.  They
      add their 4-byte queue entries to the round's bytes but not
      their hub's adjacency fetch.

    A round at the ``th_min`` floor that finds no new hub and no
    isolated node, and has no imported task, changes nothing, so every
    later round would repeat it: the loop raises
    :class:`IslandizationError` there instead of spinning to
    ``_MAX_ROUNDS``.  At ``th_min = 1`` that cannot happen.
    """
    batched = config.backend == "batched"
    n = graph.num_nodes
    is_hub = is_hub.copy()
    classified = is_hub.copy()
    num_classified = int(classified.sum())
    # Scalar backend: persistent v_global stamp array.
    visited_round = None if batched else np.zeros(n, dtype=np.int64)
    round_id = 1
    while num_classified < n:
        if round_id > _MAX_ROUNDS:
            raise IslandizationError(
                f"locator failed to converge after {_MAX_ROUNDS} rounds"
            )
        detection = detect_new_hubs(degrees, classified, threshold)
        new_hubs = detection.new_hubs
        isolated = detection.isolated
        if (
            not len(new_hubs) and not len(isolated)
            and not (round_id == 1 and len(imported_hubs))
            and config.next_threshold(threshold) == threshold
        ):
            raise IslandizationError(
                f"locator stalled at th_min={config.th_min}: "
                f"{n - num_classified} unclassified nodes have degrees "
                f"below it and no new hub reaches them"
            )
        is_hub[new_hubs] = True
        classified[new_hubs] = True
        classified[isolated] = True
        num_classified += len(new_hubs) + len(isolated)

        # --- Th2: task generation (reads each new hub's adjacency).
        # One (hub, a0) task per adjacency entry of each new hub,
        # emitted hub-major with neighbours in row (sorted) order — the
        # exact sequence a scalar per-hub loop would produce.
        flat, counts = csr_gather(graph.indptr, new_hubs)
        task_hubs = np.repeat(new_hubs, counts)
        task_seeds = graph.indices[flat]
        if round_id == 1 and len(imported_hubs):
            task_hubs = np.concatenate([task_hubs, imported_hubs])
            task_seeds = np.concatenate([task_seeds, imported_seeds])
            order = np.lexsort((task_seeds, task_hubs))
            task_hubs = task_hubs[order]
            task_seeds = task_seeds[order]

        # --- Th3: TP-BFS over the task queue.
        if batched:
            outcome = execute_round_batched(
                graph, is_hub, classified, config.c_max,
                task_hubs, task_seeds, new_hubs, round_id,
            )
        else:
            outcome = _run_round_scalar(
                graph, degrees, threshold, config.c_max, round_id,
                visited_round, task_hubs, task_seeds, new_hubs,
            )
        members = outcome.islands.members
        classified[members] = True
        num_classified += len(members)
        yield _LocatedRound(
            threshold=threshold,
            isolated=isolated,
            new_hubs=new_hubs,
            task_hubs=task_hubs,
            task_seeds=task_seeds,
            outcome=outcome,
            stats={
                "nodes_remaining": detection.detect_items,
                "hubs_found": len(new_hubs),
                "islands_found": outcome.islands_found,
                "nodes_islanded": outcome.nodes_islanded,
                "tasks_generated": len(task_hubs),
                "tasks_dropped_classified": outcome.dropped_classified,
                "tasks_dropped_visited": outcome.dropped_visited,
                "tasks_dropped_cmax": outcome.dropped_cmax,
                "interhub_edges_found": len(outcome.new_interhub_keys),
                "adjacency_fetches": outcome.fetches + len(new_hubs),
                "adjacency_bytes": outcome.adjacency_bytes + 4 * len(task_hubs),
                "detect_items": detection.detect_items,
            },
        )
        threshold = config.next_threshold(threshold)
        round_id += 1


def _run_round_scalar(
    graph: CSRGraph,
    degrees: np.ndarray,
    threshold: int,
    c_max: int,
    round_id: int,
    visited_round: np.ndarray,
    task_hubs: np.ndarray,
    task_seeds: np.ndarray,
    new_hubs: np.ndarray,
) -> RoundOutcome:
    """One round of Th3 through the per-edge oracle loop.

    Runs :func:`~repro.core.tp_bfs.run_bfs_task` on each task in queue
    order and fills the :class:`RoundOutcome` the batched kernel
    returns: the island table in append order, each task's counters
    and outcome code by task index, and the round's new inter-hub keys
    through the same sorted-key dedup (``new_hubs`` are the round's new
    hubs).
    """
    state = BFSRoundState.create(
        graph, degrees, threshold, c_max, round_id, visited_round
    )
    members: list[list[int]] = []
    hubs: list[list[int]] = []
    scans: list[int] = []
    fetches: list[int] = []
    nbytes: list[int] = []
    codes: list[int] = []
    for hub, a0 in zip(task_hubs.tolist(), task_seeds.tolist()):
        bytes_before = state.adjacency_bytes
        result = run_bfs_task(state, hub, a0)
        code = TASK_OUTCOME_CODES[result.outcome]
        scans.append(result.scans)
        fetches.append(result.fetches)
        nbytes.append(state.adjacency_bytes - bytes_before)
        codes.append(code)
        if code == TASK_ISLAND:
            members.append(result.members)
            hubs.append(result.hubs)
    task_outcomes = np.asarray(codes, dtype=np.int8)
    seed_is_hub = task_outcomes == TASK_SEED_HUB
    return RoundOutcome(
        islands=IslandTable.from_arrays(round_id, members, hubs),
        new_interhub_keys=dedup_interhub_keys(
            task_hubs[seed_is_hub], task_seeds[seed_is_hub],
            graph.num_nodes, new_hubs,
        ),
        dropped_classified=codes.count(TASK_SEED_HUB),
        dropped_visited=codes.count(TASK_VISITED),
        dropped_cmax=codes.count(TASK_CMAX),
        scans=state.scans,
        fetches=state.adjacency_fetches,
        adjacency_bytes=state.adjacency_bytes,
        task_scans=np.asarray(scans, dtype=np.int64),
        task_fetches=np.asarray(fetches, dtype=np.int64),
        task_bytes=np.asarray(nbytes, dtype=np.int64),
        task_outcomes=task_outcomes,
    )


class IslandLocator:
    """Runtime graph restructuring: find hubs and islands by rounds."""

    def __init__(self, config: LocatorConfig | None = None) -> None:
        self.config = config or LocatorConfig()

    def run(
        self,
        graph: CSRGraph,
        *,
        on_round: Callable[[RoundOutput], None] | None = None,
    ) -> IslandizationResult:
        """Islandize ``graph`` by draining :meth:`stream` to completion.

        ``on_round`` (optional) is invoked with each round's
        :class:`RoundOutput` as it is produced — the callback form of
        the streaming hand-off, for consumers that prefer not to drive
        the generator themselves.  The returned result is identical
        with or without a callback (and identical to what a pre-stream
        monolithic run produced: the stream *is* the implementation).
        """
        stream = self.stream(graph)
        while True:
            try:
                chunk = next(stream)
            except StopIteration as stop:
                return stop.value
            if on_round is not None:
                on_round(chunk)

    def stream(
        self,
        graph: CSRGraph,
        *,
        tap: Callable[..., None] | None = None,
    ) -> Generator[RoundOutput, None, IslandizationResult]:
        """Islandize ``graph``, yielding one chunk per locator round.

        The generator form of Fig. 3's producer side: after each round
        of Algorithm 1 it yields a :class:`RoundOutput` with the
        table of islands finalized that round (isolated-node singletons
        first, then TP-BFS islands in task order — exactly their rows of
        the final result's table) and the round's statistics, then
        resumes with the next threshold.  The
        :class:`IslandizationResult` is the generator's return value
        (``StopIteration.value``), so ``run()`` is a plain drain of
        this stream and both entry points produce byte-identical
        results for either Th3 backend.

        ``tap`` (optional) receives ``(round_id, task_hubs, task_seeds,
        task_scans, task_fetches, task_bytes, task_outcomes)`` once per
        round, before the round's chunk is yielded — the raw Th2 queue
        plus each task's TP-BFS scan count, adjacency fetches/bytes
        and outcome code (``tp_bfs_batched.TASK_*``) in task order.
        Incremental islandization records these to replay the greedy
        engine dispatch and to subtract a dirty region's contribution
        from the cached counters under deltas; the run itself is
        unaffected by the callback.

        ``graph`` must not contain self-loops: they carry no structural
        information for clustering and are handled by the consumer's
        normalisation (the GCN ``A + I`` diagonal), so the locator
        rejects them to keep edge accounting unambiguous.  The
        adjacency must be symmetric (the repository's graph
        constructors guarantee this); both Th3 backends rely on it.
        """
        if graph.has_self_loops():
            raise IslandizationError(
                "islandize expects a graph without self-loops; call "
                "graph.without_self_loops() first"
            )
        config = self.config
        n = graph.num_nodes
        degrees = graph.degrees.astype(np.int64)
        tables: list[IslandTable] = []
        num_islands = 0
        hub_ids: list[np.ndarray] = [_EMPTY]
        hub_rounds: list[np.ndarray] = [_EMPTY]
        rounds: list[RoundStats] = []
        dispatch = _GreedyEngineDispatch(config.p2)
        total_scans = 0
        key_parts: list[np.ndarray] = [_EMPTY]
        records = _locate_rounds(
            graph, degrees, np.zeros(n, dtype=bool), config,
            config.initial_threshold(degrees), _EMPTY, _EMPTY,
        )
        for round_id, rec in enumerate(records, 1):
            outcome = rec.outcome
            islands = IslandTable.concat((
                IslandTable.singletons(round_id, rec.isolated),
                outcome.islands,
            ))
            tables.append(islands)
            hub_ids.append(rec.new_hubs)
            hub_rounds.append(
                np.full(len(rec.new_hubs), round_id, dtype=np.int64)
            )
            stats = RoundStats(
                round_id=round_id, threshold=rec.threshold, **rec.stats
            )
            rounds.append(stats)
            dispatch.add(outcome.task_scans)
            total_scans += outcome.scans
            key_parts.append(outcome.new_interhub_keys)
            if tap is not None:
                tap(
                    round_id, rec.task_hubs, rec.task_seeds,
                    outcome.task_scans, outcome.task_fetches,
                    outcome.task_bytes, outcome.task_outcomes,
                )
            yield RoundOutput(
                stats=stats,
                islands=islands,
                new_hub_ids=rec.new_hubs,
                first_island_id=num_islands,
            )
            num_islands += len(islands)

        work = LocatorWork(
            total_adjacency_fetches=sum(r.adjacency_fetches for r in rounds),
            total_adjacency_bytes=sum(r.adjacency_bytes for r in rounds),
            total_detect_items=sum(r.detect_items for r in rounds),
            total_bfs_scans=total_scans,
            per_engine_scans=dispatch.loads(),
        )
        # Rounds find disjoint key sets (see dedup_interhub_keys), so
        # one sort of their concatenation is the sorted union.
        interhub_keys = np.sort(np.concatenate(key_parts))
        return IslandizationResult(
            graph=graph,
            islands=IslandTable.concat(tables),
            hub_ids=np.concatenate(hub_ids),
            hub_round=np.concatenate(hub_rounds),
            interhub_edges=np.stack(
                [interhub_keys // n, interhub_keys % n], axis=1
            ),
            rounds=rounds,
            work=work,
        )


def islandize(
    graph: CSRGraph,
    config: LocatorConfig | None = None,
    *,
    store=None,
) -> IslandizationResult:
    """Convenience wrapper: run the Island Locator on ``graph``.

    With ``config.partitions > 1`` the run is dispatched to the
    partition-parallel, out-of-core locator
    (:func:`repro.core.islandizer_partitioned.islandize_partitioned`);
    ``store`` only applies there.  ``partitions == 1``
    runs monolithically in-process — no shard files, no worker fleet —
    which is also exactly what the partitioned path's single-shard
    oracle contract reproduces.
    """
    config = config or LocatorConfig()
    if config.partitions > 1:
        from repro.core.islandizer_partitioned import islandize_partitioned

        return islandize_partitioned(graph, config, store=store)
    return IslandLocator(config).run(graph)
