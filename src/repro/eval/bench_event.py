"""Event-pipeline benchmark: the discrete-event mode vs its bounds.

Runs a full I-GCN inference (islandization + 2-layer GCN, batched
backends) over the shared hub-and-island graph ladder in the streamed
and event pipeline modes and records, per tier:

* the **sandwich position** — staged, streamed and event end-to-end
  cycles, all three read from one event-mode report (every run prices
  the staged and streamed models next to the selected one), with the
  event makespan provably between the streamed lower bound and the
  staged sum (``event_sim``'s structural contract);
* the **latency distribution** — per-island p50/p99 release-to-
  completion latency in µs, the serving-story metric the aggregate
  models cannot produce;
* the **simulation cost** — wall-clock seconds of the event mode next
  to the streamed mode, so the event refinement's overhead stays
  visible.

Each tier *verifies* the whole event contract — the sandwich bound,
byte-identical traces across two runs, a clean
:func:`~repro.core.event_sim.validate_trace` replay, and the cross-mode
equivalence of the streamed and event reports — and records the
verdicts in the row, so ``BENCH_event.json`` can never drift from what
the test suite pins.

Entry points:

* ``python -m repro bench event`` — run tiers, print a table, write the
  JSON record;
* :func:`run_event_bench` — library API (used by the CI ``bench-smoke``
  job).

The JSON schema (one record per file)::

    {"benchmark": "event-pipeline",
     "config": {"seed": ..., "repeats": ..., "c_max": ..., "preagg_k": ...,
                "layers": ..., "verified": ...},
     "tiers": [{"tier": "1e4", "nodes": ..., "edges": ...,
                "rounds": ..., "islands": ...,
                "staged_cycles": ..., "streamed_cycles": ...,
                "event_cycles": ..., "overlap_win": ...,
                "bound_gap": ..., "p50_us": ..., "p99_us": ...,
                "ring_grants": ..., "cache_hit_rate": ...,
                "streamed_s": ..., "event_s": ...,
                "sandwich": true, "deterministic": true,
                "equal": true}, ...],
     "largest_tier": "...", "largest_speedup": ...}

``overlap_win`` is ``staged_cycles / event_cycles`` (> 1 means the
event model still hides locator time under contention);
``staged_cycles / streamed_cycles`` is the aggregate model's Fig. 3
overlap win;
``bound_gap`` is ``event_cycles / streamed_cycles`` (>= 1; how much
the island-granular refinement costs over the aggregate optimism);
``largest_speedup`` mirrors the other bench records' key and holds the
largest tier's overlap win.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.accelerator import IGCNAccelerator, IGCNReport
from repro.core.config import ConsumerConfig, LocatorConfig
from repro.core.event_sim import validate_trace
from repro.errors import ConfigError
from repro.eval.bench_locator import bench_graph
from repro.models.configs import gcn_model

__all__ = ["run_event_bench"]

#: Float slack when checking the sandwich (matches event_sim._EPS).
_EPS = 1e-6


def _run_mode(graph, model, *, pipeline, c_max, preagg_k) -> tuple[float, IGCNReport]:
    """One timed end-to-end inference (islandize + all layers)."""
    accelerator = IGCNAccelerator(
        locator=LocatorConfig(c_max=c_max),
        consumer=ConsumerConfig(preagg_k=preagg_k, pipeline=pipeline),
    )
    start = time.perf_counter()
    report = accelerator.run(graph, model, feature_density=0.5)
    return time.perf_counter() - start, report


def _modes_equal(a: IGCNReport, b: IGCNReport) -> bool:
    """The cross-mode equivalence contract, in counts mode.

    Byte-identical functional outputs are pinned by
    ``tests/test_pipeline_stream.py``; the benchmark checks everything
    a counts-mode run observes: identical islandizations, per-layer
    counts, DRAM traffic, phase cycles, and the staged and streamed
    totals every report prices.
    """
    return (
        a.islandization.equals(b.islandization)
        and a.layers == b.layers
        and a.meter.reads == b.meter.reads
        and a.meter.writes == b.meter.writes
        and a.locator_cycles == b.locator_cycles
        and a.consumer_cycles == b.consumer_cycles
        and a.staged_cycles == b.staged_cycles
        and a.streamed_cycles == b.streamed_cycles
    )


def _verify_tier(
    streamed: IGCNReport, event: IGCNReport, event_again: IGCNReport,
) -> tuple[bool, bool, bool]:
    """``(sandwich, deterministic, equal)`` for one tier."""
    sandwich = (
        event.streamed_cycles - _EPS
        <= event.total_cycles
        <= event.staged_cycles + _EPS
    )
    validate_trace(event.event)
    deterministic = (
        event.event.trace_bytes() == event_again.event.trace_bytes()
    )
    equal = _modes_equal(streamed, event)
    return sandwich, deterministic, equal


def run_event_bench(
    tiers: Sequence[str] = ("1e3", "1e4", "1e5", "1e6", "2e6"),
    *,
    repeats: int = 3,
    seed: int = 7,
    c_max: int = 64,
    preagg_k: int = 6,
    verify: bool = True,
) -> dict:
    """Run the streamed and event modes across ``tiers``; returns the record.

    Both modes run ``repeats`` times (best-of wall clock) after one
    untimed warm-up, and the event mode once more for the determinism
    check; the modelled cycle totals and traces are deterministic, so
    they come from the last run.  With ``verify`` (default) each tier
    asserts the sandwich bound, trace validity, run-to-run trace
    determinism and the cross-mode equivalence, recording the verdicts
    in the row.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1 (got {repeats})")
    model = gcn_model(32, 8)
    rows: list[dict] = []
    for tier in tiers:
        graph = bench_graph(tier, seed=seed)
        common = dict(c_max=c_max, preagg_k=preagg_k)
        _run_mode(graph, model, pipeline="streamed", **common)  # warm
        streamed_s = float("inf")
        for _ in range(repeats):
            elapsed, streamed = _run_mode(
                graph, model, pipeline="streamed", **common
            )
            streamed_s = min(streamed_s, elapsed)
        _run_mode(graph, model, pipeline="event", **common)  # warm
        event_s = float("inf")
        for _ in range(repeats):
            elapsed, event = _run_mode(
                graph, model, pipeline="event", **common
            )
            event_s = min(event_s, elapsed)
        _, event_again = _run_mode(graph, model, pipeline="event", **common)

        sandwich = deterministic = equal = None
        if verify:
            sandwich, deterministic, equal = _verify_tier(
                streamed, event, event_again
            )
        sim = event.event
        rows.append(
            {
                "tier": tier,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges // 2,
                "rounds": event.islandization.num_rounds,
                "islands": event.islandization.num_islands,
                "staged_cycles": round(event.staged_cycles, 1),
                "streamed_cycles": round(event.streamed_cycles, 1),
                "event_cycles": round(event.total_cycles, 1),
                "overlap_win": (
                    round(event.staged_cycles / event.total_cycles, 4)
                    if event.total_cycles
                    else None
                ),
                "bound_gap": (
                    round(event.total_cycles / event.streamed_cycles, 4)
                    if event.streamed_cycles
                    else None
                ),
                "p50_us": (
                    round(event.island_p50_us, 5)
                    if event.island_p50_us is not None
                    else None
                ),
                "p99_us": (
                    round(event.island_p99_us, 5)
                    if event.island_p99_us is not None
                    else None
                ),
                "ring_grants": sim.ring_grants,
                "cache_hit_rate": (
                    round(
                        sim.cache_hits / (sim.cache_hits + sim.cache_misses),
                        4,
                    )
                    if sim.cache_hits + sim.cache_misses
                    else None
                ),
                "streamed_s": round(streamed_s, 4),
                "event_s": round(event_s, 4),
                "sandwich": sandwich,
                "deterministic": deterministic,
                "equal": equal,
            }
        )
    largest = rows[-1] if rows else None
    return {
        "benchmark": "event-pipeline",
        "config": {
            "seed": seed,
            "repeats": repeats,
            "c_max": c_max,
            "preagg_k": preagg_k,
            "layers": [
                [layer.in_dim, layer.out_dim] for layer in model.layers
            ],
            "verified": verify,
        },
        "tiers": rows,
        "largest_tier": largest["tier"] if largest else None,
        "largest_speedup": largest["overlap_win"] if largest else None,
    }
