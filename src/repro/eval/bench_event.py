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
  visible, and of generating the tier's graph (``generate_s``), which
  every cold call pays before its inference.

Each tier *verifies* the whole event contract — the sandwich bound,
byte-identical traces across two runs, a clean
:func:`~repro.core.event_sim.validate_trace` replay, and the cross-mode
equivalence of the streamed and event reports — and records the
verdicts in the row, so ``BENCH_event.json`` can never drift from what
the test suite pins.  :func:`gate` re-checks them from the record.

Entry points:

* ``python -m repro bench event`` — run tiers, print a table, write the
  JSON record, then apply :func:`gate`;
* :func:`run_event_bench` — library API.

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
                "generate_s": ..., "streamed_s": ..., "event_s": ...,
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

from typing import Sequence

from repro.core.accelerator import IGCNAccelerator, IGCNReport
from repro.core.config import ConsumerConfig, LocatorConfig
from repro.core.event_sim import validate_trace
from repro.eval.bench_locator import BENCH_TIERS, bench_graph
from repro.eval.harness import best_of, false_flags, full_ladder, render_record
from repro.models.configs import gcn_model

__all__ = ["gate", "run_event_bench", "table"]

#: Float slack when checking the sandwich (matches event_sim._EPS).
_EPS = 1e-6


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
    tiers: Sequence[str] = tuple(BENCH_TIERS),
    *,
    repeats: int = 3,
    seed: int = 7,
    c_max: int = 64,
    preagg_k: int = 6,
) -> dict:
    """Run the streamed and event modes across ``tiers``; returns the record.

    The tier's graph is generated ``repeats`` times (best-of wall
    clock).  Both modes run ``repeats`` times (best-of) after one
    untimed warm-up, and the event mode once more for the determinism
    check; the modelled cycle totals and traces are deterministic, so
    they come from the last run.  Each tier asserts the sandwich bound,
    trace validity, run-to-run trace determinism and the cross-mode
    equivalence, recording the verdicts in the row.
    """
    model = gcn_model(32, 8)
    rows: list[dict] = []
    for tier in tiers:
        generate_s, graph = best_of(lambda: bench_graph(tier, seed=seed), repeats)

        def run(pipeline) -> IGCNReport:
            """One end-to-end inference (islandize + all layers)."""
            return IGCNAccelerator(
                locator=LocatorConfig(c_max=c_max),
                consumer=ConsumerConfig(preagg_k=preagg_k, pipeline=pipeline),
            ).run(graph, model, feature_density=0.5)

        run("streamed")  # warm
        streamed_s, streamed = best_of(lambda: run("streamed"), repeats)
        run("event")  # warm
        event_s, event = best_of(lambda: run("event"), repeats)
        sandwich, deterministic, equal = _verify_tier(
            streamed, event, run("event")
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
                "generate_s": round(generate_s, 4),
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
            "verified": True,
        },
        "tiers": rows,
        "largest_tier": largest["tier"] if largest else None,
        "largest_speedup": largest["overlap_win"] if largest else None,
    }


def table(record: dict) -> str:
    """An event record as ``repro bench`` prints it."""
    return render_record(
        record,
        "event pipeline: discrete-event makespan inside its "
        "streamed/staged sandwich",
        ("tier", ("streamed_cyc", "streamed_cycles"),
         ("event_cyc", "event_cycles"), ("staged_cyc", "staged_cycles"),
         "overlap_win", "p50_us", "p99_us", "generate_s", "event_s",
         ("ok", lambda row: (row["sandwich"] and row["deterministic"]
                             and row["equal"]))),
    )


def gate(record: dict) -> list[str]:
    """The event contract, from the record.

    Every tier holds the three verdicts and, in its rounded cycle
    columns, the sandwich ``streamed <= event <= staged`` (0.1-cycle
    slack per step for the rounding); the largest tier shows the
    Fig. 3 overlap win, streamed strictly below staged.  Every tier
    records its graph's generation time.  A full ladder also carries
    the headline: an event-mode overlap win above 1, a p99 latency, a
    2e6-tier streamed inference of at most 2.5 s and a 2e6-tier graph
    generated in at most 1.0 s.
    """
    failures = false_flags(record, "sandwich", "deterministic", "equal")
    for row in record["tiers"]:
        if row.get("generate_s") is None:
            failures.append(f"{row['tier']}: generate_s is missing")
        if not (row["streamed_cycles"] <= row["event_cycles"] + 0.1
                <= row["staged_cycles"] + 0.2):
            failures.append(
                f"{row['tier']}: cycles escape streamed_cycles "
                f"{row['streamed_cycles']} <= event_cycles "
                f"{row['event_cycles']} + 0.1 <= staged_cycles "
                f"{row['staged_cycles']} + 0.2"
            )
    last = record["tiers"][-1]
    if not last["streamed_cycles"] < last["staged_cycles"]:
        failures.append(
            f"{last['tier']}: streamed_cycles {last['streamed_cycles']} "
            f"not below staged_cycles {last['staged_cycles']}"
        )
    if full_ladder(record, BENCH_TIERS):
        if not (last["overlap_win"] or 0) > 1:
            failures.append(
                f"{last['tier']}: overlap_win {last['overlap_win']} not above 1"
            )
        if last["p99_us"] is None:
            failures.append(f"{last['tier']}: p99_us is missing")
        if last["streamed_s"] > 2.5:
            failures.append(
                f"{last['tier']}: streamed_s {last['streamed_s']} above 2.5"
            )
        if (last.get("generate_s") or 0) > 1.0:
            failures.append(
                f"{last['tier']}: generate_s {last['generate_s']} above 1.0"
            )
    return failures
