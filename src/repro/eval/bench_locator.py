"""Locator scaling benchmark: scalar vs batched TP-BFS backends.

Times the Island Locator's two backends over a ladder of hub-and-island
graphs from ~1e3 to ~2e6 undirected edges (the structure the paper
targets, with enough background noise to exercise every kernel path:
bulk task classification, the multi-source island BFS, and the
sequential over-``c_max`` walks).  Each tier also *verifies* that both
backends return the exact same :class:`IslandizationResult`, so the
perf trajectory in ``BENCH_locator.json`` can never silently drift from
correctness.

Entry points:

* ``python -m repro bench locator`` — run tiers, print a table, write
  the JSON record, then apply :func:`gate`;
* :func:`run_locator_bench` — library API.

:func:`gate` is the scaling contract of this record and of the
consumer suite's, which shares it.

The JSON schema (one record per file)::

    {"benchmark": "locator-scale",
     "config": {"seed": ..., "repeats": ..., "c_max": ..., "profile": ...},
     "tiers": [{"tier": "1e4", "nodes": ..., "edges": ...,
                "scalar_s": ..., "batched_s": ..., "speedup": ...,
                "equal": true, "islands": ..., "rounds": ...}, ...],
     "largest_tier": "...", "largest_speedup": ...}

``edges`` counts undirected edges (half the CSR's directed entries).
Scalar timings at the top tiers use fewer repeats — the whole point is
that the scalar oracle takes tens of seconds there.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import LocatorConfig
from repro.core.islandizer import IslandLocator
from repro.errors import ConfigError
from repro.eval.harness import best_of, false_flags, render_record
from repro.graph.csr import CSRGraph
from repro.graph.generators import CommunityProfile, hub_island_graph
from repro.models.reference import FUNCTIONAL_RTOL

__all__ = ["BENCH_TIERS", "bench_graph", "gate", "run_locator_bench", "table"]

#: Tier name -> target undirected edge count.  The hub-island generator
#: lands within a few percent of the target at ~10.6 edges per node.
BENCH_TIERS: dict[str, int] = {
    "1e3": 1_000,
    "1e4": 10_000,
    "1e5": 100_000,
    "1e6": 1_000_000,
    "2e6": 2_000_000,
}

_EDGES_PER_NODE = 10.6

#: Community structure used for every tier: medium islands with a thin
#: background overlay, so over-c_max welded regions (the locator's
#: hardest case) appear alongside clean islands.
_BENCH_PROFILE = CommunityProfile(
    island_size_mean=16.0,
    island_size_max=48,
    background_fraction=0.0075,
)


def bench_graph(tier: str, *, seed: int = 7) -> CSRGraph:
    """Build the (self-loop-free) benchmark graph of one tier."""
    try:
        target_edges = BENCH_TIERS[tier]
    except KeyError:
        raise ConfigError(
            f"unknown bench tier {tier!r}; available: {', '.join(BENCH_TIERS)}"
        ) from None
    nodes = max(64, int(target_edges / _EDGES_PER_NODE))
    graph, _ = hub_island_graph(
        nodes, _BENCH_PROFILE, seed=seed, name=f"bench-{tier}"
    )
    return graph.without_self_loops()


def run_locator_bench(
    tiers: Sequence[str] = tuple(BENCH_TIERS),
    *,
    repeats: int = 3,
    seed: int = 7,
    c_max: int = 64,
) -> dict:
    """Time both backends across ``tiers`` and return the JSON record.

    ``repeats`` applies to the batched backend (best-of); the scalar
    oracle runs ``repeats`` times up to the 1e5 tier and once above it.
    Each tier asserts exact backend equivalence and records it in the
    row.
    """
    rows: list[dict] = []
    for tier in tiers:
        graph = bench_graph(tier, seed=seed)
        scalar = IslandLocator(LocatorConfig(c_max=c_max, backend="scalar"))
        batched = IslandLocator(LocatorConfig(c_max=c_max, backend="batched"))
        # One untimed batched run warms the allocator (first-touch page
        # faults otherwise dominate the small tiers).
        batched.run(graph)
        batched_s, batched_res = best_of(lambda: batched.run(graph), repeats)
        scalar_reps = repeats if graph.num_edges < 300_000 else 1
        scalar_s, scalar_res = best_of(lambda: scalar.run(graph), scalar_reps)
        rows.append(
            {
                "tier": tier,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges // 2,
                "scalar_s": round(scalar_s, 4),
                "batched_s": round(batched_s, 4),
                "speedup": round(scalar_s / batched_s, 2) if batched_s else None,
                "equal": bool(scalar_res.equals(batched_res)),
                "islands": batched_res.num_islands,
                "rounds": batched_res.num_rounds,
            }
        )
    largest = rows[-1] if rows else None
    return {
        "benchmark": "locator-scale",
        "config": {
            "seed": seed,
            "repeats": repeats,
            "c_max": c_max,
            "profile": "hub-island mean=16 max=48 bg=0.0075",
            "verified": True,
        },
        "tiers": rows,
        "largest_tier": largest["tier"] if largest else None,
        "largest_speedup": largest["speedup"] if largest else None,
    }


def table(record: dict) -> str:
    """A locator or consumer record as ``repro bench`` prints it."""
    suite = record["benchmark"].removesuffix("-scale")
    return render_record(
        record,
        f"{suite} backend scaling (best-of wall clock)",
        ("tier", "nodes", "edges", "scalar_s", "batched_s", "speedup",
         "equal"),
    )


def gate(record: dict) -> list[str]:
    """The scaling contract of a locator or consumer record.

    The backends agree on every tier.  When the largest tier is at
    least ``1e5``, the batched backend is not slower than the scalar
    oracle there; below that one millisecond-scale repeat is noise.
    With two or more tiers the speedup grows from the smallest tier to
    the largest: the batched kernel amortises fixed vectorization
    costs.  A consumer record's functional output is within
    :data:`~repro.models.reference.FUNCTIONAL_RTOL` of the scipy
    reference on every tier.
    """
    failures = false_flags(record, "equal")
    if record["benchmark"] == "consumer-scale":
        for row in record["tiers"]:
            err = row.get("reference_rel_err")
            if err is None or not err <= FUNCTIONAL_RTOL:
                failures.append(
                    f"{row['tier']}: reference_rel_err {err} exceeds "
                    f"{FUNCTIONAL_RTOL:g}"
                )
    first, last = record["tiers"][0], record["tiers"][-1]
    if (BENCH_TIERS[last["tier"]] >= BENCH_TIERS["1e5"]
            and last["batched_s"] > last["scalar_s"]):
        failures.append(
            f"{last['tier']}: batched_s {last['batched_s']} > "
            f"scalar_s {last['scalar_s']}"
        )
    if len(record["tiers"]) >= 2 and not last["speedup"] > first["speedup"]:
        failures.append(
            f"{last['tier']}: speedup {last['speedup']}x does not exceed "
            f"the {first['tier']} speedup {first['speedup']}x"
        )
    return failures
