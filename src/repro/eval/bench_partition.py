"""Partitioned-locator benchmark: monolithic vs sharded islandization.

Times the monolithic batched locator against the partitioned pipeline
(:func:`repro.core.islandize_partitioned`) over a ladder of graphs up
to ~2e7 undirected edges.  Unlike the other bench suites this one is a
*quality/performance trade*, not an exact-equivalence race: partitions
> 1 legitimately changes the islandization (boundary separators become
hubs), so every tier records the quantified quality delta — islands
found, hub coverage, classified-edge ratio — next to the wall-clock
and peak-RSS numbers, and additionally verifies the ``partitions=1``
oracle: the partitioned pipeline with a single shard must reproduce
the monolithic result *exactly* (``IslandizationResult.equals``).

Measurement methodology
-----------------------
Every *repeat* of every measured configuration runs in its own
**fresh subprocess** (spawned via ``sys.executable``): wall time is
taken inside the child around the islandize call only (graph loading
excluded), and peak RSS comes from ``resource.getrusage`` —
``RUSAGE_SELF`` for the coordinating process plus ``RUSAGE_CHILDREN``
for the worker fleet.  One child per repeat matters for fairness: the
monolithic locator re-run inside a warm process gets its big
allocations back from the allocator for free, while the partitioned
pipeline pays for a fresh worker fleet on every run — best-of over
*cold* children compares like with like.  It also keeps the RSS
numbers honest and the memory comparison meaningful: the partitioned
coordinator never materialises shard CSRs (workers mmap them), so its
parent RSS should sit *below* the monolithic run.

The largest tier uses a hub-heavier community profile
(``background_fraction=0.02`` instead of ``0.0075``).  This is where
partitioning wins big — the monolithic locator's cost grows
superlinearly with the welded hub-blob size while the partition/merge
overhead stays linear in edges — and the profile is recorded in the
JSON so the number cannot be mistaken for the standard-profile tiers.

Graphs are generated once per (tier, seed, edge cap) and cached as
``.npz`` under ``graph_dir`` so repeated runs (and the mono/part
children of one run) share them.

The JSON schema (one record per file)::

    {"benchmark": "locator-partition",
     "config": {"seed": ..., "repeats": ..., "c_max": ...,
                "partitions": ..., "workers": ..., "strategy": ...,
                "max_edges": ..., "verified": ...},
     "tiers": [{"tier": "2e6", "profile": "std", "nodes": ..., "edges": ...,
                "mono_s": ..., "part_s": ..., "speedup": ...,
                "mono_rss_mb": ..., "part_rss_mb": ...,
                "part_worker_rss_mb": ...,
                "equal_p1": true,
                "mono_quality": {...}, "part_quality": {...},
                "quality_delta": {"islands": ..., "hub_fraction": ...,
                                  "classified_edge_ratio": ...}}, ...],
     "largest_tier": "...", "largest_speedup": ...}

``edges`` counts undirected edges; ``*_s`` are best-of-``repeats``
in-child wall times; RSS columns are peak MB.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.core.config import LocatorConfig
from repro.errors import ConfigError, SimulationError
from repro.eval.harness import false_flags, full_ladder, render_record
from repro.graph.csr import CSRGraph
from repro.graph.generators import CommunityProfile, hub_island_graph

__all__ = [
    "PARTITION_TIERS",
    "gate",
    "partition_bench_graph",
    "run_partition_bench",
    "table",
]

#: Tier name -> (target undirected edge count, profile key).  The
#: largest tier deliberately uses the hub-heavy profile — see module
#: docstring.
PARTITION_TIERS: dict[str, tuple[int, str]] = {
    "2e5": (200_000, "std"),
    "2e6": (2_000_000, "std"),
    "2e7": (20_000_000, "hub"),
}

#: Profile key -> (community structure, measured edges-per-node of the
#: generator under that structure; used to size the node count).
_PROFILES: dict[str, tuple[CommunityProfile, float]] = {
    "std": (
        CommunityProfile(
            island_size_mean=16.0, island_size_max=48,
            background_fraction=0.0075,
        ),
        10.6,
    ),
    "hub": (
        CommunityProfile(
            island_size_mean=16.0, island_size_max=48,
            background_fraction=0.02,
        ),
        12.5,
    ),
}


def partition_bench_graph(
    tier: str,
    *,
    seed: int = 7,
    max_edges: int | None = None,
    graph_dir: str | os.PathLike | None = None,
) -> Path:
    """Generate (or reuse) the benchmark graph of one tier on disk.

    Returns the path of a :meth:`CSRGraph.to_npz` archive.  With
    ``max_edges`` the tier's target edge count is capped, so the 2e7
    tier can smoke-run small (CI) without a separate tier ladder; the
    cap is part of the cache filename, so capped and full graphs
    coexist.  The graph is self-loop-free (the partitioned pipeline
    rejects self-loops, like the locator's preprocessing contract).
    """
    try:
        target_edges, profile_key = PARTITION_TIERS[tier]
    except KeyError:
        raise ConfigError(
            f"unknown partition bench tier {tier!r}; available: "
            f"{', '.join(PARTITION_TIERS)}"
        ) from None
    if max_edges is not None:
        if max_edges < 1_000:
            raise ConfigError(
                f"--max-edges must be >= 1000 (got {max_edges})"
            )
        target_edges = min(target_edges, max_edges)
    profile, edges_per_node = _PROFILES[profile_key]
    nodes = max(64, int(target_edges / edges_per_node))
    root = Path(graph_dir) if graph_dir is not None else (
        Path(tempfile.gettempdir()) / "repro-bench-graphs"
    )
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"partbench-{tier}-{profile_key}-n{nodes}-s{seed}.npz"
    if not path.exists():
        graph, _ = hub_island_graph(
            nodes, profile, seed=seed, name=f"partbench-{tier}"
        )
        graph = graph.without_self_loops()
        tmp = path.with_name(path.name + ".tmp")
        graph.to_npz(str(tmp))
        os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# Child side: one measured configuration per fresh process
# ----------------------------------------------------------------------

def _child(spec: dict) -> dict:
    """Run one measured configuration; called in a fresh subprocess.

    Modes: ``mono`` (monolithic in-process locator), ``part`` (the
    partitioned pipeline with the spec's partitions/workers), and
    ``equal`` (run both monolithic and partitioned-with-one-shard and
    report exact equality — the partitions=1 oracle).
    """
    from repro.core.islandizer import IslandLocator
    from repro.core.islandizer_partitioned import (
        islandize_partitioned,
        quality_metrics,
    )

    graph = CSRGraph.from_npz(spec["graph"])
    config = LocatorConfig(
        c_max=spec["c_max"],
        backend="batched",
        partitions=spec["partitions"],
        partition_strategy=spec["strategy"],
    )
    if spec["mode"] == "equal":
        mono = IslandLocator(
            LocatorConfig(c_max=spec["c_max"], backend="batched")
        ).run(graph)
        part = islandize_partitioned(
            graph,
            LocatorConfig(c_max=spec["c_max"], backend="batched"),
        )
        return {"equal": bool(mono.equals(part))}

    t0 = time.perf_counter()
    if spec["mode"] == "mono":
        result = IslandLocator(config).run(graph)
    else:
        result = islandize_partitioned(
            graph, config, max_workers=spec["workers"]
        )
    elapsed = time.perf_counter() - t0
    result.validate()
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "time": round(elapsed, 4),
        "quality": quality_metrics(result),
        "rounds": result.num_rounds,
        # Linux ru_maxrss is in KiB.
        "rss_self_mb": round(rss_self / 1024, 1),
        "rss_children_mb": round(rss_children / 1024, 1),
    }


def _run_child(spec: dict) -> dict:
    """Spawn ``_child(spec)`` in a fresh interpreter and parse its JSON."""
    code = (
        "import json, sys\n"
        "from repro.eval.bench_partition import _child\n"
        "print(json.dumps(_child(json.loads(sys.argv[1]))))\n"
    )
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(spec)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise SimulationError(
            f"partition bench child failed ({spec['mode']}): "
            f"{proc.stderr.strip().splitlines()[-1] if proc.stderr else ''}"
        )
    # The child prints exactly one JSON line; tolerate library chatter
    # on earlier lines by taking the last one.
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Parent side: the suite
# ----------------------------------------------------------------------

def run_partition_bench(
    tiers: Sequence[str] = tuple(PARTITION_TIERS),
    *,
    repeats: int = 3,
    seed: int = 7,
    c_max: int = 64,
    partitions: int = 4,
    workers: int | None = None,
    strategy: str = "separator",
    max_edges: int | None = None,
    graph_dir: str | os.PathLike | None = None,
) -> dict:
    """Benchmark monolithic vs partitioned islandization across tiers.

    Each (tier, contender) pair runs in a fresh subprocess (see module
    docstring).  Each tier also runs the ``partitions=1`` oracle child
    and asserts exact equality with the monolithic result, and the
    result of every measured child passes
    ``IslandizationResult.validate()``.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1 (got {repeats})")
    if partitions < 2:
        raise ConfigError(
            f"partition bench needs --partitions >= 2 (got {partitions}); "
            f"partitions=1 is covered by the built-in equality oracle"
        )
    workers = workers or partitions
    rows: list[dict] = []
    for tier in tiers:
        graph_path = partition_bench_graph(
            tier, seed=seed, max_edges=max_edges, graph_dir=graph_dir
        )
        graph = CSRGraph.from_npz(str(graph_path))
        nodes, edges = graph.num_nodes, graph.num_edges // 2
        del graph  # the parent should not hold 2e7-scale arrays
        base = {
            "graph": str(graph_path),
            "c_max": c_max,
            "partitions": partitions,
            "strategy": strategy,
            "workers": workers,
        }
        mono_runs = [
            _run_child({**base, "mode": "mono", "partitions": 1})
            for _ in range(repeats)
        ]
        part_runs = [
            _run_child({**base, "mode": "part"}) for _ in range(repeats)
        ]
        equal_p1 = _run_child({**base, "mode": "equal"})["equal"]
        mono, part = mono_runs[0], part_runs[0]
        mono_times = [run["time"] for run in mono_runs]
        part_times = [run["time"] for run in part_runs]
        mono_s, part_s = min(mono_times), min(part_times)
        mq, pq = (
            {
                k: round(v, 4) if isinstance(v, float) else v
                for k, v in child["quality"].items()
            }
            for child in (mono, part)
        )
        rows.append(
            {
                "tier": tier,
                "profile": PARTITION_TIERS[tier][1],
                "nodes": nodes,
                "edges": edges,
                "mono_s": round(mono_s, 4),
                "part_s": round(part_s, 4),
                "speedup": round(mono_s / part_s, 2) if part_s else None,
                "mono_times": mono_times,
                "part_times": part_times,
                "mono_rss_mb": max(r["rss_self_mb"] for r in mono_runs),
                "part_rss_mb": max(r["rss_self_mb"] for r in part_runs),
                "part_worker_rss_mb": max(
                    r["rss_children_mb"] for r in part_runs
                ),
                "equal_p1": equal_p1,
                "mono_quality": mq,
                "part_quality": pq,
                "quality_delta": {
                    "islands": pq["islands"] - mq["islands"],
                    "hub_fraction": round(
                        pq["hub_fraction"] - mq["hub_fraction"], 4
                    ),
                    "classified_edge_ratio": round(
                        pq["classified_edge_ratio"]
                        - mq["classified_edge_ratio"],
                        4,
                    ),
                },
            }
        )
    largest = rows[-1] if rows else None
    return {
        "benchmark": "locator-partition",
        "config": {
            "seed": seed,
            "repeats": repeats,
            "c_max": c_max,
            "partitions": partitions,
            "workers": workers,
            "strategy": strategy,
            "max_edges": max_edges,
            "profiles": {
                key: (
                    f"hub-island mean={prof.island_size_mean:g} "
                    f"max={prof.island_size_max} "
                    f"bg={prof.background_fraction:g}"
                )
                for key, (prof, _) in _PROFILES.items()
            },
            "verified": True,
        },
        "tiers": rows,
        "largest_tier": largest["tier"] if largest else None,
        "largest_speedup": largest["speedup"] if largest else None,
    }


def table(record: dict) -> str:
    """A partition record as ``repro bench`` prints it."""
    config = record["config"]
    return render_record(
        record,
        f"partitioned islandization, {config['partitions']} shards x "
        f"{config['workers']} workers (best-of wall clock, fresh processes)",
        ("tier", "profile", "edges", "mono_s", "part_s", "speedup",
         "mono_rss_mb", "part_rss_mb",
         ("cer_delta",
          lambda row: row["quality_delta"]["classified_edge_ratio"]),
         "equal_p1"),
    )


def gate(record: dict) -> list[str]:
    """The partition contract, from the record.

    The partitions=1 oracle holds, and the partitioned classified-edge
    ratio stays within 0.30 of the monolithic one, on every tier.  A
    full ladder also carries the headline, partitioned not slower than
    monolithic at the largest tier; at capped sizes worker-pool spawn
    dominates, so only the full ladder gates wall clock.
    """
    failures = false_flags(record, "equal_p1")
    for row in record["tiers"]:
        delta = row["quality_delta"]["classified_edge_ratio"]
        if delta < -0.30:
            failures.append(
                f"{row['tier']}: quality_delta.classified_edge_ratio "
                f"{delta} below -0.30"
            )
    last = record["tiers"][-1]
    if full_ladder(record, PARTITION_TIERS) and last["part_s"] > last["mono_s"]:
        failures.append(
            f"{last['tier']}: part_s {last['part_s']} > mono_s {last['mono_s']}"
        )
    return failures
