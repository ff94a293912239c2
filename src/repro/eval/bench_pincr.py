"""Partitioned-incremental benchmark: shard-routed updates vs re-record.

Measures the composed PR-6/PR-7 path (:mod:`repro.core.
islandizer_pincremental`): a :class:`ShardFleet` records the
partitioned islandization of the hub-profile partition-bench graph
once, then a ladder of churn deltas is maintained two ways —

``update``
    the shard-routed incremental path: edits interior to one shard
    dispatch that shard's cached state through the PR-7 dirty-region
    machinery, untouched shards splice by reference, and only the
    merge re-runs;
``rerecord``
    the full fleet re-record against the *same pinned partition* —
    every shard interior re-extracted and re-recorded, then merged.
    This is also the exactness oracle: every rung asserts
    ``IslandizationResult.equals`` between the two.

Unlike the partition suite this one runs in a single warm process: the
point of the fleet is that its worker pool and shard handles stay open
across a chain of updates, so both contenders share one pool that the
initial recording has already spawned — neither pays process start-up
inside the timed region.  ``apply_s`` (delta materialisation) is timed
separately and excluded from both contenders via the ``applied`` hook,
mirroring the incremental suite.

Delta rungs reuse the incremental suite's ladder sizes but differ in
*locality*: the 1e1 rung is churn confined to the interior of the
single largest shard, the 1e3 rung to the two largest shards (the
headline: a small-delta update should beat the fleet re-record by the
shard-count factor minus merge overhead), and the 1e5 rung is global
churn across the whole graph — expected to trip the dirty-shard budget
fallback, where the update degenerates to a re-record *by design* and
the row documents the crossover.  Confined churn is drawn by running
:func:`repro.eval.bench_incremental.churn_delta` on a shard's cached
interior subgraph and mapping the edits to global ids, so every edit
is interior by construction.

The ``partitions=1`` bit-identity contract (a one-shard incremental
config must take the monolithic PR-7 path, byte for byte) is verified
on the largest shard's subgraph and recorded as ``p1_identical``.

The JSON schema (one record per file)::

    {"benchmark": "locator-pincremental",
     "config": {"seed": ..., "delta_seed": ..., "repeats": ...,
                "c_max": ..., "partitions": ..., "workers": ...,
                "strategy": ..., "graph_tier": ..., "max_edges": ...,
                "max_dirty_fraction": ..., "p1_identical": ...,
                "verified": ...},
     "graph": {"tier": ..., "profile": "hub", "nodes": ..., "edges": ...,
               "record_s": ...},
     "tiers": [{"tier": "1e3", "delta_edges": ..., "insertions": ...,
                "deletions": ..., "confined_shards": [...],
                "dirty_shards": [...], "apply_s": ..., "update_s": ...,
                "rerecord_s": ..., "speedup": ..., "fallback": ...,
                "fallback_reason": ..., "dirty_nodes": ...,
                "region_nodes": ..., "equal": ...}, ...],
     "headline_tier": "...", "headline_speedup": ...,
     "crossover_delta": "..."}

``speedup`` is ``rerecord_s / update_s`` (warm fleet, best-of wall
clock); ``headline_*`` is the largest non-fallback rung that beats the
re-record; ``crossover_delta`` is the first rung that falls back or
loses.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Sequence

import numpy as np

from repro.core.config import LocatorConfig
from repro.core.islandizer_incremental import record_islandization
from repro.core.islandizer_pincremental import ShardFleet
from repro.errors import ConfigError
from repro.eval.bench_incremental import DELTA_TIERS, churn_delta
from repro.eval.bench_incremental import headline as delta_headline
from repro.eval.bench_partition import PARTITION_TIERS, partition_bench_graph
from repro.eval.harness import best_of, false_flags, full_ladder, render_record
from repro.graph.csr import CSRGraph, GraphDelta

__all__ = [
    "PINCR_DELTA_TIERS",
    "gate",
    "headline",
    "run_pincr_bench",
    "table",
]

#: Rung name -> (edit count, shards the churn is confined to; ``None``
#: means global churn over the whole graph).
PINCR_DELTA_TIERS: dict[str, tuple[int, int | None]] = {
    "1e1": (DELTA_TIERS["1e1"], 1),
    "1e3": (DELTA_TIERS["1e3"], 2),
    "1e5": (DELTA_TIERS["1e5"], None),
}


def _largest_shards(state, count: int) -> list[int]:
    """Ids of the ``count`` largest shards by interior edge count."""
    sizes = [
        (-state.shard_results[p].graph.num_edges, p)
        for p in range(state.num_shards)
    ]
    sizes.sort()
    return [p for _, p in sizes[:count]]


def _confined_delta(state, rng, k: int, th0: int,
                    shard_ids: Sequence[int]) -> GraphDelta:
    """``k`` churn edits confined to the interiors of ``shard_ids``.

    Each shard contributes an even split of the budget, drawn by
    running the churn generator on its cached interior subgraph and
    mapping local node ids back to global ones.  Interior subgraphs
    are induced, so a pair absent locally is absent globally — the
    mapped delta is a valid churn delta of the full graph whose every
    edit routes as shard-interior.
    """
    base, rem = divmod(k, len(shard_ids))
    ins_parts: list[np.ndarray] = []
    del_parts: list[np.ndarray] = []
    for i, p in enumerate(shard_ids):
        kp = base + (1 if i < rem else 0)
        if kp < 2:
            continue
        local = churn_delta(state.shard_results[p].graph, rng, kp, th0)
        nodes = state.shard_nodes[p]
        ins_parts.append(np.stack(
            [nodes[local.insert_src], nodes[local.insert_dst]], axis=1
        ))
        del_parts.append(np.stack(
            [nodes[local.delete_src], nodes[local.delete_dst]], axis=1
        ))
    return GraphDelta.from_edges(
        insertions=np.concatenate(ins_parts),
        deletions=np.concatenate(del_parts),
    )


def _p1_identity(graph: CSRGraph, c_max: int) -> bool:
    """``partitions=1`` + ``incremental`` is bit-identical to PR 7."""
    one = LocatorConfig(c_max=c_max, partitions=1, incremental=True)
    plain = LocatorConfig(c_max=c_max, incremental=True)
    r1, s1 = record_islandization(graph, one)
    r2, s2 = record_islandization(graph, plain)
    if type(s1) is not type(s2) or s1.th0 != s2.th0:
        return False
    arrays = [
        f.name for f in dataclasses.fields(s1) if f.name != "th0"
    ]
    return bool(
        r1.equals(r2)
        and all(
            np.array_equal(getattr(s1, f), getattr(s2, f)) for f in arrays
        )
    )


def run_pincr_bench(
    tiers: Sequence[str] = tuple(PINCR_DELTA_TIERS),
    *,
    repeats: int = 3,
    seed: int = 7,
    delta_seed: int = 11,
    c_max: int = 64,
    partitions: int = 6,
    workers: int | None = None,
    strategy: str = "separator",
    graph_tier: str = "2e7",
    max_edges: int | None = None,
    graph_dir: str | os.PathLike | None = None,
    max_dirty_fraction: float = 0.5,
) -> dict:
    """Benchmark shard-routed updates against full fleet re-records.

    One warm :class:`ShardFleet` records the partitioned state once,
    then every rung times ``fleet.update`` (shard-routed) against
    ``fleet.rerecord`` (pinned-partition from-scratch) on the same
    materialised delta.  Every rung asserts result equality between
    the two and validates the update's result.

    Each rung draws its delta from a fresh ``default_rng(delta_seed)``,
    so one rung's numbers reproduce without running the others.
    """
    for tier in tiers:
        if tier not in PINCR_DELTA_TIERS:
            raise ConfigError(
                f"unknown pincr bench tier {tier!r}; available: "
                f"{', '.join(PINCR_DELTA_TIERS)}"
            )
    if partitions < 2:
        raise ConfigError(
            f"pincr bench needs --partitions >= 2 (got {partitions}); "
            f"partitions=1 is covered by the built-in identity check"
        )
    config = LocatorConfig(
        c_max=c_max,
        partitions=partitions,
        partition_strategy=strategy,
        incremental=True,
    )
    graph_path = partition_bench_graph(
        graph_tier, seed=seed, max_edges=max_edges, graph_dir=graph_dir
    )
    graph = CSRGraph.from_npz(str(graph_path))
    th0 = int(config.initial_threshold(graph.degrees))
    rows: list[dict] = []
    with ShardFleet(config, max_workers=workers) as fleet:
        record_s, (cached, state) = best_of(lambda: fleet.record(graph), 1)
        p1_identical = _p1_identity(state.shard_results[0].graph, c_max)
        # A smoke-capped graph caps the big deltas too.
        k_cap = max(2, graph.num_edges // 8)
        for tier in tiers:
            k, confine = PINCR_DELTA_TIERS[tier]
            k = min(k, k_cap)
            rng = np.random.default_rng(delta_seed)
            if confine is None:
                shard_ids: list[int] = []
                delta = churn_delta(graph, rng, k, th0)
            else:
                shard_ids = _largest_shards(state, confine)
                delta = _confined_delta(state, rng, k, th0, shard_ids)
            apply_s, applied = best_of(
                lambda: graph.apply_delta(delta, with_changes=True), 1
            )
            mutated = applied[0]
            rerecord_s, (scratch, _) = best_of(
                lambda: fleet.rerecord(mutated, state), repeats
            )
            update_s, upd = best_of(
                lambda: fleet.update(
                    graph, cached, state, delta,
                    max_dirty_fraction=max_dirty_fraction, applied=applied,
                ),
                repeats,
            )
            upd.result.validate()
            rows.append({
                "tier": tier,
                "delta_edges": delta.num_edges,
                "insertions": delta.num_insertions,
                "deletions": delta.num_deletions,
                "confined_shards": shard_ids,
                "dirty_shards": list(upd.dirty_shards),
                "apply_s": round(apply_s, 4),
                "update_s": round(update_s, 4),
                "rerecord_s": round(rerecord_s, 4),
                "speedup": (
                    round(rerecord_s / update_s, 2) if update_s else None
                ),
                "fallback": upd.fallback,
                "fallback_reason": upd.fallback_reason,
                "dirty_nodes": upd.dirty_nodes,
                "region_nodes": upd.region_nodes,
                "equal": bool(upd.result.equals(scratch)),
            })
    headline = None
    crossover = None
    for row in rows:
        wins = not row["fallback"] and (row["speedup"] or 0) > 1
        if wins:
            headline = row
        elif crossover is None:
            crossover = row
    return {
        "benchmark": "locator-pincremental",
        "config": {
            "seed": seed,
            "delta_seed": delta_seed,
            "repeats": repeats,
            "c_max": c_max,
            "partitions": partitions,
            "workers": workers or min(partitions, os.cpu_count() or 1),
            "strategy": strategy,
            "graph_tier": graph_tier,
            "max_edges": max_edges,
            "max_dirty_fraction": max_dirty_fraction,
            "p1_identical": p1_identical,
            "verified": True,
        },
        "graph": {
            "tier": graph_tier,
            "profile": PARTITION_TIERS[graph_tier][1],
            "nodes": graph.num_nodes,
            "edges": graph.num_edges // 2,
            "record_s": round(record_s, 4),
        },
        "tiers": rows,
        "headline_tier": headline["tier"] if headline else None,
        "headline_speedup": headline["speedup"] if headline else None,
        "crossover_delta": crossover["tier"] if crossover else None,
    }


def table(record: dict) -> str:
    """A pincr record as ``repro bench`` prints it."""
    config = record["config"]
    return render_record(
        record,
        f"shard-routed updates vs full fleet re-record, "
        f"{config['partitions']} shards x {config['workers']} workers "
        f"(warm fleet, best-of wall clock)",
        (("delta", "tier"), ("edits", "delta_edges"), "update_s",
         "rerecord_s", "speedup",
         ("dirty_shards", lambda row: len(row["dirty_shards"])),
         "fallback", "equal"),
    )


def gate(record: dict) -> list[str]:
    """The pincr contract, from the record.

    ``partitions=1`` is bit-identical to the monolithic path, and on
    every rung the shard-routed update equals the fleet re-record and
    is not slower: the re-record pays every shard even at smoke
    scale.  A full ladder also carries the headline: the largest
    winning rung is ``1e3``, at >= 3x.
    """
    failures = []
    if record["config"]["p1_identical"] is not True:
        failures.append(
            f"config.p1_identical is {record['config']['p1_identical']}"
        )
    failures += false_flags(record, "equal")
    for row in record["tiers"]:
        if row["update_s"] > row["rerecord_s"]:
            failures.append(
                f"{row['tier']}: update_s {row['update_s']} > "
                f"rerecord_s {row['rerecord_s']}"
            )
    if full_ladder(record, PINCR_DELTA_TIERS):
        if record["headline_tier"] != "1e3":
            failures.append(
                f"headline_tier {record['headline_tier']} is not 1e3"
            )
        speedup = record["headline_speedup"]
        if not (speedup or 0) >= 3:
            failures.append(f"headline_speedup {speedup} below the 3x floor")
    return failures


def headline(record: dict) -> str:
    """The headline of a pincr record: its largest winning rung."""
    return delta_headline(record, "full fleet re-record")
