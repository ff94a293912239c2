"""Partition-parallel, out-of-core islandization.

Scales the Island Locator past whole-graph-in-memory: the graph is
split by ``repro.graph.partition`` into ``P`` vertex-separator shards,
each shard is persisted as an uncompressed ``.npz`` through the disk
artifact store and islandized by a ``ProcessPoolExecutor`` worker that
**memory-maps** its shard (``GraphShard.from_npz_mmap``) — no worker
ever materialises the full graph.  A reconciliation pass then merges
the per-shard results into one :class:`IslandizationResult`:

* **boundary hubs** — every separator node becomes a global hub in a
  synthetic round 0 (the partitioner found them with the same decaying
  degree schedule the locator's early rounds use);
* **island stitching** — shard islands keep their member/hub order,
  get renumbered round-major across shards, and boundary hubs adjacent
  to their members are attached so the member→hub edge-coverage
  contract holds;
* **inter-hub stitching** — every boundary-incident edge whose other
  endpoint is a hub (boundary or shard-local) becomes a canonical
  inter-hub pair; shard-local pairs map through the monotone
  local→global node map unchanged.

The merged result passes ``IslandizationResult.validate()`` — every
node classified exactly once, exact directed-edge coverage — and with
``partitions == 1`` (one shard = the whole graph, empty boundary) the
round-trip through the shard store and worker fleet is **exactly
equal** (``IslandizationResult.equals``) to the monolithic locator:
that is the oracle contract every kernel PR in this repo ships.

For ``partitions > 1`` the result is *not* bit-identical to the
monolithic run — separator promotion trades islandization quality for
memory-bounded, shard-local work.  The delta is quantified, not
hidden: :func:`quality_metrics` reports islands found, hub coverage
and the classified-edge ratio, and the partition benchmark records
them per tier.
"""

from __future__ import annotations

import io
import os
import resource
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import LocatorConfig
from repro.core.islandizer import IslandLocator
from repro.core.types import (
    ROUND_FIELDS,
    IslandizationResult,
    IslandTable,
    LocatorWork,
    RoundStats,
)
from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphShard, partition_graph
from repro.nputil import cumsum0
from repro.serialize import config_digest

__all__ = [
    "ShardRun",
    "islandize_partitioned",
    "quality_metrics",
    "shard_store_key",
]

#: Bytes of one directed adjacency entry (int64 column index) — the
#: unit the locator's own adjacency_bytes accounting uses.
_ENTRY_BYTES = 8


@dataclass(frozen=True)
class ShardRun:
    """One worker's report: which shard, its result, its peak RSS."""

    part_id: int
    result: IslandizationResult
    max_rss_kb: int


def shard_store_key(graph: CSRGraph, config: LocatorConfig, part_id: int) -> str:
    """Stable store key of one shard file (kind ``"shard"``)."""
    return f"{graph.fingerprint()}|loc={config_digest(config)}|shard={part_id}"


def islandize_partitioned(
    graph: CSRGraph,
    config: LocatorConfig | None = None,
    *,
    store=None,
    max_workers: int | None = None,
) -> IslandizationResult:
    """Partition ``graph``, islandize every shard out-of-core, merge.

    ``store`` may be a :class:`~repro.runtime.store.DiskStore` (or a
    tiered store containing one): shards are persisted through it and
    re-used across runs.  Without one, shards live in a temporary
    directory for the duration of the call.  ``max_workers`` caps the
    worker fleet (default: one worker per shard, bounded by the CPU
    count).
    """
    config = config or LocatorConfig()
    if graph.has_self_loops():
        raise IslandizationError(
            "partitioned islandization expects a graph without self-loops"
        )
    partition = partition_graph(
        graph,
        config.partitions,
        strategy=config.partition_strategy,
        threshold=config.initial_threshold(graph.degrees),
        decay=config.decay,
        th_min=config.th_min,
    )
    runs = _run_shards(graph, config, partition, store, max_workers)
    if config.partitions == 1:
        # Single shard == whole graph: the worker's result IS the
        # monolithic result (the npz round-trip is byte-identical);
        # re-point it at the caller's graph object and hand it back.
        result = runs[0].result
        result.graph = graph
        return result
    return _merge(
        graph, config,
        boundary=partition.boundary_nodes,
        maps=[shard.global_nodes for shard in partition.shards],
        stats=partition.stats,
        shard_results=[run.result for run in runs],
    )


def _run_shards(graph, config, partition, store, max_workers):
    """Persist shards through the store, run the worker fleet."""
    shard_config = replace(config, partitions=1)
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as scratch:
        paths = _persist_shards(graph, config, partition, store, scratch)
        workers = max_workers or min(
            len(paths), max(1, os.cpu_count() or 1)
        )
        workers = max(1, min(workers, len(paths)))
        jobs = [(path, shard_config) for path in paths]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_shard_worker, jobs))
    runs = sorted(
        (ShardRun(part_id, IslandizationResult.from_npz(io.BytesIO(blob)),
                  rss)
         for part_id, blob, rss in raw),
        key=lambda run: run.part_id,
    )
    if [run.part_id for run in runs] != list(range(partition.num_parts)):
        raise IslandizationError("worker fleet lost a shard result")
    return runs


def _persist_shards(graph, config, partition, store, scratch) -> list[str]:
    """Write every shard as an npz; return its on-disk paths in order."""
    disk = _disk_tier(store)
    paths: list[str] = []
    for shard in partition.shards:
        if disk is None:
            path = os.path.join(scratch, f"shard{shard.part_id}.npz")
            shard.to_npz(path)
        else:
            key = shard_store_key(graph, config, shard.part_id)
            # Unconditional (re)write: put() is atomic, and a cheap
            # rewrite beats a stale-shard debugging session.
            disk.put("shard", key, shard)
            path = str(disk.path_for("shard", key))
        paths.append(path)
    return paths


def _disk_tier(store):
    """The DiskStore inside ``store`` (tiered stacks welcome), if any."""
    if store is None:
        return None
    if hasattr(store, "path_for"):
        return store
    for tier in getattr(store, "tiers", ()):  # TieredStore
        if hasattr(tier, "path_for"):
            return tier
    return None


def _shard_worker(job):
    """Fleet entry point: mmap one shard, islandize, ship npz bytes.

    The result travels home as serialized bytes rather than a pickled
    object: the round-trip is byte-identical (pinned by the store
    tests) and it keeps memory-mapped shard arrays out of the pickle
    stream.
    """
    path, shard_config = job
    shard = GraphShard.from_npz_mmap(path)
    result = IslandLocator(shard_config).run(shard.graph)
    buf = io.BytesIO()
    result.to_npz(buf)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return shard.part_id, buf.getvalue(), int(rss)


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------
def _merge(
    graph: CSRGraph,
    config: LocatorConfig,
    *,
    boundary: np.ndarray,
    maps: list[np.ndarray],
    stats,
    shard_results: list[IslandizationResult],
) -> IslandizationResult:
    """Merge per-shard results into one valid global result.

    Takes the partition as loose pieces (separator, per-shard global
    node maps, the frozen :class:`~repro.graph.partition.PartitionStats`)
    rather than a :class:`GraphPartition`: the incremental router
    re-reconciles from cached per-shard results long after the shard
    objects are gone, and the merge never needs the shard graphs.
    """
    n = graph.num_nodes

    # Global hub set: boundary (round 0) + every shard hub (its round).
    hub_ids = [boundary]
    hub_round = [np.zeros(len(boundary), dtype=np.int64)]
    for local_map, res in zip(maps, shard_results):
        hub_ids.append(local_map[res.hub_ids])
        hub_round.append(np.asarray(res.hub_round, dtype=np.int64))
    hub_ids = np.concatenate(hub_ids)
    hub_round = np.concatenate(hub_round)

    # Renumber islands round-major across shards so island round_ids
    # stay non-decreasing (iter_rounds' replay contract), mapping
    # members/hubs to global IDs (monotone maps keep their order
    # meaningful).  A stable sort by round keeps part order, then
    # shard-local order, within each round.
    max_rounds = max((res.num_rounds for res in shard_results), default=0)
    pool = IslandTable.concat([
        res.islands.relabel(local_map)
        for res, local_map in zip(shard_results, maps)
    ])
    islands = pool.take(np.argsort(pool.round_id, kind="stable"))
    num_islands = len(islands)

    # Classify every boundary-incident directed edge: hub endpoint →
    # canonical inter-hub pair; member endpoint → that member's island
    # must attach the boundary hub.
    island_of = np.full(n, -1, dtype=np.int64)
    island_of[islands.members] = np.repeat(
        np.arange(num_islands, dtype=np.int64), islands.num_members
    )
    # Boundary-incident edges are most of a hub-heavy graph, so this
    # section runs in int32 (node ids fit comfortably) with one fused
    # uint8 node-class gather — the passes here are memory-bound and
    # element width is the cost.
    cls = np.zeros(n, dtype=np.uint8)          # 0 member, 1 shard hub,
    cls[hub_ids] = 1                           # 2 boundary
    cls[boundary] = 2
    indices32 = graph.indices.astype(np.int32)
    boundary32 = boundary.astype(np.int32)
    b_counts = (
        graph.indptr[boundary + 1] - graph.indptr[boundary]
    ).astype(np.int32)
    total = int(b_counts.sum())
    starts = graph.indptr[boundary].astype(np.int32)
    inner = np.arange(total, dtype=np.int32) - np.repeat(
        (np.cumsum(b_counts, dtype=np.int64) - b_counts).astype(np.int32),
        b_counts,
    )
    src = np.repeat(boundary32, b_counts)
    dst = indices32[np.repeat(starts, b_counts) + inner]
    c = cls[dst]
    # Stitched pairs are unique BY CONSTRUCTION — no dedup sort needed:
    # a boundary→shard-hub undirected edge shows up in exactly one
    # boundary row, and a boundary↔boundary edge in exactly two, of
    # which we keep only the src < dst direction.  Each kept directed
    # edge therefore maps to a distinct canonical (min, max) pair.
    keep_pair = (c == 1) | ((c == 2) & (src < dst))
    pair_src = src[keep_pair]
    pair_dst = dst[keep_pair]
    stitched = np.empty((len(pair_src), 2), dtype=np.int64)
    stitched[:, 0] = np.minimum(pair_src, pair_dst)
    stitched[:, 1] = np.maximum(pair_src, pair_dst)
    member_mask = c == 0
    member_dst = dst[member_mask]
    member_isl = island_of[member_dst]
    if len(member_isl) and (member_isl < 0).any():
        bad = int(member_dst[int(np.argmin(member_isl))])
        raise IslandizationError(
            f"boundary edge reaches unclassified node {bad}"
        )
    # (island, hub) attachments DO repeat (one boundary hub, many edges
    # into the same island): sort + neighbour-diff dedup — same result
    # as np.unique, several times cheaper than its hash path here.
    span = np.int64(max(n, 1))
    attach_keys = np.sort(member_isl * span + src[member_mask])
    if len(attach_keys):
        first = np.empty(len(attach_keys), dtype=bool)
        first[0] = True
        np.not_equal(attach_keys[1:], attach_keys[:-1], out=first[1:])
        attach_keys = attach_keys[first]
    # Per island, its adjacent boundary hubs (ascending — the key sort
    # groups by island, then hub) are appended after the shard-local
    # first-contact hubs: the own hubs move to the head of each
    # widened row and the attachments fill the free slots in order.
    hub_offsets = cumsum0(
        islands.num_hubs
        + np.bincount(attach_keys // span, minlength=num_islands)
    )
    own = np.arange(len(islands.hubs), dtype=np.int64) + np.repeat(
        hub_offsets[:-1] - islands.hub_offsets[:-1], islands.num_hubs
    )
    hubs = np.empty(int(hub_offsets[-1]), dtype=np.int64)
    free = np.ones(len(hubs), dtype=bool)
    free[own] = False
    hubs[own] = islands.hubs
    hubs[free] = attach_keys % span
    islands = replace(islands, hub_offsets=hub_offsets, hubs=hubs)

    # Inter-hub map: stitched boundary pairs first (boundary-row
    # traversal order), then every shard's local pairs mapped to global
    # IDs, in part order.  The two sets are disjoint: stitched pairs
    # always touch a boundary node, shard-local pairs never do.
    interhub_parts = [stitched.astype(np.int64)]
    for local_map, res in zip(maps, shard_results):
        if len(res.interhub_edges):
            interhub_parts.append(local_map[res.interhub_edges])
    interhub_edges = (
        np.concatenate(interhub_parts)
        if any(len(p) for p in interhub_parts)
        else np.zeros((0, 2), dtype=np.int64)
    )

    rounds = _merge_rounds(
        graph, config, stats, shard_results,
        boundary_hubs=len(boundary),
        stitched_pairs=len(stitched),
        max_rounds=max_rounds,
    )
    work = _merge_work(shard_results, rounds)
    result = IslandizationResult(
        graph=graph,
        islands=islands,
        hub_ids=hub_ids,
        hub_round=hub_round,
        interhub_edges=interhub_edges,
        rounds=rounds,
        work=work,
    )
    return result


def _merge_rounds(graph, config, stats, shard_results, *,
                  boundary_hubs, stitched_pairs, max_rounds):
    """Synthetic round 0 (partitioning) + per-round sums across shards.

    Additive counters sum; ``threshold`` takes the per-round maximum
    (shards resolve their own quantile TH0, so thresholds differ — the
    maximum is the most conservative single number) and
    ``nodes_remaining`` sums shard populations.
    """
    round0 = RoundStats(
        round_id=0,
        threshold=int(config.initial_threshold(graph.degrees)),
        nodes_remaining=graph.num_nodes,
        hubs_found=int(boundary_hubs),
        islands_found=0,
        nodes_islanded=0,
        tasks_generated=0,
        tasks_dropped_classified=0,
        tasks_dropped_visited=0,
        tasks_dropped_cmax=0,
        interhub_edges_found=int(stitched_pairs),
        adjacency_fetches=int(stats.edges_scanned),
        adjacency_bytes=int(stats.edges_scanned) * _ENTRY_BYTES,
        detect_items=int(stats.detect_items),
    )
    rounds = [round0]
    for round_id in range(1, max_rounds + 1):
        merged = {name: 0 for name in ROUND_FIELDS}
        merged["round_id"] = round_id
        threshold = 0
        for res in shard_results:
            if round_id > len(res.rounds):
                continue
            row = res.rounds[round_id - 1]
            if row.round_id != round_id:
                raise IslandizationError(
                    "shard rounds are not contiguous from 1"
                )
            threshold = max(threshold, row.threshold)
            for name in ROUND_FIELDS:
                if name in ("round_id", "threshold"):
                    continue
                merged[name] += int(getattr(row, name))
        merged["threshold"] = threshold
        rounds.append(RoundStats(**merged))
    return rounds


def _merge_work(shard_results, rounds) -> LocatorWork:
    """Work totals consistent with the merged round table."""
    per_engine = None
    bfs_scans = 0
    for res in shard_results:
        bfs_scans += int(res.work.total_bfs_scans)
        scans = np.asarray(res.work.per_engine_scans, dtype=np.int64)
        per_engine = scans if per_engine is None else per_engine + scans
    if per_engine is None:
        per_engine = np.zeros(0, dtype=np.int64)
    return LocatorWork(
        total_adjacency_fetches=sum(r.adjacency_fetches for r in rounds),
        total_adjacency_bytes=sum(r.adjacency_bytes for r in rounds),
        total_detect_items=sum(r.detect_items for r in rounds),
        total_bfs_scans=bfs_scans,
        per_engine_scans=per_engine,
    )


# ----------------------------------------------------------------------
# Quality accounting
# ----------------------------------------------------------------------
def quality_metrics(result: IslandizationResult) -> dict[str, float | int]:
    """Quantified islandization quality of one result.

    ``classified_edge_ratio`` is the fraction of directed edges covered
    by island tasks (member-member + member-hub) rather than the
    inter-hub map — the locator's whole point is pushing this up, so it
    is the headline quality number partitioning may degrade.
    """
    num_edges = result.graph.num_edges
    pairs = result.interhub_edges
    if len(pairs):
        interhub_directed = int(
            np.where(pairs[:, 0] == pairs[:, 1], 1, 2).sum()
        )
    else:
        interhub_directed = 0
    islanded_nodes = len(result.islands.members)
    return {
        "islands": int(result.num_islands),
        "islanded_nodes": islanded_nodes,
        "hubs": int(result.num_hubs),
        "hub_fraction": float(result.hub_fraction),
        "classified_edge_ratio": (
            float((num_edges - interhub_directed) / num_edges)
            if num_edges else 1.0
        ),
    }
