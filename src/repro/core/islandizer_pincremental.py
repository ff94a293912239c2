"""Shard-local incremental islandization: delta routing for the fleet.

Composes the partitioned locator (``repro.core.islandizer_partitioned``)
with the incremental locator (``repro.core.islandizer_incremental``):
``record_islandization`` under ``partitions > 1`` captures a
:class:`PartitionedIncrementalState` — one per-shard
:class:`~repro.core.islandizer_incremental.IncrementalState` recorded by
the fleet workers alongside their shard runs, plus the partition
assignment that routes later edits — and ``update_islandization``
maintains the merged result by touching only the shards a delta
actually reaches.

Routing (``repro.graph.partition.route_edits``), per effective edit:

* **interior to one shard** — the shard's cached ``(result, state)``
  pair runs through the monolithic dirty-region machinery in the
  coordinator process (states never cross the IPC boundary); clean
  shards splice by reference.
* **boundary-incident** — no shard is dirtied at all: shard subgraphs
  are induced on interiors, so a separator-touching edge only ever
  exists in the reconciliation pass, which re-runs on the mutated
  graph regardless.
* **interior–interior across shards** — forbidden as an existing edge
  by the separator invariant, so it can only be an insertion; both
  endpoints are promoted into the separator and the shards that lost
  them are re-recorded by the fleet on their shrunken interiors.

The partition is **pinned at record time** and only evolves through
those deterministic promotions; the exactness oracle for every update
path is therefore a full fleet re-record against the *same evolved
partition* (:meth:`ShardFleet.rerecord`), and
``IslandizationResult.equals`` holds on every path.  Fallbacks — the
global degree-quantile TH0 moving, or the dirty shard set exceeding
``max_dirty_fraction`` of the fleet — re-record everything with the
reason reported, never silently.  ``partitions == 1`` never reaches
this module: ``record_islandization``/``update_islandization`` only
dispatch here for real fleets, which keeps the single-shard
incremental path bit-identical to the monolithic one.
"""

from __future__ import annotations

import io
import math
import os
import resource
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from repro.core.config import LocatorConfig
from repro.core.islandizer_incremental import (
    IncrementalState,
    record_islandization,
    update_islandization,
)
from repro.core.islandizer_partitioned import _merge
from repro.core.types import IslandizationResult
from repro.errors import ConfigError, IslandizationError
from repro.graph.csr import CSRGraph, GraphDelta
from repro.graph.partition import (
    ROUTE_CROSS,
    ROUTE_INTERIOR,
    PartitionStats,
    _extract_shard,
    partition_graph,
    route_edits,
)
from repro.serialize import read_npz, write_npz

__all__ = [
    "PartitionedIncrementalState",
    "PartitionedIncrementalUpdate",
    "ShardFleet",
    "load_ilstate",
    "record_islandization_partitioned",
    "update_islandization_partitioned",
]


@dataclass(frozen=True)
class PartitionedIncrementalState:
    """Everything a partitioned islandization needs to absorb deltas.

    ``part_of``/``boundary_nodes``/``shard_nodes`` are the evolved
    partition assignment (separator membership is sticky — promotions
    only ever grow it); ``shard_results``/``shard_states`` are each
    shard's cached local-ID run (the result embeds the shard's local
    graph, so updates never re-extract clean shards);
    ``partition_stats`` is frozen at record time — the partitioning
    work happened once and its round-0 accounting must not drift
    between an update and its from-scratch oracle.
    """

    th0: int
    part_of: np.ndarray
    boundary_nodes: np.ndarray
    shard_nodes: tuple[np.ndarray, ...]
    shard_results: tuple[IslandizationResult, ...]
    shard_states: tuple[IncrementalState, ...]
    partition_stats: PartitionStats

    @property
    def num_shards(self) -> int:
        """Size of the fleet this state was recorded for."""
        return len(self.shard_nodes)

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize (byte-identical round-trip via :meth:`from_npz`).

        Per-shard results and states travel as embedded uncompressed
        npz blobs — the same bytes their own ``to_npz`` writes — so the
        pair round-trips through one artifact without a container
        format of its own.
        """
        arrays: dict[str, np.ndarray] = {
            "part_of": self.part_of,
            "boundary_nodes": self.boundary_nodes,
        }
        for i in range(self.num_shards):
            arrays[f"shard{i}_nodes"] = self.shard_nodes[i]
            buf = io.BytesIO()
            self.shard_results[i].to_npz(buf)
            arrays[f"shard{i}_result"] = np.frombuffer(
                buf.getvalue(), dtype=np.uint8
            )
            buf = io.BytesIO()
            self.shard_states[i].to_npz(buf)
            arrays[f"shard{i}_state"] = np.frombuffer(
                buf.getvalue(), dtype=np.uint8
            )
        stats = self.partition_stats
        write_npz(
            file,
            arrays,
            {
                "format": 2,
                "th0": int(self.th0),
                "num_shards": int(self.num_shards),
                "stats": {
                    "strategy": stats.strategy,
                    "num_parts": int(stats.num_parts),
                    "iterations": int(stats.iterations),
                    "final_threshold": int(stats.final_threshold),
                    "detect_items": int(stats.detect_items),
                    "edges_scanned": int(stats.edges_scanned),
                },
            },
        )

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "PartitionedIncrementalState":
        """Restore a state written by :meth:`to_npz`."""
        arrays, meta = read_npz(file)
        return cls._from_arrays(arrays, meta)

    @classmethod
    def _from_arrays(cls, arrays: dict, meta: dict) -> (
        "PartitionedIncrementalState"
    ):
        """Build from already-parsed npz payload (format-dispatch hook)."""
        num = int(meta["num_shards"])
        s = meta["stats"]
        return cls(
            th0=int(meta["th0"]),
            part_of=arrays["part_of"],
            boundary_nodes=arrays["boundary_nodes"],
            shard_nodes=tuple(
                arrays[f"shard{i}_nodes"] for i in range(num)
            ),
            shard_results=tuple(
                IslandizationResult.from_npz(
                    io.BytesIO(arrays[f"shard{i}_result"].tobytes())
                )
                for i in range(num)
            ),
            shard_states=tuple(
                IncrementalState.from_npz(
                    io.BytesIO(arrays[f"shard{i}_state"].tobytes())
                )
                for i in range(num)
            ),
            partition_stats=PartitionStats(
                strategy=str(s["strategy"]),
                num_parts=int(s["num_parts"]),
                iterations=int(s["iterations"]),
                final_threshold=int(s["final_threshold"]),
                detect_items=int(s["detect_items"]),
                edges_scanned=int(s["edges_scanned"]),
            ),
        )


@dataclass(frozen=True)
class PartitionedIncrementalUpdate:
    """What one delta application produced (fleet edition).

    Field-compatible with
    :class:`~repro.core.islandizer_incremental.IncrementalUpdate` — the
    engine and CLI read the shared fields blind — plus ``dirty_shards``:
    the shards that did real work (shard-local update or re-record);
    empty for a no-op delta, the whole fleet on fallback.
    """

    result: IslandizationResult
    state: PartitionedIncrementalState
    fallback: bool
    fallback_reason: str | None
    dirty_nodes: int
    region_nodes: int
    dirty_shards: tuple[int, ...]


def load_ilstate(file: str | IO[bytes]):
    """Load either incremental-state flavour from one ``ilstate`` npz.

    Dispatches on the ``format`` metadata field: ``1`` is the
    monolithic :class:`IncrementalState`, ``2`` the partitioned pair.
    The artifact store's ``ilstate`` kind decodes through this, so one
    cache kind covers both locator modes.
    """
    arrays, meta = read_npz(file)
    fmt = int(meta.get("format", 1))
    if fmt == 1:
        return IncrementalState._from_arrays(arrays, meta)
    if fmt == 2:
        return PartitionedIncrementalState._from_arrays(arrays, meta)
    raise IslandizationError(f"unknown ilstate format {fmt}")


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
def _record_worker(job):
    """Fleet entry point: mmap one shard, record it, ship npz bytes.

    Mirrors ``islandizer_partitioned._shard_worker`` but runs the
    *recording* locator, so the shard's incremental state comes home
    alongside its result — both as serialized bytes (byte-identical
    round-trips, and no memory-mapped arrays in the pickle stream).
    """
    from repro.graph.partition import GraphShard

    path, shard_config = job
    shard = GraphShard.from_npz_mmap(path)
    result, state = record_islandization(shard.graph, shard_config)
    rbuf = io.BytesIO()
    result.to_npz(rbuf)
    sbuf = io.BytesIO()
    state.to_npz(sbuf)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return shard.part_id, rbuf.getvalue(), sbuf.getvalue(), int(rss)


class ShardFleet:
    """A warm worker fleet for a chain of partitioned updates.

    Holds the ``ProcessPoolExecutor`` and the scratch directory for
    shard files open across calls, so a chain of updates pays for pool
    spawn and shard persistence once instead of per delta.  The fleet
    is bound to one :class:`LocatorConfig` (``partitions > 1``); use it
    as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        config: LocatorConfig | None = None,
        *,
        max_workers: int | None = None,
    ) -> None:
        self.config = config or LocatorConfig()
        if self.config.partitions < 2:
            raise ConfigError("ShardFleet requires partitions > 1")
        self.shard_config = replace(self.config, partitions=1)
        self._max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None
        self._scratch: tempfile.TemporaryDirectory | None = None
        self._seq = 0

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and drop the scratch directory."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._scratch is not None:
            self._scratch.cleanup()
            self._scratch = None

    def __enter__(self) -> "ShardFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _pool_get(self) -> ProcessPoolExecutor:
        if self._pool is None:
            workers = self._max_workers or min(
                self.config.partitions, max(1, os.cpu_count() or 1)
            )
            self._pool = ProcessPoolExecutor(max_workers=max(1, workers))
        return self._pool

    def _scratch_dir(self) -> str:
        if self._scratch is None:
            self._scratch = tempfile.TemporaryDirectory(
                prefix="repro-fleet-"
            )
        return self._scratch.name

    def _run_fleet(self, shards) -> dict:
        """Record the given shards in workers; ``{part_id: (res, st)}``."""
        scratch = self._scratch_dir()
        jobs = []
        for shard in shards:
            self._seq += 1
            path = os.path.join(
                scratch, f"shard{shard.part_id}-{self._seq}.npz"
            )
            shard.to_npz(path)
            jobs.append((path, self.shard_config))
        out = {}
        for part_id, rblob, sblob, _rss in self._pool_get().map(
            _record_worker, jobs
        ):
            out[part_id] = (
                IslandizationResult.from_npz(io.BytesIO(rblob)),
                IncrementalState.from_npz(io.BytesIO(sblob)),
            )
        for path, _cfg in jobs:
            os.unlink(path)
        return out

    # -- recording -----------------------------------------------------
    def record(
        self, graph: CSRGraph
    ) -> tuple[IslandizationResult, PartitionedIncrementalState]:
        """Partition, record every shard in the fleet, merge."""
        config = self.config
        if graph.has_self_loops():
            raise IslandizationError(
                "partitioned islandization expects a graph without "
                "self-loops"
            )
        th0 = int(config.initial_threshold(graph.degrees))
        partition = partition_graph(
            graph,
            config.partitions,
            strategy=config.partition_strategy,
            threshold=th0,
            decay=config.decay,
            th_min=config.th_min,
        )
        return self._record_pinned(
            graph,
            th0=th0,
            part_of=partition.part_of,
            boundary_nodes=partition.boundary_nodes,
            shard_nodes=tuple(s.global_nodes for s in partition.shards),
            stats=partition.stats,
            shards=list(partition.shards),
        )

    def rerecord(
        self, graph: CSRGraph, state: PartitionedIncrementalState
    ) -> tuple[IslandizationResult, PartitionedIncrementalState]:
        """Full fleet re-record against ``state``'s pinned partition.

        The from-scratch oracle every update path is equal to, and the
        baseline the benchmark measures updates against: shard
        interiors are re-extracted from ``graph``, every shard is
        re-recorded by the fleet, and the merge re-runs — nothing is
        reused from the cached per-shard runs.

        The pinned partition is evolved first, exactly like
        :meth:`update` evolves it: endpoints of any edge now crossing
        two shard interiors are promoted into the separator.  ``graph``
        may therefore be any mutation of the recorded one, not just a
        delta the caller routed — the scan finds precisely the edges a
        delta-driven promotion would have found, since the recorded
        graph had none.
        """
        part_of, boundary_nodes, shard_nodes = _evolve_pinned(
            graph, state.part_of, state.boundary_nodes, state.shard_nodes
        )
        return self._record_pinned(
            graph,
            th0=int(self.config.initial_threshold(graph.degrees)),
            part_of=part_of,
            boundary_nodes=boundary_nodes,
            shard_nodes=shard_nodes,
            stats=state.partition_stats,
            shards=None,
        )

    def _record_pinned(
        self, graph, *, th0, part_of, boundary_nodes, shard_nodes, stats,
        shards,
    ):
        if shards is None:
            shards = [
                _extract_shard(graph, nodes, p)
                for p, nodes in enumerate(shard_nodes)
            ]
        runs = self._run_fleet(shards)
        num = len(shard_nodes)
        if sorted(runs) != list(range(num)):
            raise IslandizationError("worker fleet lost a shard result")
        results = [runs[p][0] for p in range(num)]
        states = [runs[p][1] for p in range(num)]
        merged = _merge(
            graph, self.config,
            boundary=boundary_nodes,
            maps=list(shard_nodes),
            stats=stats,
            shard_results=results,
        )
        state = PartitionedIncrementalState(
            th0=th0,
            part_of=part_of,
            boundary_nodes=boundary_nodes,
            shard_nodes=tuple(shard_nodes),
            shard_results=tuple(results),
            shard_states=tuple(states),
            partition_stats=stats,
        )
        return merged, state

    # -- updating ------------------------------------------------------
    def update(
        self,
        old_graph: CSRGraph,
        cached: IslandizationResult,
        state: PartitionedIncrementalState,
        delta: GraphDelta,
        *,
        max_dirty_fraction: float = 0.5,
        applied=None,
    ) -> PartitionedIncrementalUpdate:
        """Maintain a partitioned islandization under an edge delta.

        Routes every effective edit to the shards it touches (module
        docstring), re-merges from the per-shard results, and falls
        back to :meth:`rerecord` — reason reported — when the global
        quantile TH0 moves or more than
        ``max(1, floor(max_dirty_fraction * P))`` shards get dirty.
        """
        config = self.config
        if not isinstance(state, PartitionedIncrementalState):
            raise IslandizationError(
                "partitioned update requires a PartitionedIncrementalState"
            )
        if state.num_shards != config.partitions:
            raise IslandizationError(
                f"state has {state.num_shards} shards but the config "
                f"asks for {config.partitions}"
            )
        if applied is None:
            new_graph, ins_eff, del_eff = old_graph.apply_delta(
                delta, with_changes=True
            )
        else:
            new_graph, ins_eff, del_eff = applied
        if len(ins_eff) == 0 and len(del_eff) == 0:
            result = IslandizationResult(
                graph=new_graph,
                islands=cached.islands,
                hub_ids=cached.hub_ids,
                hub_round=cached.hub_round,
                interhub_edges=cached.interhub_edges,
                rounds=cached.rounds,
                work=cached.work,
            )
            return PartitionedIncrementalUpdate(
                result=result, state=state, fallback=False,
                fallback_reason=None, dirty_nodes=0, region_nodes=0,
                dirty_shards=(),
            )

        # --- routing --------------------------------------------------
        n = old_graph.num_nodes
        ins_src, ins_dst = _undirected(ins_eff, n)
        del_src, del_dst = _undirected(del_eff, n)
        part_of = state.part_of
        route_del, shard_del = route_edits(part_of, del_src, del_dst)
        if (route_del == ROUTE_CROSS).any():
            raise IslandizationError(
                "deleted edge crosses shard interiors: the cached "
                "partition does not match this graph"
            )
        route_ins, shard_ins = route_edits(part_of, ins_src, ins_dst)
        boundary_nodes = state.boundary_nodes
        shard_nodes = list(state.shard_nodes)
        rerecord_ids: set[int] = set()
        cross = route_ins == ROUTE_CROSS
        if cross.any():
            # Promote both endpoints of every brand-new cross-shard
            # edge into the separator (sticky, like every separator
            # decision) and re-record the shards whose interiors
            # shrank.  Re-route afterwards: edits at promoted nodes
            # became boundary edits.
            promote = np.unique(
                np.concatenate([ins_src[cross], ins_dst[cross]])
            )
            rerecord_ids = {int(p) for p in np.unique(part_of[promote])}
            part_of = part_of.copy()
            part_of[promote] = -1
            boundary_nodes = np.flatnonzero(part_of < 0)
            for p in rerecord_ids:
                keep = part_of[shard_nodes[p]] == p
                shard_nodes[p] = shard_nodes[p][keep]
            route_ins, shard_ins = route_edits(part_of, ins_src, ins_dst)
            route_del, shard_del = route_edits(part_of, del_src, del_dst)

        # The threshold check runs only after partition evolution: a
        # fallback must re-record against a partition that is a valid
        # vertex separator of the *mutated* graph, which the pinned one
        # is not until cross-shard insert endpoints are promoted.
        th0 = int(config.initial_threshold(new_graph.degrees))
        if th0 != state.th0:
            return self._fallback(
                new_graph, part_of, boundary_nodes, shard_nodes,
                state.partition_stats,
                f"initial threshold moved ({state.th0} -> {th0})",
            )

        touched = np.concatenate([
            shard_ins[route_ins == ROUTE_INTERIOR],
            shard_del[route_del == ROUTE_INTERIOR],
        ])
        update_ids = {int(p) for p in np.unique(touched)} - rerecord_ids
        dirty = sorted(rerecord_ids | update_ids)
        num = config.partitions
        budget = max(1, int(math.floor(max_dirty_fraction * num)))
        if len(dirty) > budget:
            return self._fallback(
                new_graph, part_of, boundary_nodes, shard_nodes,
                state.partition_stats,
                f"dirty shards cover {len(dirty)}/{num} shards",
            )

        # --- shard-local incremental updates (coordinator-side) ------
        new_results = list(state.shard_results)
        new_states = list(state.shard_states)
        dirty_nodes = 0
        region_nodes = 0
        for p in sorted(update_ids):
            nodes = shard_nodes[p]
            sel_i = (route_ins == ROUTE_INTERIOR) & (shard_ins == p)
            sel_d = (route_del == ROUTE_INTERIOR) & (shard_del == p)
            local_delta = GraphDelta(
                insert_src=np.searchsorted(nodes, ins_src[sel_i]),
                insert_dst=np.searchsorted(nodes, ins_dst[sel_i]),
                delete_src=np.searchsorted(nodes, del_src[sel_d]),
                delete_dst=np.searchsorted(nodes, del_dst[sel_d]),
            )
            upd = update_islandization(
                state.shard_results[p].graph,
                state.shard_results[p],
                state.shard_states[p],
                local_delta,
                self.shard_config,
                max_dirty_fraction=max_dirty_fraction,
            )
            new_results[p] = upd.result
            new_states[p] = upd.state
            dirty_nodes += upd.dirty_nodes
            region_nodes += upd.region_nodes

        # --- shrunken-interior re-records (fleet-side) ----------------
        if rerecord_ids:
            runs = self._run_fleet([
                _extract_shard(new_graph, shard_nodes[p], p)
                for p in sorted(rerecord_ids)
            ])
            if sorted(runs) != sorted(rerecord_ids):
                raise IslandizationError(
                    "worker fleet lost a shard result"
                )
            for p in sorted(rerecord_ids):
                new_results[p], new_states[p] = runs[p]
                dirty_nodes += len(shard_nodes[p])
                region_nodes += len(shard_nodes[p])

        # --- re-reconcile from the per-shard results ------------------
        result = _merge(
            new_graph, config,
            boundary=boundary_nodes,
            maps=shard_nodes,
            stats=state.partition_stats,
            shard_results=new_results,
        )
        new_state = PartitionedIncrementalState(
            th0=th0,
            part_of=part_of,
            boundary_nodes=boundary_nodes,
            shard_nodes=tuple(shard_nodes),
            shard_results=tuple(new_results),
            shard_states=tuple(new_states),
            partition_stats=state.partition_stats,
        )
        return PartitionedIncrementalUpdate(
            result=result, state=new_state, fallback=False,
            fallback_reason=None, dirty_nodes=dirty_nodes,
            region_nodes=region_nodes, dirty_shards=tuple(dirty),
        )

    def _fallback(
        self, new_graph, part_of, boundary_nodes, shard_nodes, stats,
        reason,
    ) -> PartitionedIncrementalUpdate:
        result, state = self._record_pinned(
            new_graph,
            th0=int(self.config.initial_threshold(new_graph.degrees)),
            part_of=part_of,
            boundary_nodes=boundary_nodes,
            shard_nodes=tuple(shard_nodes),
            stats=stats,
            shards=None,
        )
        return PartitionedIncrementalUpdate(
            result=result, state=state, fallback=True,
            fallback_reason=reason, dirty_nodes=0, region_nodes=0,
            dirty_shards=tuple(range(len(shard_nodes))),
        )


def _evolve_pinned(
    graph: CSRGraph,
    part_of: np.ndarray,
    boundary_nodes: np.ndarray,
    shard_nodes: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Evolve a pinned partition to stay a separator of ``graph``.

    Scans every edge for interior-interior cross-shard pairs — absent
    by invariant in the graph the partition was pinned on, so any hit
    is a later insertion — and promotes both endpoints into the
    separator, shrinking their shards' interiors.  Returns the arrays
    unchanged (same objects) when the invariant already holds.
    """
    src = np.repeat(
        np.arange(graph.num_nodes, dtype=np.int64), np.diff(graph.indptr)
    )
    dst = graph.indices
    pu, pv = part_of[src], part_of[dst]
    cross = (pu >= 0) & (pv >= 0) & (pu != pv)
    if not cross.any():
        return part_of, boundary_nodes, shard_nodes
    promote = np.unique(np.concatenate([src[cross], dst[cross]]))
    shrunk = {int(p) for p in np.unique(part_of[promote])}
    part_of = part_of.copy()
    part_of[promote] = -1
    boundary_nodes = np.flatnonzero(part_of < 0)
    shard_nodes = tuple(
        nodes[part_of[nodes] == p] if p in shrunk else nodes
        for p, nodes in enumerate(shard_nodes)
    )
    return part_of, boundary_nodes, shard_nodes


def _undirected(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected ``(u, v), u < v`` pairs from directed keys.

    ``apply_delta(..., with_changes=True)`` reports effective changes
    as sorted directed ``u * n + v`` keys, one per direction; routing
    wants each undirected edit once.
    """
    u = keys // n
    v = keys % n
    keep = u < v
    return u[keep], v[keep]


# ----------------------------------------------------------------------
# Transient-fleet wrappers (the dispatch targets)
# ----------------------------------------------------------------------
def record_islandization_partitioned(
    graph: CSRGraph, config: LocatorConfig | None = None
) -> tuple[IslandizationResult, PartitionedIncrementalState]:
    """Record a partitioned islandization with its routing state.

    ``record_islandization`` dispatches here for ``partitions > 1``; a
    transient :class:`ShardFleet` lives for this call only.
    """
    with ShardFleet(config or LocatorConfig()) as transient:
        return transient.record(graph)


def update_islandization_partitioned(
    old_graph: CSRGraph,
    cached: IslandizationResult,
    state: PartitionedIncrementalState,
    delta: GraphDelta,
    config: LocatorConfig | None = None,
    *,
    max_dirty_fraction: float = 0.5,
    applied=None,
) -> PartitionedIncrementalUpdate:
    """Maintain a partitioned islandization under an edge delta.

    ``update_islandization`` dispatches here for ``partitions > 1``; a
    transient :class:`ShardFleet` lives for this call only (see
    :meth:`ShardFleet.update` for the routing contract).
    """
    with ShardFleet(config or LocatorConfig()) as transient:
        return transient.update(
            old_graph, cached, state, delta,
            max_dirty_fraction=max_dirty_fraction, applied=applied,
        )
