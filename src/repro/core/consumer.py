"""The Island Consumer: combination + aggregation over island tasks.

Executes one GraphCONV layer (combination-first, §2.2.1) against an
:class:`IslandizationResult`:

1. **Combination** — ``XW`` per node; hub rows are computed once and
   held in the HUB XW cache.  Source normalisation (``a_u``) is applied
   here so group pre-sums are reusable across targets (see
   ``repro.models.reference``).
2. **Pre-aggregation + window scan** — per island task, the 1×k scan of
   ``repro.core.preagg`` with automatic add-vs-subtract selection.
3. **Hub partials** — hub rows of each island accumulate into DHUB-PRC
   via the ring network; inter-hub push tasks finish the hub sums.
4. **Finalisation** — target normalisation (``b_v``), the GIN self
   term, and the activation.

Both modes share one code path: counting always happens; *functional*
mode additionally carries feature values so the output can be checked
against the scipy reference (losslessness tests).

Two interchangeable implementations execute the island/inter-hub phase,
selected by :class:`~repro.core.config.ConsumerConfig` ``backend``:

* ``"batched"`` (default) — the vectorized multi-island kernels of
  :mod:`repro.core.consumer_batched`, operating on a packed
  :class:`~repro.core.consumer_batched.TaskBatch`;
* ``"scalar"`` — the original per-island Python loop below, kept
  verbatim as the oracle the batched backend is tested against.

The contract is *exact* equality: identical :class:`LayerCounts`
(including every :class:`~repro.core.preagg.ScanCounts` field), DRAM
traffic, ring statistics, DHUB-PRC bank counters, and — in functional
mode — byte-identical output matrices
(``tests/test_consumer_equivalence.py``).  Both backends fix the same
float order: each island row is the left fold of
:mod:`repro.core.preagg` (from ``+0.0``: its full and subtract windows'
group pre-sums in group order, minus its subtract windows' missing
columns, plus its direct windows' present columns, each in column
order), and each hub row folds its island contributions in task order,
then its inter-hub edges, then its self loop.  The combination
``X @ W`` is shared code: a CSR that stores every entry is multiplied
as its zero-copy dense view (:func:`_dense_view`), its MACs count the
input's nonzeros whether it is dense or sparse, and without a self
term the source scale is applied to ``XW`` in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.core.bitmap import IslandTask, build_island_task
from repro.core.config import ConsumerConfig
from repro.core.hub_cache import HubPartialResultCache, HubXWCache
from repro.core.interhub import InterHubPlan
from repro.core.preagg import ScanCounts, scan_aggregate, scan_costs
from repro.core.types import IslandizationResult
from repro.errors import SimulationError
from repro.hw.config import HardwareConfig
from repro.hw.memory import TrafficMeter
from repro.hw.ring import RingNetwork
from repro.models.configs import LayerSpec
from repro.models.reference import NormalizationSpec
from repro.nputil import nonzero_count

__all__ = [
    "LayerCounts",
    "LayerExecution",
    "IslandConsumer",
    "prepare_tasks",
    "execution_mismatch",
]

_BYTES = 4


def prepare_tasks(
    result: IslandizationResult, *, add_self_loops: bool
) -> list[IslandTask]:
    """Build every island's bitmap task (shared across layers).

    This is the scalar backend's representation (one dense bitmap per
    island).  The batched backend packs all islands into one
    :class:`~repro.core.consumer_batched.TaskBatch`; use
    :meth:`IslandConsumer.prepare` to get the representation matching
    the configured backend.
    """
    return [
        build_island_task(result.graph, island, add_self_loops=add_self_loops)
        for island in result.islands
    ]


def _dense_view(x) -> np.ndarray | None:
    """A CSR that stores every entry, as its row-major dense matrix.

    When every row of ``x`` holds columns ``0 .. cols-1`` in order,
    ``x.data`` already is the dense matrix in row-major order, and BLAS
    multiplies that view without a copy.  Any other input returns
    ``None`` and keeps its own product, so an unsorted, duplicated,
    missing or out-of-range index can never be reshaped into a number.
    """
    if not (sparse.issparse(x) and x.format == "csr"):
        return None
    rows, cols = x.shape
    if x.nnz != rows * cols:
        return None
    if not np.array_equal(x.indptr, np.arange(rows + 1) * cols):
        return None
    if not (x.indices.reshape(rows, cols) == np.arange(cols)).all():
        return None
    return x.data.reshape(rows, cols)


@dataclass
class LayerCounts:
    """Operation accounting for one layer pass through the consumer."""

    layer_index: int
    in_dim: int
    out_dim: int
    combination_macs: int = 0
    scale_macs: int = 0
    scan: ScanCounts = field(default_factory=ScanCounts)
    interhub_ops: int = 0        # vector ops (directed edges + hub diagonals)

    @property
    def aggregation_baseline_macs(self) -> int:
        """Per-edge aggregation MACs without islandization."""
        return (self.scan.baseline_ops + self.interhub_ops) * self.out_dim

    @property
    def aggregation_actual_macs(self) -> int:
        """Aggregation MACs after redundancy removal."""
        return (self.scan.total_ops + self.interhub_ops) * self.out_dim

    @property
    def aggregation_pruned_macs(self) -> int:
        """MACs eliminated by shared-neighbour reuse."""
        return self.aggregation_baseline_macs - self.aggregation_actual_macs

    @property
    def aggregation_pruning_rate(self) -> float:
        """Fraction of aggregation work pruned (Figure 10, per layer)."""
        baseline = self.aggregation_baseline_macs
        return self.aggregation_pruned_macs / baseline if baseline else 0.0

    @property
    def total_macs(self) -> int:
        """All MACs this layer actually performs."""
        return self.combination_macs + self.scale_macs + self.aggregation_actual_macs

    @property
    def total_baseline_macs(self) -> int:
        """All MACs a no-reuse dataflow would perform."""
        return self.combination_macs + self.scale_macs + self.aggregation_baseline_macs


@dataclass
class LayerExecution:
    """Result of running one layer."""

    counts: LayerCounts
    output: np.ndarray | None = None
    #: Observability for the backend-equivalence contract: HUB XW cache
    #: reuse accesses and DHUB-PRC update totals / per-bank counters.
    hub_xw_accesses: int = 0
    prc_updates: int = 0
    prc_bank_updates: list[int] = field(default_factory=list)


def execution_mismatch(
    a: LayerExecution,
    a_meter: TrafficMeter,
    b: LayerExecution,
    b_meter: TrafficMeter,
    *,
    functional: bool = False,
) -> str | None:
    """First differing field of one layer's exact-equivalence contract.

    The single definition of what "exact backend equality" means for a
    layer execution — shared by ``tests/test_consumer_equivalence.py``
    and the consumer benchmark's per-tier verification, so the two
    checkers cannot drift.  Returns ``None`` when the layers agree;
    ring statistics live on the consumer and are compared separately.
    """
    if a.counts != b.counts:
        return f"LayerCounts differ: {a.counts} != {b.counts}"
    if a_meter.reads != b_meter.reads:
        return f"meter reads differ: {a_meter.reads} != {b_meter.reads}"
    if a_meter.writes != b_meter.writes:
        return f"meter writes differ: {a_meter.writes} != {b_meter.writes}"
    if a.hub_xw_accesses != b.hub_xw_accesses:
        return (
            f"hub_xw_accesses differ: {a.hub_xw_accesses} != "
            f"{b.hub_xw_accesses}"
        )
    if a.prc_updates != b.prc_updates:
        return f"prc_updates differ: {a.prc_updates} != {b.prc_updates}"
    if a.prc_bank_updates != b.prc_bank_updates:
        return (
            f"prc_bank_updates differ: {a.prc_bank_updates} != "
            f"{b.prc_bank_updates}"
        )
    if functional:
        if a.output is None or b.output is None:
            # Self-diagnosing rather than AttributeError: a backend
            # that returned no output IS a contract violation.
            return (
                f"output missing: scalar={a.output is not None} "
                f"batched={b.output is not None}"
            )
        if a.output.dtype != b.output.dtype:
            return f"output dtypes differ: {a.output.dtype} != {b.output.dtype}"
        if a.output.tobytes() != b.output.tobytes():
            return "output matrices differ bitwise"
    return None


@dataclass
class _LayerState:
    """Everything one layer pass threads between its phases."""

    functional: bool
    counts: LayerCounts
    hub_ids: np.ndarray
    hub_pos: np.ndarray
    xw_cache: HubXWCache
    prc: HubPartialResultCache
    xw: np.ndarray | None
    xw_scaled: np.ndarray | None
    out: np.ndarray | None
    hub_acc: np.ndarray | None


class IslandConsumer:
    """PE-array model evaluating island and inter-hub tasks."""

    def __init__(
        self,
        config: ConsumerConfig | None = None,
        hw: HardwareConfig | None = None,
    ) -> None:
        self.config = config or ConsumerConfig()
        self.hw = hw or HardwareConfig()
        self.ring = RingNetwork(self.config.num_pes)

    # ------------------------------------------------------------------
    def prepare(self, result: IslandizationResult, *, add_self_loops: bool):
        """Task representation of a whole islandization, as one chunk.

        :meth:`prepare_chunk` over every island of ``result``:
        ``"batched"`` → one packed
        :class:`~repro.core.consumer_batched.TaskBatch`; ``"scalar"`` →
        the per-island :func:`prepare_tasks` list.  Either is shared
        across all layers of one inference.
        """
        return self.prepare_chunk(
            result.graph, result.islands, add_self_loops=add_self_loops
        )

    # ------------------------------------------------------------------
    def prepare_chunk(
        self, graph, islands, *, add_self_loops: bool, scratch: dict | None = None
    ):
        """Task representation for one locator round's islands (§3.1.1).

        The streamed pipeline's unit of hand-off: called with each
        :class:`~repro.core.types.RoundOutput`'s islands *while the
        locator is still running later rounds*, so task assembly
        overlaps islandization.  ``"batched"`` → one per-round
        :class:`~repro.core.consumer_batched.TaskBatch` slice;
        ``"scalar"`` → the round's :class:`IslandTask` list.  Task
        packing is island-local, so the round chunks hold exactly the
        tasks :meth:`prepare` builds from the finished result.  ``scratch``
        is an optional dict kept across a run's calls so the batched
        assembly reuses its node-sized lookup maps (see
        :meth:`TaskBatch.from_islands
        <repro.core.consumer_batched.TaskBatch.from_islands>`).
        """
        if self.config.backend == "batched":
            from repro.core.consumer_batched import TaskBatch

            return TaskBatch.from_islands(
                graph, islands, add_self_loops=add_self_loops, scratch=scratch
            )
        return [
            build_island_task(graph, island, add_self_loops=add_self_loops)
            for island in islands
        ]

    # ------------------------------------------------------------------
    def run_layer(
        self,
        result: IslandizationResult,
        tasks,
        interhub: InterHubPlan,
        norm: NormalizationSpec,
        layer: LayerSpec,
        *,
        layer_index: int,
        meter: TrafficMeter,
        x=None,
        w: np.ndarray | None = None,
        feature_density: float = 1.0,
        final_layer: bool = True,
    ) -> LayerExecution:
        """Run one GraphCONV layer over a single task chunk.

        Functional mode when ``x`` and ``w`` are given (returns the
        output matrix); otherwise performance mode (counts only, using
        ``feature_density`` for the input nnz estimate).  ``tasks`` is
        whatever :meth:`prepare` returned for this backend, run as the
        one chunk of :meth:`run_layer_chunked`; a scalar task list
        handed to the batched backend is converted on the fly
        (convenient for tests, but repays the packing cost every call —
        prefer :meth:`prepare`).
        """
        if self.config.backend == "batched":
            from repro.core.consumer_batched import TaskBatch

            if not isinstance(tasks, TaskBatch):
                tasks = TaskBatch.from_tasks(tasks)
        elif not isinstance(tasks, (list, tuple)):
            raise SimulationError(
                "the scalar consumer backend needs the prepare_tasks() "
                f"island-task list, got {type(tasks).__name__}"
            )
        return self.run_layer_chunked(
            result, [tasks], interhub, norm, layer,
            layer_index=layer_index, meter=meter, x=x, w=w,
            feature_density=feature_density, final_layer=final_layer,
        )

    # ------------------------------------------------------------------
    def run_layer_chunked(
        self,
        result: IslandizationResult,
        chunks,
        interhub: InterHubPlan,
        norm: NormalizationSpec,
        layer: LayerSpec,
        *,
        layer_index: int,
        meter: TrafficMeter,
        x=None,
        w: np.ndarray | None = None,
        feature_density: float = 1.0,
        final_layer: bool = True,
        chunk_work: list[int] | None = None,
    ) -> LayerExecution:
        """Run one layer over per-round task chunks (the pipeline path).

        ``chunks`` is the per-round sequence :meth:`prepare_chunk`
        produced (one entry per locator round, empty rounds included).
        Island chunks execute in round order with global task offsets,
        then the inter-hub phase runs once — every counter is additive
        and every per-hub float accumulation keeps its order, so counts,
        traffic, ring/cache statistics and functional outputs are
        byte-identical for any split of the islands into chunks
        (:meth:`run_layer` is the one-chunk case).

        ``chunk_work`` (optional) is filled with one aggregation-MAC
        tally per chunk — the measured per-round work vector the
        streamed latency model feeds to
        :func:`~repro.core.pipeline.pipelined_makespan`.
        """
        functional = x is not None
        if functional and w is None:
            raise SimulationError("functional mode needs both x and w")
        state = self._layer_setup(
            result, norm, layer,
            layer_index=layer_index, meter=meter, x=x, w=w,
            feature_density=feature_density, functional=functional,
        )
        batched = self.config.backend == "batched"
        if batched:
            from repro.core.consumer_batched import (
                run_interhub_batched,
                run_island_chunk,
            )
        task_offset = 0
        for chunk in chunks:
            before = state.counts.scan.total_ops
            if batched:
                run_island_chunk(
                    self, state, chunk, meter, task_offset=task_offset
                )
                task_offset += chunk.num_tasks
            else:
                self._run_scalar_islands(
                    state, chunk, meter, task_offset=task_offset
                )
                task_offset += len(chunk)
            if chunk_work is not None:
                chunk_work.append(
                    (state.counts.scan.total_ops - before) * layer.out_dim
                )
        if batched:
            run_interhub_batched(state, interhub, meter)
        else:
            self._run_scalar_interhub(state, interhub, meter)
        return self._layer_finalize(
            state, norm, layer, meter=meter, final_layer=final_layer
        )

    # ------------------------------------------------------------------
    def _layer_setup(
        self,
        result: IslandizationResult,
        norm: NormalizationSpec,
        layer: LayerSpec,
        *,
        layer_index: int,
        meter: TrafficMeter,
        x,
        w,
        feature_density: float,
        functional: bool,
    ) -> _LayerState:
        """Combination phase + per-layer structures (backend-shared)."""
        n = result.graph.num_nodes
        counts = LayerCounts(
            layer_index=layer_index, in_dim=layer.in_dim, out_dim=layer.out_dim
        )
        hub_ids = result.hub_ids
        # Node id -> row of hub_acc; an O(1) array gather replaces the
        # former per-task Python dict lookups.
        hub_pos = np.full(n, -1, dtype=np.int64)
        hub_pos[hub_ids] = np.arange(len(hub_ids), dtype=np.int64)
        row_bytes = layer.out_dim * _BYTES
        xw_cache = HubXWCache(
            capacity_bytes=self.hw.hub_xw_cache_bytes,
            row_bytes=row_bytes,
            num_hubs=len(hub_ids),
        )
        prc = HubPartialResultCache(
            capacity_bytes=self.hw.hub_prc_bytes,
            row_bytes=row_bytes,
            num_hubs=len(hub_ids),
            num_banks=self.config.num_pes,
        )

        # ---------------- combination ---------------------------------
        if functional:
            dense = _dense_view(x)
            xw = np.asarray((x if dense is None else dense) @ w,
                            dtype=np.float64)
            input_nnz = nonzero_count(x)
        else:
            xw = None
            input_nnz = int(round(n * layer.in_dim * feature_density))
        counts.combination_macs = input_nnz * layer.out_dim

        scale_source = not np.allclose(norm.source_scale, 1.0)
        if scale_source:
            counts.scale_macs += n * layer.out_dim
        xw_scaled = xw
        if functional and scale_source:
            # Only the self term reads the unscaled XW, so without one
            # the product is scaled in place: the layer holds one n x d
            # array.  ``xw * a`` and ``a * xw`` round alike.
            if norm.self_weight == 0.0:
                xw *= norm.source_scale[:, None]
            else:
                xw_scaled = norm.source_scale[:, None] * xw

        # DRAM: features in (once), weights (once).
        if feature_density < 1.0 and layer_index == 0:
            meter.read("features", input_nnz * (_BYTES + _BYTES))
        else:
            meter.read("features", n * layer.in_dim * _BYTES)
        meter.read("weights", layer.in_dim * layer.out_dim * _BYTES)

        out = np.zeros((n, layer.out_dim), dtype=np.float64) if functional else None
        hub_acc = (
            np.zeros((len(hub_ids), layer.out_dim), dtype=np.float64)
            if functional
            else None
        )
        return _LayerState(
            functional=functional, counts=counts, hub_ids=hub_ids,
            hub_pos=hub_pos, xw_cache=xw_cache, prc=prc, xw=xw,
            xw_scaled=xw_scaled, out=out, hub_acc=hub_acc,
        )

    # ------------------------------------------------------------------
    def _run_scalar_islands(
        self,
        state: _LayerState,
        tasks: list[IslandTask],
        meter: TrafficMeter,
        *,
        task_offset: int = 0,
    ) -> None:
        """Island phase of the per-island oracle loop over one chunk.

        ``task_offset`` is the global index of ``tasks[0]``, so a
        per-round chunk keeps the whole-list PE assignment.
        """
        functional = state.functional
        counts = state.counts
        hub_pos = state.hub_pos
        xw_cache, prc = state.xw_cache, state.prc
        xw_scaled, out, hub_acc = state.xw_scaled, state.out, state.hub_acc

        # ---------------- island tasks ---------------------------------
        k = self.config.preagg_k
        for task_idx, task in enumerate(tasks, start=task_offset):
            pe = task_idx % self.config.num_pes
            if functional:
                acc, scan = scan_aggregate(
                    task.bitmap, k, xw_scaled[task.local_nodes],
                    boundary=task.num_hubs,
                )
            else:
                scan = scan_costs(task.bitmap, k, boundary=task.num_hubs)
                acc = None
            counts.scan.merge(scan)
            xw_cache.access(task.num_hubs, meter)
            # Hub attachment, batched: one ring emission, one banked
            # partial-sum batch, and (functionally) one row scatter —
            # hub rows within a task are distinct, so the fancy-indexed
            # += has no collisions.
            if task.num_hubs:
                hub_nodes = task.hub_nodes
                self.ring.send_many(pe, hub_nodes)
                prc.update_many(hub_nodes, meter)
                if functional:
                    positions = hub_pos[hub_nodes]
                    if positions.min() < 0:
                        # The dict this scatter replaced raised KeyError
                        # here; -1 would silently hit the last row.
                        raise SimulationError(
                            f"island task references unknown hub "
                            f"{int(hub_nodes[int(positions.argmin())])}"
                        )
                    hub_acc[positions] += acc[:task.num_hubs]
            if functional:
                members = task.member_nodes
                out[members] = acc[task.num_hubs:]
            self.ring.drain()

    # ------------------------------------------------------------------
    def _run_scalar_interhub(
        self,
        state: _LayerState,
        interhub: InterHubPlan,
        meter: TrafficMeter,
    ) -> None:
        """Inter-hub phase of the oracle loop (after all island chunks)."""
        functional = state.functional
        counts = state.counts
        hub_pos = state.hub_pos
        xw_cache, prc = state.xw_cache, state.prc
        xw_scaled, hub_acc = state.xw_scaled, state.hub_acc

        counts.interhub_ops = interhub.num_ops
        interhub.validate_targets(hub_pos)
        for target, source in interhub.directed_edges.tolist():
            xw_cache.access(1, meter)
            prc.update(target, meter)
            if functional:
                hub_acc[hub_pos[target]] += xw_scaled[source]
        for hub in interhub.self_loop_hubs.tolist():
            prc.update(hub, meter)
            if functional:
                hub_acc[hub_pos[hub]] += xw_scaled[hub]

    # ------------------------------------------------------------------
    def _layer_finalize(
        self,
        state: _LayerState,
        norm: NormalizationSpec,
        layer: LayerSpec,
        *,
        meter: TrafficMeter,
        final_layer: bool,
    ) -> LayerExecution:
        """Target scaling, self term, activation, result write-out."""
        counts, out = state.counts, state.out
        n = len(state.hub_pos)
        scale_target = not np.allclose(norm.target_scale, 1.0)
        if scale_target:
            counts.scale_macs += n * layer.out_dim
        if norm.self_weight != 0.0:
            counts.scale_macs += n * layer.out_dim
        if state.functional:
            if len(state.hub_ids):
                out[state.hub_ids] = state.hub_acc
            if scale_target:
                out *= norm.target_scale[:, None]
            if norm.self_weight != 0.0:
                out += norm.self_weight * state.xw
            if layer.activation == "relu":
                np.maximum(out, 0.0, out=out)

        # Hidden activations are residence-eligible; only the last
        # layer's results must stream to DRAM unconditionally.
        category = "results" if final_layer else "hidden-results"
        meter.write(category, n * layer.out_dim * _BYTES)
        return LayerExecution(
            counts=counts,
            output=out,
            hub_xw_accesses=state.xw_cache.accesses,
            prc_updates=state.prc.updates,
            prc_bank_updates=list(state.prc.bank_updates),
        )
