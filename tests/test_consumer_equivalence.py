"""Batched-vs-scalar consumer backend equivalence.

The batched consumer's contract is *exact* equality with the scalar
per-island oracle: identical :class:`LayerCounts` (every
:class:`ScanCounts` field included), DRAM traffic meters, ring
statistics, HUB-XW-cache access counts, DHUB-PRC update totals and
per-bank counters — and, in functional mode, byte-identical output
matrices.  These tests pin that contract across graph families,
normalisation kinds (self-loops on/off), ``preagg_k`` × ``num_pes``
sweeps, spilling on-chip caches (per-call byte rounding), degenerate
0-island / 0-hub / single-node graphs, and a hypothesis sweep over
random graphs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConsumerConfig,
    IslandConsumer,
    LocatorConfig,
    TaskBatch,
    build_interhub_plan,
    islandize,
    prepare_tasks,
)
from repro.core.bitmap import build_island_task
from repro.core.consumer import execution_mismatch
from repro.core.interhub import InterHubPlan
from repro.core.preagg import (
    ScanCounts,
    _window_classes,
    group_layout,
    scan_costs,
)
from repro.core.types import IslandTable
from repro.errors import ConfigError, GraphError, SimulationError
from repro.graph import CSRGraph, GraphBuilder, erdos_renyi, hub_island_graph
from repro.graph.generators import CommunityProfile, barabasi_albert
from repro.hw import IGCN_DEFAULT, TrafficMeter
from repro.hw.config import HardwareConfig
from repro.hw.ring import RingNetwork
from repro.models import LayerSpec, normalization_for

_LAYERS = (
    LayerSpec(12, 16, activation="relu"),
    LayerSpec(16, 5, activation="none"),
)

#: Every public array of a :class:`TaskBatch`.
_BATCH_ARRAYS = (
    "num_hubs", "num_locals", "local_nodes", "local_offsets", "hub_nodes",
    "hub_offsets", "entry_task", "entry_row", "entry_col", "nnz",
)


def _run_backend(
    graph,
    result,
    backend,
    *,
    agg="gcn-sym",
    preagg_k=6,
    num_pes=8,
    functional=False,
    hw=None,
    seed=0,
    layers=_LAYERS,
):
    """One full multi-layer pass; returns everything the contract pins."""
    norm = normalization_for(graph, agg)
    plan = build_interhub_plan(result, add_self_loops=norm.add_self_loops)
    consumer = IslandConsumer(
        ConsumerConfig(preagg_k=preagg_k, num_pes=num_pes, backend=backend),
        hw or IGCN_DEFAULT,
    )
    tasks = consumer.prepare(result, add_self_loops=norm.add_self_loops)
    rng = np.random.default_rng(seed)
    current = (
        rng.normal(size=(graph.num_nodes, layers[0].in_dim))
        if functional else None
    )
    weights = (
        [rng.normal(size=(layer.in_dim, layer.out_dim)) for layer in layers]
        if functional else None
    )
    runs = []
    for idx, layer in enumerate(layers):
        meter = TrafficMeter()
        execution = consumer.run_layer(
            result, tasks, plan, norm, layer,
            layer_index=idx, meter=meter,
            x=current if functional else None,
            w=weights[idx] if functional else None,
            feature_density=0.5 if idx == 0 else 1.0,
            final_layer=idx == len(layers) - 1,
        )
        runs.append((execution, meter))
        if functional:
            current = execution.output
    return runs, consumer.ring.stats


def assert_equivalent(graph, *, locator_kwargs=None, **kwargs):
    """Both backends must agree exactly, counts and functional mode."""
    clean = graph.without_self_loops()
    result = islandize(clean, LocatorConfig(**(locator_kwargs or {})))
    for functional in (False, True):
        scalar, s_ring = _run_backend(
            clean, result, "scalar", functional=functional, **kwargs
        )
        batched, b_ring = _run_backend(
            clean, result, "batched", functional=functional, **kwargs
        )
        assert s_ring == b_ring
        for (s_exec, s_meter), (b_exec, b_meter) in zip(scalar, batched):
            # One shared contract definition with the benchmark's
            # per-tier verification (repro.core.consumer).
            mismatch = execution_mismatch(
                s_exec, s_meter, b_exec, b_meter, functional=functional
            )
            assert mismatch is None, mismatch


class TestGraphFamilies:
    @pytest.mark.parametrize("seed", range(3))
    def test_hub_island(self, seed):
        graph, _ = hub_island_graph(
            300,
            CommunityProfile(hub_fraction=0.04, background_fraction=0.03),
            seed=seed,
        )
        assert_equivalent(graph)

    @pytest.mark.parametrize("seed", range(2))
    def test_erdos_renyi(self, seed):
        assert_equivalent(erdos_renyi(200, 4.0, seed=seed))

    def test_power_law(self):
        # Heavy hubs: many islands attach to the same hub, exercising
        # the ordered multi-contribution fold into DHUB-PRC rows.
        assert_equivalent(barabasi_albert(250, 3, seed=1))

    def test_fig7(self, fig7):
        graph, _, _ = fig7
        assert_equivalent(graph, locator_kwargs={"th0": 4})

    def test_clique_small_cmax(self):
        assert_equivalent(
            GraphBuilder(30).add_clique(range(30)).build(),
            locator_kwargs={"c_max": 6},
        )


class TestNormalisationKinds:
    """Self-loop handling differs per aggregation: all must agree."""

    @pytest.mark.parametrize("agg", ["gcn-sym", "sage-mean", "gin-sum"])
    def test_aggregations(self, agg, community_graph):
        graph, _ = community_graph
        assert_equivalent(graph, agg=agg)


class TestConfigSweep:
    @pytest.mark.parametrize("preagg_k", [2, 3, 7, 64, 10**6])
    def test_preagg_widths(self, preagg_k, community_graph):
        graph, _ = community_graph
        assert_equivalent(graph, preagg_k=preagg_k)

    @pytest.mark.parametrize("num_pes", [1, 3, 8, 17])
    def test_pe_counts(self, num_pes, community_graph):
        graph, _ = community_graph
        assert_equivalent(graph, num_pes=num_pes)

    def test_small_cmax_many_islands(self, community_graph):
        graph, _ = community_graph
        assert_equivalent(graph, locator_kwargs={"c_max": 3})


def _hot_hub_graph(num_islands: int) -> CSRGraph:
    """One hub node feeding ``num_islands`` two-node islands.

    Every island task contributes to the same hub row, so the ordered
    hub fold sees a single segment with ``num_islands`` ranks — the
    pathological shape that used to cost one Python-level scatter per
    rank.
    """
    builder = GraphBuilder(1 + 2 * num_islands)
    for i in range(num_islands):
        a, b = 1 + 2 * i, 2 + 2 * i
        builder.add_edge(a, b)
        builder.add_edge(0, a)
    return builder.build()


class TestHotHubFold:
    """Single hot hub touching thousands of islands."""

    def test_single_hot_hub_thousands_of_islands(self):
        assert_equivalent(_hot_hub_graph(1200), locator_kwargs={"th0": 8})

    def test_fold_is_exact_and_single_pass(self):
        # One hub with thousands of ranks folds in one sparse product
        # per call while reproducing the scalar left fold bit for bit.
        from types import SimpleNamespace
        from unittest import mock

        from scipy import sparse

        import repro.core.consumer_batched as consumer_batched

        rng = np.random.default_rng(3)
        ranks, channels = 5000, 8
        contrib = rng.normal(size=(ranks, channels))
        positions = np.zeros(ranks, dtype=np.int64)
        start = rng.normal(size=(1, channels))
        expected = start[0].copy()
        for row in contrib:
            expected = expected + row
        state = SimpleNamespace(
            hub_ids=np.array([7]), hub_acc=start.copy()
        )
        products = {"n": 0}
        real_matmul = sparse.csr_matrix.__matmul__

        def counting_matmul(self, other):
            products["n"] += 1
            return real_matmul(self, other)

        with mock.patch.object(sparse.csr_matrix, "__matmul__",
                               counting_matmul):
            consumer_batched._ordered_hub_fold(state, positions, contrib)
        assert products["n"] == 1
        np.testing.assert_array_equal(state.hub_acc[0], expected)


class TestSignedZerosAndCancellation:
    """Operands whose sums only one fold order reproduces bit for bit."""

    def test_scalar_and_batched_stay_byte_identical(
        self, monkeypatch, community_graph
    ):
        # -0.0 rows test the +0.0 seed of every fold; rows that cancel
        # their neighbour exactly, next to 1e16 and 1.0, make any other
        # term order change the result.
        graph, _ = community_graph
        rng = np.random.default_rng(11)
        xw = rng.choice([1e16, -1e16, 1.0, -1.0, 0.5],
                        size=(graph.num_nodes, 4))
        xw[0::3] = -0.0
        xw[2::3] = -xw[1::3][:len(xw[2::3])]
        real_setup = IslandConsumer._layer_setup

        def crafted(self, *args, **kwargs):
            state = real_setup(self, *args, **kwargs)
            state.xw_scaled = xw
            return state

        monkeypatch.setattr(IslandConsumer, "_layer_setup", crafted)
        assert_equivalent(
            graph, layers=(LayerSpec(4, 4, activation="none"),)
        )


class TestSpillingCaches:
    """Undersized on-chip caches: per-call spill rounding must match."""

    def test_spilling_hub_structures(self, community_graph):
        graph, _ = community_graph
        tiny = HardwareConfig(hub_xw_cache_bytes=96, hub_prc_bytes=128)
        assert_equivalent(graph, hw=tiny)

    def test_spilling_star(self, star):
        tiny = HardwareConfig(hub_xw_cache_bytes=16, hub_prc_bytes=16)
        assert_equivalent(graph=star, hw=tiny, locator_kwargs={"th0": 3})


class TestSharedRoutingCaches:
    """One set of batched chunks and one plan serve every layer and config.

    The batch caches its ring and DHUB-PRC routing per (task offset,
    num_pes) and the plan its target bank counts per bank count, so
    the second layer and the second config read cached counters; each
    must still equal the scalar loop, layer by layer.
    """

    def test_layers_and_configs_match_scalar(self, community_graph, monkeypatch):
        graph, _ = community_graph
        clean = graph.without_self_loops()
        result = islandize(clean, LocatorConfig(c_max=8))
        norm = normalization_for(clean, "gcn-sym")
        tiny = HardwareConfig(hub_xw_cache_bytes=96, hub_prc_bytes=128)
        rounds = list(result.iter_rounds())
        batched_prep = IslandConsumer(ConsumerConfig(backend="batched"))
        chunks = [
            batched_prep.prepare_chunk(clean, r.islands, add_self_loops=True)
            for r in rounds
        ]
        plan = build_interhub_plan(result, add_self_loops=True)
        routed = []
        real_stats = RingNetwork.batch_stats

        def counting_stats(ring, *args):
            routed.append(ring.num_pes)
            return real_stats(ring, *args)

        monkeypatch.setattr(RingNetwork, "batch_stats", counting_stats)
        for num_pes in (8, 5):
            runs = {}
            for backend in ("scalar", "batched"):
                consumer = IslandConsumer(
                    ConsumerConfig(num_pes=num_pes, backend=backend), tiny
                )
                if backend == "scalar":
                    layer_chunks = [
                        consumer.prepare_chunk(clean, r.islands, add_self_loops=True)
                        for r in rounds
                    ]
                    layer_plan = build_interhub_plan(result, add_self_loops=True)
                else:
                    layer_chunks, layer_plan = chunks, plan
                per_layer = []
                for idx, layer in enumerate(_LAYERS):
                    meter = TrafficMeter()
                    execution = consumer.run_layer_chunked(
                        result, layer_chunks, layer_plan, norm, layer,
                        layer_index=idx, meter=meter,
                    )
                    per_layer.append((
                        execution.counts, execution.prc_updates,
                        execution.prc_bank_updates, meter.reads, meter.writes,
                        dataclasses.replace(consumer.ring.stats),
                    ))
                runs[backend] = per_layer
            assert runs["batched"] == runs["scalar"]
        assert runs["batched"][0][3].get("dhub-prc-spill", 0) > 0
        # Each non-empty chunk was routed once per config, not per layer.
        busy = sum(1 for chunk in chunks if chunk.num_tasks)
        assert routed == [8] * busy + [5] * busy
        assert sorted(plan._bank_cache) == [5, 8]


class TestDegenerateGraphs:
    def test_zero_nodes(self):
        assert_equivalent(CSRGraph.empty(0))

    def test_isolated_nodes_no_hubs(self):
        # Singleton islands, zero hubs, zero inter-hub edges.
        assert_equivalent(CSRGraph.empty(6))

    def test_single_node(self):
        assert_equivalent(CSRGraph.empty(1))

    def test_star_single_hub(self, star):
        assert_equivalent(star, locator_kwargs={"th0": 3})

    def test_path(self, path4):
        assert_equivalent(path4)

    def test_two_node_components(self):
        builder = GraphBuilder(10)
        for i in range(0, 10, 2):
            builder.add_edge(i, i + 1)
        assert_equivalent(builder.build())


class TestBackendConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            ConsumerConfig(backend="simd")

    def test_default_backend_is_batched(self):
        assert ConsumerConfig().backend == "batched"
        assert IslandConsumer().config.backend == "batched"

    def test_backend_is_part_of_config_digest(self):
        # Cached artifacts keyed by config digest must never mix
        # backends (shared artifact stores across processes).
        from repro.serialize import config_digest

        assert config_digest(ConsumerConfig(backend="batched")) != (
            config_digest(ConsumerConfig(backend="scalar"))
        )

    def test_prepare_returns_backend_representation(self, community_graph):
        graph, _ = community_graph
        result = islandize(graph.without_self_loops())
        batch = IslandConsumer(ConsumerConfig(backend="batched")).prepare(
            result, add_self_loops=True
        )
        assert isinstance(batch, TaskBatch)
        tasks = IslandConsumer(ConsumerConfig(backend="scalar")).prepare(
            result, add_self_loops=True
        )
        assert isinstance(tasks, list)

    def test_scalar_backend_rejects_task_batch(self, community_graph):
        graph, _ = community_graph
        clean = graph.without_self_loops()
        result = islandize(clean)
        norm = normalization_for(clean, "gcn-sym")
        plan = build_interhub_plan(result, add_self_loops=True)
        batch = IslandConsumer(ConsumerConfig(backend="batched")).prepare(
            result, add_self_loops=True
        )
        consumer = IslandConsumer(ConsumerConfig(backend="scalar"))
        with pytest.raises(SimulationError):
            consumer.run_layer(
                result, batch, plan, norm, _LAYERS[0],
                layer_index=0, meter=TrafficMeter(),
            )

    def test_batched_backend_accepts_task_list(self, community_graph):
        # Convenience conversion: a prepare_tasks() list fed to the
        # batched backend is packed on the fly and must still match.
        graph, _ = community_graph
        clean = graph.without_self_loops()
        result = islandize(clean)
        norm = normalization_for(clean, "gcn-sym")
        plan = build_interhub_plan(result, add_self_loops=True)
        tasks = prepare_tasks(result, add_self_loops=True)
        runs = {}
        for backend in ("scalar", "batched"):
            consumer = IslandConsumer(ConsumerConfig(backend=backend))
            execution = consumer.run_layer(
                result, tasks, plan, norm, _LAYERS[0],
                layer_index=0, meter=TrafficMeter(),
            )
            runs[backend] = (execution, consumer.ring.stats)
        assert runs["scalar"][0].counts == runs["batched"][0].counts
        assert runs["scalar"][1] == runs["batched"][1]

    def test_task_batch_matches_prepare_tasks(self, community_graph):
        """prepare packs exactly the bitmaps prepare_tasks builds."""
        graph, _ = community_graph
        result = islandize(graph.without_self_loops())
        consumer = IslandConsumer(ConsumerConfig(backend="batched"))
        for add_self_loops in (False, True):
            tasks = prepare_tasks(result, add_self_loops=add_self_loops)
            batch = consumer.prepare(result, add_self_loops=add_self_loops)
            ref = TaskBatch.from_tasks(tasks)
            assert batch.num_tasks == len(tasks)
            for name in _BATCH_ARRAYS:
                assert np.array_equal(
                    getattr(batch, name), getattr(ref, name)
                ), name
            assert np.array_equal(
                batch.nnz, np.asarray([t.nnz for t in tasks], dtype=np.int64)
            )


def _entry_graph(family: str, num_nodes: int, seed: int) -> CSRGraph:
    """A loop-free Erdős–Rényi or hub-island graph."""
    if family == "er":
        graph = erdos_renyi(num_nodes, 4.0, seed=seed)
    else:
        graph, _ = hub_island_graph(
            num_nodes,
            CommunityProfile(hub_fraction=0.05, background_fraction=0.02),
            seed=seed,
        )
    return graph.without_self_loops()


#: Window widths checked against the oracles: narrow, the default and
#: wider than it.
_TERM_KS = (2, 3, 6, 11)


def _scalar_counts(tasks, k: int) -> ScanCounts:
    """The scalar consumer's merged window counts of dense bitmaps."""
    counts = ScanCounts()
    for task in tasks:
        counts.merge(scan_costs(task.bitmap, k, boundary=task.num_hubs))
    return counts


def _term_oracle(tasks, k: int, span: int):
    """Each local row's signed terms, in ``preagg``'s fold order.

    Pre-sums of full and subtract windows in group order (column
    ``span`` plus the batch's flat group), the missing columns of
    subtract windows, then the present columns of direct windows, both
    in column order, as global node ids.  Built from each dense bitmap
    with the scalar oracle's ``group_layout`` and ``_window_classes``.
    Returns the ``(indices, data)`` of every member row and of every
    hub row, task-major.
    """
    rows = {"members": [], "hubs": []}
    group_base = 0
    for task in tasks:
        bitmap = task.bitmap.astype(bool)
        starts, widths = group_layout(
            task.num_locals, k, boundary=task.num_hubs
        )
        _, full, subtract, direct, _ = _window_classes(bitmap, starts, widths)
        col_group = np.repeat(np.arange(len(starts)), widths)
        for r in range(task.num_locals):
            pre = span + group_base + np.flatnonzero(full[r] | subtract[r])
            missing = task.local_nodes[
                np.flatnonzero(subtract[r, col_group] & ~bitmap[r])
            ]
            present = task.local_nodes[
                np.flatnonzero(direct[r, col_group] & bitmap[r])
            ]
            signs = np.repeat([1.0, -1.0, 1.0],
                              [len(pre), len(missing), len(present)])
            kind = "hubs" if r < task.num_hubs else "members"
            rows[kind].append(
                (np.concatenate((pre, missing, present)), signs)
            )
        group_base += len(starts)
    return rows["members"], rows["hubs"]


def _assert_terms(batch, tasks, k: int) -> None:
    """``scan_terms`` rows equal the oracle's, entry for entry.

    Member rows are compared with ``terms.members``, hub rows with
    ``terms.hubs`` after its one seed row per touched hub.
    """
    terms = batch.scan_terms(k)
    members, hubs = _term_oracle(tasks, k, terms.span)
    seeds = len(np.unique(batch.hub_nodes))
    for matrix, rows, skip in ((terms.members, members, 0),
                               (terms.hubs, hubs, seeds)):
        assert matrix.shape[0] == skip + len(rows)
        for i, (indices, data) in enumerate(rows, start=skip):
            lo, hi = matrix.indptr[i], matrix.indptr[i + 1]
            assert np.array_equal(matrix.indices[lo:hi], indices), (k, i)
            assert matrix.data[lo:hi].tobytes() == data.tobytes(), (k, i)


def _layer_counts(result, batch, add_self_loops: bool):
    """Counts, meter and ring statistics of two counting layers."""
    clean = result.graph
    norm = normalization_for(clean, "gcn-sym" if add_self_loops else "gin-sum")
    plan = build_interhub_plan(result, add_self_loops=add_self_loops)
    consumer = IslandConsumer(ConsumerConfig(num_pes=5, backend="batched"))
    runs = []
    for idx, layer in enumerate(_LAYERS):
        meter = TrafficMeter()
        execution = consumer.run_layer(
            result, batch, plan, norm, layer, layer_index=idx, meter=meter,
            final_layer=idx == len(_LAYERS) - 1,
        )
        runs.append((execution.counts, meter.reads, meter.writes,
                     execution.hub_xw_accesses, execution.prc_updates,
                     execution.prc_bank_updates))
    return runs, consumer.ring.stats


class TestTaskBatchEntries:
    """Entries in assembly order, sorted on first read, no dedup.

    ``from_islands`` keeps its bitmap entries in the order it builds
    them and counts windows from that order; the first read of
    ``entry_task/row/col`` sorts them.  ``with_self_loops`` derives the
    other self-loop variant.  Each must equal a fresh, sorted assembly,
    and its window counts and scan terms the scalar oracle's.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(["er", "hub"]),
        num_nodes=st.integers(min_value=4, max_value=250),
        seed=st.integers(min_value=0, max_value=2**16),
        c_max=st.sampled_from([1, 3, 16, 600]),
        add_self_loops=st.booleans(),
    )
    def test_entries_classes_and_derived_variants(
        self, family, num_nodes, seed, c_max, add_self_loops
    ):
        clean = _entry_graph(family, num_nodes, seed)
        result = islandize(clean, LocatorConfig(c_max=c_max))

        def fresh(loops):
            return TaskBatch.from_islands(
                clean, result.islands, add_self_loops=loops
            )

        # Window counts taken in assembly order equal those taken after
        # the first sorted read and the scalar oracle's, and the scan
        # terms follow the oracle's fold order.
        tasks = {
            loops: [build_island_task(clean, island, add_self_loops=loops)
                    for island in result.islands]
            for loops in (False, True)
        }
        for k in _TERM_KS:
            unsorted, read = fresh(add_self_loops), fresh(add_self_loops)
            counts = unsorted.scan_classes(k)
            read.entry_task
            assert counts == read.scan_classes(k)
            assert counts == _scalar_counts(tasks[add_self_loops], k)
            if read.num_tasks:
                _assert_terms(read, tasks[add_self_loops], k)

        # The sorted entries equal each island's dense bitmap, offset
        # by task.
        batch = fresh(add_self_loops)
        parts = [(np.zeros(0, dtype=np.int64),) * 3]
        for task, island_task in enumerate(tasks[add_self_loops]):
            rows, cols = np.nonzero(island_task.bitmap)
            parts.append((np.full(len(rows), task), rows, cols))
        for name, oracle in zip(("entry_task", "entry_row", "entry_col"),
                                zip(*parts)):
            got = getattr(batch, name)
            assert got.dtype == np.int64, name
            assert np.array_equal(got, np.concatenate(oracle)), name
        assert np.array_equal(
            batch.nnz,
            np.bincount(batch.entry_task, minlength=batch.num_tasks),
        )

        # Both directions, from an unsorted and from a sorted batch.
        ring = RingNetwork(5)
        expected = fresh(not add_self_loops)
        expected_layers = _layer_counts(result, expected, not add_self_loops)
        for sort_first in (False, True):
            base = fresh(add_self_loops)
            if sort_first:
                base.entry_task
            derived = base.with_self_loops(not add_self_loops)
            assert derived.self_loops is (not add_self_loops)
            assert base.with_self_loops(add_self_loops) is base
            assert derived.routing(ring, 3) is base.routing(ring, 3)
            reference = fresh(not add_self_loops)
            for k in _TERM_KS:
                assert derived.scan_classes(k) == reference.scan_classes(k)
                if derived.num_tasks:
                    _assert_terms(derived, tasks[not add_self_loops], k)
            ours, theirs = derived.routing(ring, 3), reference.routing(ring, 3)
            assert ours.ring == theirs.ring
            assert np.array_equal(ours.pes, theirs.pes)
            assert np.array_equal(ours.prc_banks, theirs.prc_banks)
            assert _layer_counts(result, derived, not add_self_loops) == (
                expected_layers
            )
            for name in _BATCH_ARRAYS:
                got, want = getattr(derived, name), getattr(expected, name)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name

    def test_self_loop_graph_is_rejected(self, community_graph):
        graph, _ = community_graph
        clean = graph.without_self_loops()
        result = islandize(clean)
        with pytest.raises(SimulationError, match="self-loops"):
            TaskBatch.from_islands(
                clean.with_self_loops(), result.islands, add_self_loops=True
            )

    def test_duplicate_row_entry_is_rejected(self):
        # Row 0 lists node 1 twice.
        graph = CSRGraph(
            indptr=np.array([0, 2, 3, 3]), indices=np.array([1, 1, 0])
        )
        with pytest.raises(GraphError, match="duplicate"):
            TaskBatch.from_islands(
                graph, IslandTable.from_arrays(0, [[0, 1]], [[]]),
                add_self_loops=False,
            )

    @pytest.mark.parametrize("islands", [
        IslandTable.from_arrays(0, [[0, 1, 0]], [[]]),
        IslandTable.from_arrays(0, [[0, 1], [2, 1]], [[], []]),
    ], ids=["one-island", "two-islands"])
    def test_member_listed_twice_is_rejected(self, islands):
        graph = GraphBuilder(3).add_edge(0, 1).add_edge(1, 2).build()
        scratch: dict = {}
        with pytest.raises(SimulationError, match="member twice"):
            TaskBatch.from_islands(
                graph, islands, add_self_loops=True, scratch=scratch
            )
        # The scratch maps are left clean for the next call.
        assert (scratch["member_task"] == -1).all()
        assert (scratch["member_local"] == -1).all()

    def test_assembly_order_is_dropped_on_first_read(self, community_graph):
        import gc
        import weakref

        graph, _ = community_graph
        clean = graph.without_self_loops()
        result = islandize(clean)
        batch = TaskBatch.from_islands(
            clean, result.islands, add_self_loops=True
        )
        batch.scan_classes(6)
        # The batch's only copy of its entries, in assembly order.
        held = [weakref.ref(array) for array in batch._entries]
        sorted_task = batch.entry_task
        gc.collect()
        assert all(ref() is None for ref in held)
        assert batch.entry_task is sorted_task

    def test_bitmap_batch_has_no_self_loop_mode(self, community_graph):
        graph, _ = community_graph
        result = islandize(graph.without_self_loops())
        batch = TaskBatch.from_tasks(prepare_tasks(result, add_self_loops=True))
        with pytest.raises(SimulationError, match="self-loop mode"):
            batch.with_self_loops(False)


class TestInterhubValidation:
    """The malformed-plan check must fire in counts mode too (PR fix)."""

    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    def test_counts_mode_rejects_non_hub_target(
        self, backend, community_graph
    ):
        graph, _ = community_graph
        clean = graph.without_self_loops()
        result = islandize(clean)
        norm = normalization_for(clean, "gcn-sym")
        member = int(result.islands[0].members[0])
        hub = int(result.hub_ids[0])
        bad = InterHubPlan(
            directed_edges=np.asarray([[member, hub]], dtype=np.int64),
            self_loop_hubs=np.zeros(0, dtype=np.int64),
        )
        consumer = IslandConsumer(ConsumerConfig(backend=backend))
        tasks = consumer.prepare(result, add_self_loops=True)
        with pytest.raises(SimulationError, match="outside hub_ids"):
            consumer.run_layer(
                result, tasks, bad, norm, _LAYERS[0],
                layer_index=0, meter=TrafficMeter(),
            )

    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    @pytest.mark.parametrize("bogus", [-1, 10_000_000])
    def test_rejects_out_of_range_target(
        self, backend, bogus, community_graph
    ):
        # Negative ids must not wrap through Python indexing (hub_pos[-1]
        # is the last node, which may legitimately be a hub) and huge
        # ids must raise the clean error, not IndexError.
        graph, _ = community_graph
        clean = graph.without_self_loops()
        result = islandize(clean)
        norm = normalization_for(clean, "gcn-sym")
        hub = int(result.hub_ids[0])
        bad = InterHubPlan(
            directed_edges=np.asarray([[bogus, hub]], dtype=np.int64),
            self_loop_hubs=np.zeros(0, dtype=np.int64),
        )
        consumer = IslandConsumer(ConsumerConfig(backend=backend))
        tasks = consumer.prepare(result, add_self_loops=True)
        with pytest.raises(SimulationError, match="outside hub_ids"):
            consumer.run_layer(
                result, tasks, bad, norm, _LAYERS[0],
                layer_index=0, meter=TrafficMeter(),
            )

    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    def test_counts_mode_rejects_non_hub_self_loop(
        self, backend, community_graph
    ):
        graph, _ = community_graph
        clean = graph.without_self_loops()
        result = islandize(clean)
        norm = normalization_for(clean, "gcn-sym")
        member = int(result.islands[0].members[0])
        bad = InterHubPlan(
            directed_edges=np.zeros((0, 2), dtype=np.int64),
            self_loop_hubs=np.asarray([member], dtype=np.int64),
        )
        consumer = IslandConsumer(ConsumerConfig(backend=backend))
        tasks = consumer.prepare(result, add_self_loops=True)
        with pytest.raises(SimulationError, match="outside hub_ids"):
            consumer.run_layer(
                result, tasks, bad, norm, _LAYERS[0],
                layer_index=0, meter=TrafficMeter(),
            )


@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=60),
    num_edges=st.integers(min_value=0, max_value=220),
    c_max=st.integers(min_value=1, max_value=80),
    preagg_k=st.sampled_from([2, 3, 6, 11]),
    num_pes=st.sampled_from([1, 4, 8]),
    edge_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_graphs_property(
    num_nodes, num_edges, c_max, preagg_k, num_pes, edge_seed
):
    """Hypothesis sweep: arbitrary symmetric graphs and configs agree."""
    rng = np.random.default_rng(edge_seed)
    rows = rng.integers(0, num_nodes, size=num_edges)
    cols = rng.integers(0, num_nodes, size=num_edges)
    keep = rows != cols
    graph = CSRGraph.from_edges(num_nodes, rows[keep], cols[keep], name="hyp")
    assert_equivalent(
        graph,
        locator_kwargs={"c_max": c_max},
        preagg_k=preagg_k,
        num_pes=num_pes,
    )
