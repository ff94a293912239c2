"""Unit tests for the Island Consumer and its sub-plans."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    ConsumerConfig,
    IslandConsumer,
    LocatorConfig,
    build_interhub_plan,
    islandize,
    prepare_tasks,
)
from repro.core.consumer import LayerCounts
from repro.core.consumer_batched import TaskBatch
from repro.core.hub_cache import HubPartialResultCache, HubXWCache
from repro.core.preagg import ScanCounts, group_layout_batch
from repro.errors import ConfigError, SimulationError
from repro.graph import hub_island_graph
from repro.graph.generators import CommunityProfile
from repro.hw import IGCN_DEFAULT, TrafficMeter
from repro.models import LayerSpec, gcn_model, normalization_for


@pytest.fixture
def fig7_setup(fig7):
    graph, members, hubs = fig7
    result = islandize(graph, LocatorConfig(th0=4))
    norm = normalization_for(graph, "gcn-sym")
    tasks = prepare_tasks(result, add_self_loops=True)
    plan = build_interhub_plan(result, add_self_loops=True)
    return graph, result, norm, tasks, plan


class TestConsumerConfig:
    def test_defaults(self):
        c = ConsumerConfig()
        assert c.preagg_k == 6
        assert c.num_pes == 8

    def test_rejects_k1(self):
        with pytest.raises(ConfigError):
            ConsumerConfig(preagg_k=1)


class TestInterhubPlan:
    def test_directed_expansion(self, fig7_setup):
        _, result, _, _, plan = fig7_setup
        canonical = len(result.interhub_edges)
        assert len(plan.directed_edges) == 2 * canonical

    def test_self_loops_for_all_hubs(self, fig7_setup):
        _, result, _, _, plan = fig7_setup
        assert set(plan.self_loop_hubs.tolist()) == set(result.hub_ids.tolist())

    def test_no_self_loops_for_gin(self, fig7_setup):
        _, result, _, _, _ = fig7_setup
        plan = build_interhub_plan(result, add_self_loops=False)
        assert len(plan.self_loop_hubs) == 0

    def test_macs_scale_with_out_dim(self, fig7_setup):
        _, _, _, _, plan = fig7_setup
        assert plan.macs(16) == plan.num_ops * 16

    @staticmethod
    def stack_and_mask(edges):
        """The former expansion: an (E, 2, 2) stack and a boolean mask."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        both = np.stack([edges, edges[:, ::-1]], axis=1)
        emit = np.stack(
            [np.ones(len(edges), dtype=bool), edges[:, 0] != edges[:, 1]],
            axis=1,
        )
        return both[emit]

    @pytest.mark.parametrize("seed", range(4))
    def test_one_pass_expansion_matches_stack_and_mask(self, seed):
        # Random pairs, about a third of them diagonal, and no pairs.
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 50))
        edges = rng.integers(0, 12, (size, 2))
        diag = rng.random(size) < 0.3
        diag[0] = True
        edges[diag, 1] = edges[diag, 0]
        hubs = np.arange(12, dtype=np.int64)
        for case in (edges, np.zeros((0, 2), dtype=np.int64)):
            result = SimpleNamespace(interhub_edges=case, hub_ids=hubs)
            plan = build_interhub_plan(result, add_self_loops=False)
            expected = self.stack_and_mask(case)
            assert plan.directed_edges.dtype == expected.dtype
            assert plan.directed_edges.shape == expected.shape
            assert plan.directed_edges.tobytes() == expected.tobytes()

    def test_bank_counts_cached_per_bank_count(self, fig7_setup):
        _, _, _, _, plan = fig7_setup
        first = plan.target_bank_counts(3)
        assert plan.target_bank_counts(3) is first
        targets, hubs = first
        assert targets.tolist() == np.bincount(
            plan.directed_edges[:, 0] % 3, minlength=3
        ).tolist()
        assert hubs.tolist() == np.bincount(
            plan.self_loop_hubs % 3, minlength=3
        ).tolist()


class TestHubCaches:
    def test_xw_cache_hit_free(self):
        cache = HubXWCache(capacity_bytes=1 << 20, row_bytes=64, num_hubs=10)
        m = TrafficMeter()
        assert cache.access(100, m) == 0.0
        assert m.total_bytes == 0

    def test_xw_cache_spill(self):
        cache = HubXWCache(capacity_bytes=64, row_bytes=64, num_hubs=10)
        m = TrafficMeter()
        cache.access(10, m)
        assert m.reads.get("hub-xw-spill", 0) > 0

    def test_prc_bank_assignment_fixed(self):
        prc = HubPartialResultCache(1 << 20, 64, num_hubs=10, num_banks=4)
        assert prc.home_bank(6) == prc.home_bank(6) == 2

    def test_prc_tracks_imbalance(self):
        prc = HubPartialResultCache(1 << 20, 64, num_hubs=8, num_banks=4)
        m = TrafficMeter()
        for _ in range(9):
            prc.update(0, m)
        assert prc.bank_imbalance > 1.0

    def test_prc_balanced_updates(self):
        prc = HubPartialResultCache(1 << 20, 64, num_hubs=8, num_banks=4)
        m = TrafficMeter()
        for hub in range(8):
            prc.update(hub, m)
        assert prc.bank_imbalance == pytest.approx(1.0)


class TestBatchedHubAttachment:
    """send_many / update_many must count exactly like scalar loops."""

    def test_ring_send_many_matches_sequential(self):
        from repro.hw.ring import RingNetwork

        hubs = [13, 2, 9, 13, 21, 2, 5]  # duplicates reduce in-network
        seq, batch = RingNetwork(8), RingNetwork(8)
        for hub in hubs:
            seq.send(3, hub)
        batch.send_many(3, hubs)
        assert batch.stats == seq.stats

    def test_ring_send_many_respects_in_flight(self):
        from repro.hw.ring import RingNetwork

        seq, batch = RingNetwork(8), RingNetwork(8)
        seq.send(1, 9)
        batch.send(1, 9)
        # Hub 9 is still in flight (no drain): it must reduce again.
        seq.send(1, 9)
        seq.send(1, 4)
        batch.send_many(1, [9, 4])
        assert batch.stats == seq.stats

    def test_prc_update_many_matches_sequential_no_spill(self):
        hubs = [0, 5, 9, 5, 14]
        seq = HubPartialResultCache(1 << 20, 64, num_hubs=16, num_banks=4)
        batch = HubPartialResultCache(1 << 20, 64, num_hubs=16, num_banks=4)
        m1, m2 = TrafficMeter(), TrafficMeter()
        for hub in hubs:
            seq.update(hub, m1)
        batch.update_many(hubs, m2)
        assert batch.bank_updates == seq.bank_updates
        assert batch.updates == seq.updates
        assert m2.reads == m1.reads

    def test_prc_update_many_matches_sequential_spilling(self):
        hubs = [0, 5, 9, 5, 14]
        seq = HubPartialResultCache(64, 64, num_hubs=16, num_banks=4)
        batch = HubPartialResultCache(64, 64, num_hubs=16, num_banks=4)
        m1, m2 = TrafficMeter(), TrafficMeter()
        for hub in hubs:
            seq.update(hub, m1)
        batch.update_many(hubs, m2)
        assert batch.bank_updates == seq.bank_updates
        assert batch.updates == seq.updates
        assert m2.reads == m1.reads

    @pytest.mark.parametrize("capacity", [64, 1 << 20])
    def test_prc_update_banked_matches_update_many(self, capacity):
        hubs = np.asarray([0, 5, 9, 5, 14, 7, 7, 7], dtype=np.int64)
        many = HubPartialResultCache(capacity, 64, num_hubs=16, num_banks=4)
        banked = HubPartialResultCache(capacity, 64, num_hubs=16, num_banks=4)
        m1, m2 = TrafficMeter(), TrafficMeter()
        for part in (hubs[:3], hubs[3:], hubs[:0]):
            spilled = many.update_many(part, m1)
            per_bank = np.bincount(part % 4, minlength=4)
            assert banked.update_banked(per_bank, m2) == spilled
        assert banked.bank_updates == many.bank_updates
        assert banked.updates == many.updates
        assert banked._cache.misses == many._cache.misses
        assert m2.reads == m1.reads
        with pytest.raises(ValueError, match="4 counts"):
            banked.update_banked(np.ones(3, dtype=np.int64), m2)

    def test_ring_send_batches_matches_sequential(self):
        from repro.hw.ring import RingNetwork

        pes, hubs, offsets = [1, 2, 1], [9, 4, 9, 3, 3, 12], [0, 3, 5, 6]
        seq, counted = RingNetwork(8), RingNetwork(8)
        for b, pe in enumerate(pes):
            seq.send_many(pe, hubs[offsets[b]:offsets[b + 1]])
            seq.drain()
        stats = counted.batch_stats(pes, hubs, offsets)
        assert counted.stats.messages_injected == 0  # counting is pure
        hops = counted.send_batches(pes, hubs, offsets, stats)
        assert counted.stats == seq.stats
        assert hops == seq.stats.hops_travelled
        # Updates in flight: the counted stats are ignored and the
        # sequential fallback interacts with the live entry.
        seq.send(1, 9)
        counted.send(1, 9)
        for b, pe in enumerate(pes):
            seq.send_many(pe, hubs[offsets[b]:offsets[b + 1]])
            seq.drain()
        counted.send_batches(pes, hubs, offsets, stats)
        assert counted.stats == seq.stats


class TestLayerCounts:
    def test_pruning_accounting(self):
        counts = LayerCounts(layer_index=0, in_dim=4, out_dim=10)
        counts.scan = ScanCounts(baseline_ops=100, scan_ops=60, preagg_build_ops=5)
        counts.interhub_ops = 10
        assert counts.aggregation_baseline_macs == 110 * 10
        assert counts.aggregation_actual_macs == 75 * 10
        assert counts.aggregation_pruning_rate == pytest.approx(35 / 110)

    def test_totals(self):
        counts = LayerCounts(layer_index=0, in_dim=4, out_dim=2)
        counts.combination_macs = 100
        counts.scale_macs = 10
        counts.scan = ScanCounts(baseline_ops=50, scan_ops=30)
        assert counts.total_macs == 100 + 10 + 60
        assert counts.total_baseline_macs == 100 + 10 + 100


class TestRunLayer:
    def test_counting_mode(self, fig7_setup):
        graph, result, norm, tasks, plan = fig7_setup
        consumer = IslandConsumer(ConsumerConfig(), IGCN_DEFAULT)
        meter = TrafficMeter()
        model = gcn_model(8, 3)
        execution = consumer.run_layer(
            result, tasks, plan, norm, model.layers[0],
            layer_index=0, meter=meter, feature_density=0.5,
        )
        assert execution.output is None
        counts = execution.counts
        assert counts.combination_macs == round(8 * 8 * 0.5) * 16
        assert counts.aggregation_baseline_macs > 0
        assert meter.reads["features"] > 0
        assert meter.writes["results"] > 0

    def test_functional_requires_weights(self, fig7_setup):
        graph, result, norm, tasks, plan = fig7_setup
        consumer = IslandConsumer()
        model = gcn_model(8, 3)
        with pytest.raises(SimulationError):
            consumer.run_layer(
                result, tasks, plan, norm, model.layers[0],
                layer_index=0, meter=TrafficMeter(), x=np.zeros((8, 8)),
            )

    def test_functional_matches_reference_single_layer(self, fig7_setup):
        graph, result, norm, tasks, plan = fig7_setup
        from repro.models import normalized_adjacency

        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 5))
        w = rng.normal(size=(5, 4))
        consumer = IslandConsumer(ConsumerConfig(preagg_k=2), IGCN_DEFAULT)
        layer = LayerSpec(5, 4, activation="relu")
        execution = consumer.run_layer(
            result, tasks, plan, norm, layer,
            layer_index=0, meter=TrafficMeter(), x=x, w=w,
        )
        expected = normalized_adjacency(graph, "gcn-sym") @ (x @ w)
        expected = np.maximum(expected, 0.0)
        assert np.allclose(execution.output, expected)

    def test_hidden_layer_writes_resident_category(self, fig7_setup):
        graph, result, norm, tasks, plan = fig7_setup
        consumer = IslandConsumer()
        meter = TrafficMeter()
        model = gcn_model(8, 3)
        consumer.run_layer(
            result, tasks, plan, norm, model.layers[0],
            layer_index=0, meter=meter, final_layer=False,
        )
        assert "hidden-results" in meter.writes
        assert "results" not in meter.writes


class TestClassificationMemory:
    """A cold window classification holds no per-window class arrays.

    Its ``tracemalloc`` peak stays within three entry-sized arrays, one
    count per window (cell) and a few per-slot arrays of the column
    layout.  Classifying every window, as ``classify_windows`` over all
    cells does, holds at least five cell-sized arrays at once.
    """

    SLACK = 64 * 1024

    @pytest.fixture(scope="class")
    def wide_islands(self):
        # Sparse islands of ~40 members: at k = 2 a batch has about
        # 3.5 windows per entry.
        graph, _ = hub_island_graph(
            3000,
            CommunityProfile(
                hub_fraction=0.02, island_size_mean=40.0, island_size_max=80,
                island_density=0.1, background_fraction=0.0,
            ),
            seed=3,
        )
        clean = graph.without_self_loops()
        return clean, islandize(clean, LocatorConfig())

    @pytest.mark.parametrize("k", [2, 6, 10**6])
    def test_cold_classification_peak(self, wide_islands, k):
        # ``preagg_k`` is unbounded input, so the (z, width) grid is
        # sized by the widest group, never by k: at k = 1e6 a
        # (k + 1)**2 grid would hold 1e12 entries.
        import tracemalloc

        clean, result = wide_islands
        batch = TaskBatch.from_islands(
            clean, result.islands, add_self_loops=True
        )
        entries = int(batch.nnz.sum())
        groups, _, _, _ = group_layout_batch(batch.num_hubs, batch.num_locals, k)
        cells = int((groups * batch.num_locals).sum())
        slots = int(batch.local_offsets[-1])
        # A tracing session already running is measured from its
        # current size and left running.
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            batch.scan_classes(k)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= (3 * entries + cells + 4 * slots) * 8 + self.SLACK


class TestFunctionalMemory:
    """A functional batched layer holds each of its large arrays once."""

    D = 32
    SLACK = 64 * 1024

    @pytest.fixture(scope="class")
    def hub_heavy(self):
        # Two- and three-node islands with eight hubs each: a chunk's
        # hub rows outweigh its scan operand.
        graph, _ = hub_island_graph(
            2000,
            CommunityProfile(
                hub_fraction=0.05, island_size_mean=2.5, island_size_min=2,
                island_size_max=3, island_density=1.0, hub_attach_prob=1.0,
                hubs_per_island=8, background_fraction=0.0,
                interhub_avg_degree=1.0,
            ),
            seed=3,
        )
        clean = graph.without_self_loops()
        result = islandize(clean, LocatorConfig())
        norm = normalization_for(clean, "gcn-sym")
        consumer = IslandConsumer(ConsumerConfig(backend="batched"))
        batch = consumer.prepare(result, add_self_loops=True)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(clean.num_nodes, 8))
        w = rng.normal(size=(8, self.D))
        return result, norm, consumer, batch, x, w

    def _state(self, hub_heavy):
        result, norm, consumer, _, x, w = hub_heavy
        return consumer._layer_setup(
            result, norm, LayerSpec(8, self.D), layer_index=0,
            meter=TrafficMeter(), x=x, w=w, feature_density=1.0,
            functional=True,
        )

    def test_gcn_layer_scales_its_one_xw_in_place(self, hub_heavy):
        _, norm, _, _, x, w = hub_heavy
        state = self._state(hub_heavy)
        assert state.xw is state.xw_scaled
        expected = norm.source_scale[:, None] * (x @ w)
        assert state.xw_scaled.tobytes() == expected.tobytes()

    def test_chunk_peak_holds_its_hub_rows_once(self, hub_heavy):
        import tracemalloc

        from repro.core.consumer_batched import _hub_fold, run_island_chunk

        _, _, consumer, batch, _, _ = hub_heavy
        # The first run builds the batch's cached structures, as a
        # layer before this one would.
        run_island_chunk(consumer, self._state(hub_heavy), batch, TrafficMeter())
        state = self._state(hub_heavy)
        # A tracing session already running (``-X tracemalloc``) is
        # measured from its current size and left running.
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            run_island_chunk(consumer, state, batch, TrafficMeter())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        terms = batch.scan_terms(consumer.config.preagg_k)
        touched = len(np.unique(batch.hub_nodes))
        pairs = len(batch.hub_nodes)
        row_bytes = self.D * 8
        operand = (terms.span + terms.groups.shape[0] + touched) * row_bytes
        hub_rows = (touched + pairs) * row_bytes
        # The pairs' hub positions and the fold's CSR, a few words per
        # hub row, are alive alongside.
        positions = state.hub_pos[batch.hub_nodes]
        _, fold = _hub_fold(positions, pairs)
        fold_bytes = positions.nbytes + sum(
            a.nbytes for a in (fold.data, fold.indices, fold.indptr)
        )
        assert pairs * row_bytes > 10 * self.SLACK
        assert peak <= operand + hub_rows + fold_bytes + self.SLACK

    def test_interhub_stage_stacks_only_hub_rows(self, hub_heavy):
        import tracemalloc

        from repro.core.consumer_batched import run_interhub_batched

        result, norm, _, _, _, _ = hub_heavy
        plan = build_interhub_plan(result, add_self_loops=norm.add_self_loops)
        # The first run caches the plan's bank counts, as layer 1 does.
        run_interhub_batched(self._state(hub_heavy), plan, TrafficMeter())
        state = self._state(hub_heavy)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            run_interhub_batched(state, plan, TrafficMeter())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        edges = plan.directed_edges
        targets = np.concatenate((edges[:, 0], plan.self_loop_hubs))
        sources = np.concatenate((edges[:, 1], plan.self_loop_hubs))
        stacked = len(np.unique(targets)) + len(np.unique(sources))
        # The distinct source rows and the touched accumulators, their
        # stack and the fold's product: never a copy of the scaled XW.
        bound = 2 * stacked * self.D * 8 + self.SLACK
        assert state.xw_scaled.nbytes > bound
        assert peak <= bound
