"""Unit tests for the top-level I-GCN accelerator and pipeline model."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import ConsumerConfig, IGCNAccelerator, LocatorConfig
from repro.core.consumer import _dense_view
from repro.core.pipeline import pipelined_makespan
from repro.errors import SimulationError
from repro.models import (
    FUNCTIONAL_RTOL,
    gcn_model,
    gin_model,
    graphsage_model,
    init_weights,
    reference_forward,
    relative_error,
)


class TestPipelineMakespan:
    def test_consumer_bound(self):
        # Work released early: makespan = total work.
        assert pipelined_makespan([0.0, 1.0], [10.0, 10.0]) == 20.0

    def test_locator_bound(self):
        # Work released late: makespan = last release + its work.
        assert pipelined_makespan([100.0, 200.0], [1.0, 1.0]) == 201.0

    def test_empty(self):
        assert pipelined_makespan([], []) == 0.0

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            pipelined_makespan([0.0], [1.0, 2.0])

    def test_rejects_decreasing_releases(self):
        with pytest.raises(ValueError):
            pipelined_makespan([5.0, 1.0], [1.0, 1.0])

    def test_mixed_case(self):
        # Release 0: 5 work; release 8: 2 work -> max(0+7, 8+2) = 10.
        assert pipelined_makespan([0.0, 8.0], [5.0, 2.0]) == 10.0


class TestFunctionalEquivalence:
    """The islandized schedule must be numerically lossless."""

    @pytest.mark.parametrize("family,kwargs", [
        ("gcn", {}),
        ("sage", {}),
        ("gin", {}),
    ])
    def test_matches_reference(self, tiny_cora, family, kwargs):
        builders = {
            "gcn": gcn_model,
            "sage": graphsage_model,
            "gin": gin_model,
        }
        model = builders[family](tiny_cora.num_features, tiny_cora.num_classes)
        weights = init_weights(model, seed=9)
        acc = IGCNAccelerator()
        report = acc.run(
            tiny_cora.graph, model,
            features=tiny_cora.features, weights=weights, functional=True,
            feature_density=tiny_cora.feature_density,
        )
        reference = reference_forward(
            tiny_cora.graph.without_self_loops(), model,
            tiny_cora.features, weights,
        )
        assert np.allclose(report.outputs, reference, atol=1e-9)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_lossless_for_any_k(self, tiny_cora, k):
        model = gcn_model(tiny_cora.num_features, tiny_cora.num_classes)
        weights = init_weights(model, seed=2)
        acc = IGCNAccelerator(consumer=ConsumerConfig(preagg_k=k))
        report = acc.run(
            tiny_cora.graph, model,
            features=tiny_cora.features, weights=weights, functional=True,
            feature_density=tiny_cora.feature_density,
        )
        reference = reference_forward(
            tiny_cora.graph.without_self_loops(), model,
            tiny_cora.features, weights,
        )
        assert np.allclose(report.outputs, reference, atol=1e-9)

    @pytest.mark.parametrize("backend", ["batched", "scalar"])
    def test_full_csr_runs_as_its_dense_array(self, community_graph, backend):
        # A CSR that stores every entry is multiplied through a
        # zero-copy view of its data: bitwise the ndarray's product.
        graph, _ = community_graph
        dense = np.random.default_rng(4).normal(size=(graph.num_nodes, 12))
        full = sparse.csr_matrix(dense)
        assert np.shares_memory(_dense_view(full), full.data)
        model = gcn_model(12, 4)
        weights = init_weights(model, seed=3)
        acc = IGCNAccelerator(consumer=ConsumerConfig(backend=backend))
        outputs = [
            acc.run(graph, model, features=features, weights=weights,
                    functional=True).outputs
            for features in (full, dense)
        ]
        assert outputs[0].tobytes() == outputs[1].tobytes()

    @pytest.mark.parametrize("backend", ["batched", "scalar"])
    def test_stored_zeros_count_as_the_dense_twin(self, community_graph, backend):
        # Combination MACs count nonzeros, not stored entries.  Integer
        # features and dyadic weights make XW exact in any summation
        # order, so the sparse and dense products agree bit for bit.
        graph, _ = community_graph
        rng = np.random.default_rng(6)
        n, m = graph.num_nodes, 12
        stored = rng.random((n, m)) < 0.6
        values = rng.integers(-2, 3, size=(n, m)).astype(np.float64) * stored
        rows, cols = np.nonzero(stored)
        features = sparse.csr_matrix(
            (values[rows, cols], cols, np.searchsorted(rows, np.arange(n + 1))),
            shape=(n, m),
        )
        dense = features.toarray()
        assert features.nnz > np.count_nonzero(dense) > 0
        model = gcn_model(m, 4)
        weights = [
            rng.integers(-8, 9, size=(layer.in_dim, layer.out_dim)) / 8.0
            for layer in model.layers
        ]
        acc = IGCNAccelerator(consumer=ConsumerConfig(backend=backend))
        sparse_run, dense_run = (
            acc.run(graph, model, features=x, weights=weights, functional=True)
            for x in (features, dense)
        )
        assert sparse_run.layers == dense_run.layers
        assert sparse_run.layers[0].combination_macs == (
            np.count_nonzero(dense) * model.layers[0].out_dim
        )
        assert sparse_run.outputs.tobytes() == dense_run.outputs.tobytes()

    @pytest.mark.parametrize("defect", ["unsorted", "duplicate"])
    def test_full_count_noncanonical_csr_stays_sparse(
        self, community_graph, defect
    ):
        # As many entries as a dense matrix, but not its row-major
        # layout: reshaping the data would misplace values.
        graph, _ = community_graph
        n, m = graph.num_nodes, 12
        dense = np.random.default_rng(5).normal(size=(n, m))
        indices = np.tile(np.arange(m), n)
        data = dense.ravel()
        if defect == "unsorted":
            indices = np.tile(np.arange(m)[::-1], n)
            data = dense[:, ::-1].ravel()
        else:
            indices[1] = 0  # row 0 holds column 0 twice, column 1 never
        features = sparse.csr_matrix(
            (data, indices, np.arange(n + 1) * m), shape=(n, m)
        )
        assert features.nnz == n * m
        assert _dense_view(features) is None
        model = gcn_model(m, 4)
        weights = init_weights(model, seed=3)
        report = IGCNAccelerator().run(
            graph, model, features=features, weights=weights, functional=True,
        )
        reference = reference_forward(
            graph.without_self_loops(), model, features, weights,
        )
        assert relative_error(report.outputs, reference) <= FUNCTIONAL_RTOL

    def test_full_count_csr_with_an_out_of_range_column_is_not_reshaped(self):
        # Sorted, duplicate-free rows with every entry counted, but the
        # last index lies outside the matrix: its value has no dense slot.
        # Only the view is checked; scipy's own product would read past
        # the operand.
        n, m = 3, 4
        indices = np.tile(np.arange(m), n)
        indices[-1] = m
        features = sparse.csr_matrix(
            (np.ones(n * m), indices, np.arange(n + 1) * m), shape=(n, m)
        )
        assert features.has_canonical_format and features.nnz == n * m
        assert _dense_view(features) is None

    def test_functional_needs_features(self, tiny_cora):
        model = gcn_model(tiny_cora.num_features, tiny_cora.num_classes)
        with pytest.raises(SimulationError):
            IGCNAccelerator().run(tiny_cora.graph, model, functional=True)


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.graph import load_dataset

        ds = load_dataset("cora", scale=0.2, seed=3)
        model = gcn_model(ds.num_features, ds.num_classes)
        return IGCNAccelerator().run(
            ds.graph, model, feature_density=ds.feature_density
        )

    def test_pruning_rates_in_unit_interval(self, report):
        assert 0.0 <= report.aggregation_pruning_rate < 1.0
        assert 0.0 <= report.overall_pruning_rate < report.aggregation_pruning_rate + 1e-9

    def test_actual_macs_below_baseline(self, report):
        assert report.total_macs <= report.total_baseline_macs

    def test_latency_positive(self, report):
        assert report.latency_us > 0
        assert report.total_cycles >= report.consumer_cycles

    def test_energy_consistent(self, report):
        assert report.graphs_per_kj == pytest.approx(
            1000.0 / report.energy.total_j
        )

    def test_traffic_categories(self, report):
        breakdown = report.meter.breakdown()
        assert "features" in breakdown
        assert "adjacency" in breakdown
        assert "results" in breakdown

    def test_summary_keys(self, report):
        s = report.summary()
        assert {"graph", "latency_us", "prune_agg", "rounds"} <= set(s)

    def test_islandize_shortcut(self):
        from repro.graph import load_dataset

        ds = load_dataset("cora", scale=0.1, seed=3)
        res = IGCNAccelerator().islandize(ds.graph)
        res.validate()

    def test_precomputed_islandization_reused(self):
        from repro.graph import load_dataset

        ds = load_dataset("cora", scale=0.1, seed=3)
        acc = IGCNAccelerator()
        isl = acc.islandize(ds.graph)
        model = gcn_model(ds.num_features, ds.num_classes)
        rep = acc.run(
            ds.graph, model, feature_density=ds.feature_density,
            islandization=isl,
        )
        assert rep.islandization is isl


class TestAblationKnobs:
    def test_wider_k_changes_pruning(self, tiny_cora):
        model = gcn_model(tiny_cora.num_features, tiny_cora.num_classes)
        rates = []
        for k in (2, 6):
            acc = IGCNAccelerator(consumer=ConsumerConfig(preagg_k=k))
            rep = acc.run(
                tiny_cora.graph, model,
                feature_density=tiny_cora.feature_density,
            )
            rates.append(rep.aggregation_pruning_rate)
        assert rates[0] != rates[1]

    def test_cmax_one_degrades_pruning(self, tiny_cora):
        model = gcn_model(tiny_cora.num_features, tiny_cora.num_classes)
        small = IGCNAccelerator(locator=LocatorConfig(c_max=1)).run(
            tiny_cora.graph, model, feature_density=tiny_cora.feature_density
        )
        normal = IGCNAccelerator().run(
            tiny_cora.graph, model, feature_density=tiny_cora.feature_density
        )
        assert small.aggregation_pruning_rate <= normal.aggregation_pruning_rate


class TestDegenerateGraphs:
    """Zero-round inputs must not break the latency pipeline model."""

    @pytest.mark.parametrize("num_nodes", [0, 3])
    def test_edgeless_graph_simulates_cleanly(self, num_nodes):
        from repro.graph import CSRGraph

        graph = CSRGraph.empty(num_nodes, name="degenerate")
        model = gcn_model(4, 2)
        report = IGCNAccelerator().run(graph, model)
        # 0 nodes means zero locator rounds: no locator work, and the
        # total is just the consumer plus the pipeline fill.
        if num_nodes == 0:
            assert report.islandization.num_rounds == 0
            assert report.locator_cycles == 0.0
            assert report.total_cycles == pytest.approx(
                report.consumer_cycles + 64.0
            )
            assert report.total_macs == 0
        else:
            # Isolated nodes become singleton islands; the GCN's A+I
            # self-loop still aggregates each node with itself.
            assert report.islandization.num_islands == num_nodes
            assert report.total_macs > 0
        assert np.isfinite(report.latency_us)
        assert report.summary()["macs"] == report.total_macs
