"""Tests for the unified simulation runtime (registry + engine + sweep)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IGCNReport, LocatorConfig
from repro.errors import SimulationError
from repro.graph import CSRGraph, load_dataset
from repro.models import gcn_model
from repro.report import SUMMARY_FIELDS, BaseReport
from repro.runtime import (
    Engine,
    IGCNSimulator,
    Simulator,
    get_simulator,
    graph_fingerprint,
    simulator_names,
    sweep,
)

ACCELERATORS = ("igcn", "awb", "hygcn", "sigma", "pull", "push")


@pytest.fixture(scope="module")
def small_cora():
    return load_dataset("cora", scale=0.15, seed=3)


@pytest.fixture(scope="module")
def small_model(small_cora):
    return gcn_model(small_cora.num_features, small_cora.num_classes)


class TestRegistry:
    def test_all_platforms_registered(self):
        names = simulator_names()
        for expected in ACCELERATORS + ("pyg-cpu", "dgl-cpu", "pyg-gpu-v100"):
            assert expected in names

    def test_unknown_platform_raises(self):
        with pytest.raises(SimulationError, match="available"):
            get_simulator("tpu-v9")

    def test_aliases_resolve(self):
        assert get_simulator("awb-gcn") is get_simulator("awb")
        assert isinstance(get_simulator("i-gcn"), IGCNSimulator)

    def test_default_instances_are_shared(self):
        assert get_simulator("hygcn") is get_simulator("hygcn")

    def test_kwargs_build_fresh_instance(self):
        custom = get_simulator("igcn", locator=LocatorConfig(c_max=8))
        assert custom is not get_simulator("igcn")
        assert custom.accelerator.locator_config.c_max == 8

    def test_platform_models_reject_config_kwargs(self):
        with pytest.raises(SimulationError, match="no configuration"):
            get_simulator("pyg-cpu", hw=object())

    def test_alias_cannot_shadow_registered_platform(self):
        from repro.runtime import register_simulator

        with pytest.raises(SimulationError, match="collides"):
            register_simulator("mysim", object, aliases=("igcn",))
        with pytest.raises(SimulationError, match="collides"):
            # existing *aliases* are protected too, not just canonical names
            register_simulator("mysim", object, aliases=("i-gcn",))
        # the failed registrations must not have hijacked anything
        assert isinstance(get_simulator("igcn"), IGCNSimulator)
        assert isinstance(get_simulator("i-gcn"), IGCNSimulator)

    def test_explicit_workload_wins(self, small_cora, small_model):
        from repro.models import build_workload

        workload = build_workload(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        report = get_simulator("awb").simulate(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
            workload=workload,
        )
        assert report.macs == workload.total_macs

    def test_simulators_satisfy_protocol(self):
        for name in simulator_names():
            assert isinstance(get_simulator(name), Simulator)

    @pytest.mark.parametrize("name", simulator_names())
    def test_every_platform_simulates(self, name, small_cora, small_model):
        report = get_simulator(name).simulate(
            small_cora.graph,
            small_model,
            feature_density=small_cora.feature_density,
        )
        assert isinstance(report, BaseReport)
        assert report.latency_us > 0

    @pytest.mark.parametrize("name", simulator_names())
    def test_unified_summary_schema(self, name, small_cora, small_model):
        report = get_simulator(name).simulate(
            small_cora.graph,
            small_model,
            feature_density=small_cora.feature_density,
        )
        assert set(SUMMARY_FIELDS) <= set(report.summary())
        assert list(report.base_summary()) == list(SUMMARY_FIELDS)


class TestEngineCaching:
    def test_dataset_cache(self):
        engine = Engine()
        a = engine.dataset("cora", scale=0.1, seed=3)
        b = engine.dataset("cora", scale=0.1, seed=3)
        assert a is b
        stats = engine.cache_stats()["dataset"]
        assert (stats.hits, stats.misses) == (1, 1)
        assert engine.dataset("cora", scale=0.1, seed=4) is not a

    def test_islandization_computed_once_across_models(self, small_cora):
        engine = Engine()
        for variant in ("algo", "hy"):
            model = gcn_model(
                small_cora.num_features, small_cora.num_classes, variant=variant
            )
            report = engine.simulate("igcn", small_cora, model)
            assert isinstance(report, IGCNReport)
        stats = engine.cache_stats()["islandization"]
        assert stats.misses == 1
        assert stats.hits == 1

    def test_islandization_keyed_by_locator_config(self, small_cora):
        engine = Engine()
        default = engine.islandization(small_cora.graph)
        again = engine.islandization(small_cora.graph)
        small = engine.islandization(small_cora.graph, LocatorConfig(c_max=8))
        assert again is default
        assert small is not default

    def test_self_loops_share_the_clean_islandization(self):
        from repro.core import islandize

        graph = load_dataset("cora", scale=0.2).graph
        looped = graph.with_self_loops()
        assert looped.nnz > graph.nnz
        engine = Engine()
        first = engine.islandization(looped)
        assert engine.islandization(graph) is first
        assert first.equals(islandize(graph))
        stats = engine.cache_stats()["islandization"]
        assert (stats.hits, stats.misses) == (1, 1)

    def test_workload_shared_across_baselines(self, small_cora, small_model):
        engine = Engine()
        engine.simulate("awb", small_cora, small_model)
        engine.simulate("hygcn", small_cora, small_model)
        stats = engine.cache_stats()["workload"]
        assert stats.misses == 1
        assert stats.hits == 1

    def test_report_cache_returns_same_object(self, small_cora, small_model):
        engine = Engine()
        a = engine.simulate("sigma", small_cora, small_model)
        b = engine.simulate("sigma", small_cora, small_model)
        assert a is b

    def test_clear_resets(self, small_cora):
        engine = Engine()
        view = engine.cache_stats()  # held before clear: must stay live
        engine.islandization(small_cora.graph)
        engine.clear()
        assert engine.cache_stats()["islandization"].total == 0
        engine.islandization(small_cora.graph)
        assert view["islandization"].misses == 1

    def test_task_chunks_reused_across_models(self, small_cora, monkeypatch):
        import gc
        import weakref

        from repro.core import IslandConsumer
        from repro.models import build_model

        made = []
        assemble = IslandConsumer.prepare_chunk

        def recording(self, *args, **kwargs):
            chunk = assemble(self, *args, **kwargs)
            made.append(weakref.ref(chunk))
            return chunk

        monkeypatch.setattr(IslandConsumer, "prepare_chunk", recording)
        engine = Engine()
        view = engine.cache_stats()
        for family in ("gcn", "graphsage", "gin"):
            model = build_model(
                family, small_cora.num_features, small_cora.num_classes
            )
            engine.simulate("igcn", small_cora, model)
        # graphsage reuses gcn's A+I chunks; gin (over A) derives its
        # chunks from them by dropping the member diagonal.
        assert (view["tasks"].hits, view["tasks"].misses) == (2, 1)
        assert made
        engine.clear()
        assert view["tasks"].total == 0
        gc.collect()
        assert all(ref() is None for ref in made)

    def test_engine_locator_config_governs_igcn(self, small_cora, small_model):
        from repro.core import IGCNAccelerator

        custom = LocatorConfig(c_max=4)
        via_engine = Engine(locator=custom).simulate("igcn", small_cora, small_model)
        direct = IGCNAccelerator(locator=custom).run(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        assert (
            via_engine.islandization.num_islands == direct.islandization.num_islands
        )
        assert via_engine.total_cycles == direct.total_cycles
        # An explicitly configured simulator still wins over the engine.
        explicit = get_simulator("igcn", locator=LocatorConfig(c_max=64))
        report = explicit.simulate(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
            engine=Engine(locator=custom),
        )
        assert report.islandization.num_islands != direct.islandization.num_islands

    def test_raw_graph_requires_model(self, small_cora):
        with pytest.raises(SimulationError, match="model"):
            Engine().simulate("igcn", small_cora.graph)

    def test_fingerprint_distinguishes_structure(self, small_cora):
        clean = small_cora.graph.without_self_loops()
        perm = clean.permute(np.random.default_rng(0).permutation(clean.num_nodes))
        assert graph_fingerprint(perm) != graph_fingerprint(clean)

    def test_fingerprint_cached_per_instance(self, small_cora):
        graph = small_cora.graph
        first = graph_fingerprint(graph)
        assert graph.__dict__.get("_fingerprint") == first
        assert graph_fingerprint(graph) is first  # served from the instance


class TestSweep:
    DATASETS = ("cora", "citeseer")
    PLATFORMS = ("igcn", "awb")

    def test_each_islandization_computed_once(self):
        engine = Engine()
        rows = engine.sweep(
            self.DATASETS,
            self.PLATFORMS,
            models=("gcn", "gcn:hy"),
            scale=0.15,
            seed=3,
        )
        assert len(rows) == len(self.DATASETS) * 2 * len(self.PLATFORMS)
        stats = engine.cache_stats()["islandization"]
        assert stats.misses == len(self.DATASETS)
        assert stats.hits == len(self.DATASETS)  # second model variant reuses

    def test_five_datasets_two_platforms_islandize_once_each(self):
        # The acceptance sweep: every dataset's islandization is
        # computed exactly once even though two platforms consume it.
        datasets = ("cora", "citeseer", "pubmed", "nell", "reddit")
        engine = Engine()
        rows = engine.sweep(datasets, ("igcn", "awb"), scale=0.02, seed=3)
        assert len(rows) == len(datasets) * 2
        stats = engine.cache_stats()["islandization"]
        assert stats.misses == len(datasets)

    def test_rows_are_deterministically_ordered(self):
        rows = Engine().sweep(
            self.DATASETS, self.PLATFORMS, scale=0.15, seed=3
        )
        assert [(r["graph"], r["platform"]) for r in rows] == [
            ("cora", "igcn"),
            ("cora", "awb-gcn"),
            ("citeseer", "igcn"),
            ("citeseer", "awb-gcn"),
        ]

    def test_parallel_equals_serial(self):
        serial_engine, parallel_engine = Engine(), Engine()
        serial = serial_engine.sweep(
            self.DATASETS, self.PLATFORMS, scale=0.15, seed=3
        )
        parallel = parallel_engine.sweep(
            self.DATASETS, self.PLATFORMS, scale=0.15, seed=3, parallel=2
        )
        assert parallel == serial
        # Worker task-memo counters fold back like the store kinds.
        tasks = [e.cache_stats()["tasks"] for e in (serial_engine, parallel_engine)]
        assert [(t.hits, t.misses) for t in tasks] == [(0, 2), (0, 2)]

    def test_unified_schema_rows(self):
        rows = Engine().sweep(("cora",), ("igcn", "pyg-cpu"), scale=0.15, seed=3)
        for row in rows:
            assert list(row) == list(SUMMARY_FIELDS)
        # platform models carry no energy model -> graphs_per_kj is None
        assert rows[0]["graphs_per_kj"] is not None
        assert rows[1]["graphs_per_kj"] is None

    def test_module_level_convenience(self):
        rows = sweep(("cora",), ("awb",), scale=0.15, seed=3)
        assert len(rows) == 1 and rows[0]["platform"] == "awb-gcn"

    def test_unknown_platform_rejected_upfront(self):
        with pytest.raises(SimulationError):
            Engine().sweep(("cora",), ("igcn", "nope"), scale=0.15)

    def test_variant_suffix_rejected_for_gin(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="variant"):
            Engine().sweep(("cora",), ("igcn",), models=("gin:hy",), scale=0.15)

    def test_negative_parallel_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="positive worker count"):
            Engine().sweep(("cora",), ("igcn",), scale=0.15, parallel=-1)

    def test_worker_death_does_not_lose_the_sweep(self, monkeypatch):
        # A SIGKILLed pool worker (the OOM killer's signature) breaks
        # the whole ProcessPoolExecutor.  The sweep must recover: the
        # lost units re-run serially, the rows come back identical, and
        # the degradation is on the record.
        serial = Engine().sweep(self.DATASETS, self.PLATFORMS,
                                scale=0.15, seed=3)
        monkeypatch.setenv("_REPRO_KILL_SWEEP_WORKER", "citeseer")
        engine = Engine()
        rows = engine.sweep(self.DATASETS, self.PLATFORMS,
                            scale=0.15, seed=3, parallel=2)
        assert rows == serial
        assert len(engine.degradations) == 1
        event = engine.degradations[0]
        assert event["event"] == "broken_process_pool"
        assert 1 <= event["lost_units"] <= event["total_units"] == 2

    def test_healthy_sweep_records_no_degradation(self):
        engine = Engine()
        engine.sweep(("cora",), ("igcn",), scale=0.15, seed=3, parallel=2)
        assert engine.degradations == []


class TestDegenerateGraphs:
    """0-node and 0-edge graphs must simulate cleanly on every platform."""

    @pytest.mark.parametrize("num_nodes", [0, 7])
    @pytest.mark.parametrize("name", simulator_names())
    def test_edgeless_graphs(self, name, num_nodes):
        graph = CSRGraph.empty(num_nodes, name=f"empty{num_nodes}")
        model = gcn_model(4, 2)
        report = get_simulator(name).simulate(graph, model)
        assert report.latency_us >= 0
        assert report.offchip_bytes >= 0
        assert set(SUMMARY_FIELDS) <= set(report.summary())
