"""Unit tests for baseline accelerator and platform models."""

from dataclasses import replace

import pytest

from repro.baselines import (
    PLATFORMS,
    AWBGCNAccelerator,
    HyGCNAccelerator,
    PullAccelerator,
    PushAccelerator,
    SigmaAccelerator,
    get_platform,
)
from repro.graph import load_dataset
from repro.hw import IGCN_DEFAULT
from repro.models import build_workload, gcn_model


@pytest.fixture(scope="module")
def small_cora():
    return load_dataset("cora", scale=0.3, seed=3)


@pytest.fixture(scope="module")
def small_model(small_cora):
    return gcn_model(small_cora.num_features, small_cora.num_classes)


def _run(accel, ds, model):
    return accel.run(ds.graph, model, feature_density=ds.feature_density)


class TestPullPush:
    def test_pull_counts_full_workload(self, small_cora, small_model):
        rep = _run(PullAccelerator(IGCN_DEFAULT), small_cora, small_model)
        workload = build_workload(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        assert rep.macs == workload.total_macs

    def test_pull_refetches_when_cache_small(self, small_cora, small_model):
        small = PullAccelerator(IGCN_DEFAULT, feature_cache_bytes=1024)
        rep = _run(small, small_cora, small_model)
        assert rep.meter.reads.get("xw-refetch", 0) > 0

    def test_push_repeats_adjacency_per_channel(self, small_cora, small_model):
        push = _run(PushAccelerator(IGCN_DEFAULT), small_cora, small_model)
        pull = _run(PullAccelerator(IGCN_DEFAULT), small_cora, small_model)
        assert push.meter.reads["adjacency"] > pull.meter.reads["adjacency"]

    def test_push_adjacency_resident_variant(self, small_cora, small_model):
        resident = PushAccelerator(IGCN_DEFAULT, adjacency_resident=True)
        naive = PushAccelerator(IGCN_DEFAULT)
        assert (
            _run(resident, small_cora, small_model).meter.reads["adjacency"]
            < _run(naive, small_cora, small_model).meter.reads["adjacency"]
        )


class TestAWB:
    def test_envelope_matches_paper(self):
        awb = AWBGCNAccelerator()
        assert awb.hw.num_macs == 4096
        assert awb.hw.frequency_hz == pytest.approx(330e6)

    def test_no_pruning(self, small_cora, small_model):
        rep = _run(AWBGCNAccelerator(), small_cora, small_model)
        workload = build_workload(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        assert rep.macs == workload.total_macs

    def test_utilization_sensitivity(self, small_cora, small_model):
        base = AWBGCNAccelerator()
        faster = AWBGCNAccelerator(replace(base.hw, compute_utilization=0.9))
        assert (
            _run(faster, small_cora, small_model).latency_us
            < _run(base, small_cora, small_model).latency_us
        )

    def test_energy_reported(self, small_cora, small_model):
        rep = _run(AWBGCNAccelerator(), small_cora, small_model)
        assert rep.graphs_per_kj > 0


class TestHyGCN:
    def test_aggregation_first_costs_more_macs(self, small_cora, small_model):
        hygcn = _run(HyGCNAccelerator(), small_cora, small_model)
        awb = _run(AWBGCNAccelerator(), small_cora, small_model)
        assert hygcn.macs > awb.macs

    def test_hbm_envelope(self):
        assert HyGCNAccelerator().hw.offchip_bandwidth_bps == pytest.approx(256e9)


class TestSigma:
    def test_densified_intermediate_traffic(self, small_cora, small_model):
        rep = _run(SigmaAccelerator(), small_cora, small_model)
        assert rep.meter.reads.get("intermediate", 0) > 0

    def test_dense_second_gemm_dominates(self, small_cora, small_model):
        rep = _run(SigmaAccelerator(), small_cora, small_model)
        workload = build_workload(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        # Aggregation-first densification >> combination-first MACs.
        assert rep.macs > 2 * workload.total_macs


class TestPlatforms:
    def test_five_platforms(self):
        assert len(PLATFORMS) == 5

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            get_platform("tpu")

    def test_cpu_slower_than_gpu(self, small_cora, small_model):
        cpu = get_platform("pyg-cpu").run(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        gpu = get_platform("pyg-gpu-v100").run(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        assert cpu.latency_us > gpu.latency_us

    def test_overhead_floors_latency(self, small_cora, small_model):
        plat = get_platform("pyg-gpu-v100")
        rep = plat.run(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        assert rep.latency_us >= plat.framework_overhead_s * 1e6

    def test_notes_breakdown(self, small_cora, small_model):
        rep = get_platform("dgl-cpu").run(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        assert "gemm=" in rep.notes

    def test_summary_dict(self, small_cora, small_model):
        rep = get_platform("dgl-cpu").run(
            small_cora.graph, small_model,
            feature_density=small_cora.feature_density,
        )
        assert rep.summary()["platform"] == "dgl-cpu"


class TestCrossModelShape:
    """The paper's headline ordering must hold on the surrogates."""

    @pytest.mark.parametrize("name", ["cora", "citeseer"])
    def test_igcn_beats_awb(self, name):
        from repro.core import IGCNAccelerator

        ds = load_dataset(name)
        model = gcn_model(ds.num_features, ds.num_classes)
        igcn = IGCNAccelerator().run(
            ds.graph, model, feature_density=ds.feature_density
        )
        awb = _run(AWBGCNAccelerator(), ds, model)
        assert awb.latency_us > igcn.latency_us

    def test_igcn_traffic_below_awb(self):
        from repro.core import IGCNAccelerator

        ds = load_dataset("cora")
        model = gcn_model(ds.num_features, ds.num_classes)
        igcn = IGCNAccelerator().run(
            ds.graph, model, feature_density=ds.feature_density
        )
        awb = _run(AWBGCNAccelerator(), ds, model)
        assert igcn.offchip_bytes < awb.offchip_bytes
