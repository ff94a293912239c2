"""Unit tests for the hardware models: config, memory, energy, area,
ring."""

import pytest

from repro.errors import ConfigError
from repro.hw import (
    AreaModel,
    CacheModel,
    HardwareConfig,
    IGCN_DEFAULT,
    RingNetwork,
    TrafficMeter,
    estimate_energy,
)
from repro.hw.memory import effective_offchip_bytes


class TestHardwareConfig:
    def test_default_envelope_matches_paper(self):
        assert IGCN_DEFAULT.num_macs == 4096
        assert IGCN_DEFAULT.frequency_hz == pytest.approx(330e6)

    def test_bytes_per_cycle(self):
        hw = HardwareConfig(offchip_bandwidth_bps=330e6 * 100, frequency_hz=330e6)
        assert hw.bytes_per_cycle == pytest.approx(100)

    def test_macs_per_cycle(self):
        hw = HardwareConfig(num_macs=100, compute_utilization=0.5)
        assert 1000 / hw.macs_per_cycle == pytest.approx(20.0)

    def test_cycles_to_us(self):
        assert IGCN_DEFAULT.cycles_to_us(330) == pytest.approx(1.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            HardwareConfig(num_macs=0)
        with pytest.raises(ConfigError):
            HardwareConfig(compute_utilization=1.5)


class TestTrafficMeter:
    def test_read_write_accumulate(self):
        m = TrafficMeter()
        m.read("features", 100)
        m.read("features", 50)
        m.write("results", 30)
        assert m.total_read_bytes == 150
        assert m.total_write_bytes == 30
        assert m.total_bytes == 180

    def test_breakdown_sorted(self):
        m = TrafficMeter()
        m.read("a", 10)
        m.read("b", 100)
        assert list(m.breakdown()) == ["b", "a"]

    def test_merge(self):
        a, b = TrafficMeter(), TrafficMeter()
        a.read("x", 5)
        b.read("x", 7)
        b.write("y", 3)
        a.merge(b)
        assert a.reads["x"] == 12
        assert a.writes["y"] == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficMeter().read("x", -1)


class TestCacheModel:
    def test_no_miss_when_fits(self):
        c = CacheModel("c", 1000)
        c.fit(500)
        assert c.miss_ratio == 0.0
        assert c.access(10, bytes_per_access=4) == 0.0

    def test_miss_ratio_formula(self):
        c = CacheModel("c", 250)
        c.fit(1000)
        assert c.miss_ratio == pytest.approx(0.75)

    def test_spill_charged_to_meter(self):
        c = CacheModel("c", 0)
        c.fit(100)
        m = TrafficMeter()
        spilled = c.access(10, bytes_per_access=4, meter=m, category="spill")
        assert spilled == 40
        assert m.reads["spill"] == 40

    def test_effective_offchip_discount(self):
        m = TrafficMeter()
        m.read("features", 1000)
        m.write("results", 500)
        assert effective_offchip_bytes(m, 2000) == 500
        assert effective_offchip_bytes(m, 300) == 1200

    def test_hidden_results_resident_eligible(self):
        m = TrafficMeter()
        m.write("hidden-results", 400)
        m.write("results", 100)
        assert effective_offchip_bytes(m, 10_000) == 100


class TestEnergy:
    def test_static_dominates_at_paper_scale(self):
        rep = estimate_energy(
            IGCN_DEFAULT, latency_s=1.3e-6, macs=1.4e6, dram_bytes=1e5
        )
        assert rep.static_j > rep.mac_j
        assert rep.graphs_per_kj == pytest.approx(1000 / rep.total_j)

    def test_cora_ee_band(self):
        """Back-solve check: paper Cora EE ~7.1e6 Graph/kJ at 1.3 µs."""
        rep = estimate_energy(
            IGCN_DEFAULT, latency_s=1.3e-6, macs=1.4e6, dram_bytes=0
        )
        assert rep.graphs_per_kj == pytest.approx(7.1e6, rel=0.25)

    def test_zero_latency(self):
        rep = estimate_energy(IGCN_DEFAULT, latency_s=0.0, macs=0, dram_bytes=0)
        assert rep.graphs_per_kj == float("inf")


class TestArea:
    def test_paper_split(self):
        b = AreaModel(4096, 64, 8, 8).breakdown()
        assert b.locator_fraction == pytest.approx(0.34, abs=0.02)
        assert b.consumer_fraction == pytest.approx(0.66, abs=0.02)

    def test_fractions_sum_to_one(self):
        b = AreaModel().breakdown()
        assert sum(b.fractions().values()) == pytest.approx(1.0)

    def test_more_engines_grow_locator(self):
        small = AreaModel(num_bfs_engines=16).breakdown().locator_fraction
        big = AreaModel(num_bfs_engines=128).breakdown().locator_fraction
        assert big > small

    def test_more_macs_grow_consumer(self):
        small = AreaModel(num_macs=1024).breakdown().consumer_fraction
        big = AreaModel(num_macs=8192).breakdown().consumer_fraction
        assert big > small


class TestRing:
    def test_local_bank_no_hops(self):
        ring = RingNetwork(4)
        hops = ring.send(1, 5)  # 5 % 4 == 1: local
        assert hops == 0
        assert ring.stats.hops_travelled == 0

    def test_hop_count_wraps(self):
        ring = RingNetwork(4)
        hops = ring.send(3, 1)  # (1 - 3) mod 4 = 2
        assert hops == 2

    def test_in_network_reduction(self):
        ring = RingNetwork(4)
        ring.send(0, 2)
        reduced_hops = ring.send(0, 2)  # same link, same hub
        assert reduced_hops == 0
        assert ring.stats.in_network_reductions == 1

    def test_drain_clears_reduction_state(self):
        ring = RingNetwork(4)
        ring.send(0, 2)
        ring.drain()
        ring.send(0, 2)
        assert ring.stats.in_network_reductions == 0

    def test_invalid_pe_rejected(self):
        with pytest.raises(ValueError):
            RingNetwork(4).send(9, 0)

    def test_cycles_estimate(self):
        ring = RingNetwork(4)
        ring.send(0, 2)
        ring.send(1, 3)
        assert ring.stats.cycles_estimate(4) == pytest.approx(
            ring.stats.hops_travelled / 4
        )
