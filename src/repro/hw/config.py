"""Hardware envelope and calibration constants.

The paper's evaluation platform (§4.1/§4.6.2): an Intel Stratix 10 SX
FPGA at 330 MHz with 4096 floating-point MAC units — deliberately
matched to AWB-GCN's configuration for fairness.  This module is the
single home of every physical constant the analytic models use, with
the provenance of each value documented, so the performance model is
auditable and tunable.

Calibration notes
-----------------
* ``consumer_utilization`` (0.80) back-solved from the paper's Cora
  GCN-algo latency: ~1.4 MMACs / 4096 / 330 MHz = 1.04 µs ideal vs
  1.3 µs reported.
* ``total_power_w`` back-solved from Table 2's energy efficiency:
  EE[Graph/kJ] = 1000 / (P × latency) gives 95-142 W for I-GCN across
  the five datasets, 108 W on Cora (docs/architecture.md#energy-back-solve).
* Off-chip bandwidth 76.8 GB/s = 4-channel DDR4-2400, the Stratix 10 SX
  dev-kit configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["HardwareConfig", "IGCN_DEFAULT"]


@dataclass(frozen=True)
class HardwareConfig:
    """Physical envelope of an accelerator instance."""

    name: str = "i-gcn-stratix10"
    num_macs: int = 4096
    frequency_hz: float = 330e6
    offchip_bandwidth_bps: float = 76.8e9
    # On-chip capacities (bytes).
    weight_buffer_bytes: int = 4 * 1024 * 1024
    hub_xw_cache_bytes: int = 2 * 1024 * 1024
    hub_prc_bytes: int = 2 * 1024 * 1024
    feature_buffer_bytes: int = 1 * 1024 * 1024
    # Total usable on-chip SRAM (Stratix 10 SX: ~28 MB M20K + eSRAM).
    # Traffic *counting* follows §4.6.1's all-off-chip convention, but
    # the *latency* model lets read-mostly operands (features,
    # adjacency, weights) reside on-chip up to this capacity — the
    # paper's own practical-configuration note.
    onchip_capacity_bytes: int = 24 * 1024 * 1024
    # Utilisation of the MAC array when the pipeline is full.
    compute_utilization: float = 0.80
    # Energy constants (picojoules); FPGA-class fp32 datapath.
    energy_per_mac_pj: float = 3.5
    energy_per_sram_byte_pj: float = 0.6
    energy_per_dram_byte_pj: float = 25.0
    total_power_w: float = 110.0

    def __post_init__(self) -> None:
        if self.num_macs < 1:
            raise ConfigError("num_macs must be >= 1")
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        if self.offchip_bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive")
        if not 0.0 < self.compute_utilization <= 1.0:
            raise ConfigError("compute_utilization must be in (0, 1]")

    @property
    def bytes_per_cycle(self) -> float:
        """Off-chip bytes deliverable per clock cycle."""
        return self.offchip_bandwidth_bps / self.frequency_hz

    @property
    def macs_per_cycle(self) -> float:
        """Effective MACs retired per cycle at the calibrated utilisation."""
        return self.num_macs * self.compute_utilization

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds."""
        return cycles / self.frequency_hz

    def cycles_to_us(self, cycles: float) -> float:
        """Convert a cycle count to microseconds."""
        return self.cycles_to_seconds(cycles) * 1e6


#: The configuration used throughout the paper's evaluation.
IGCN_DEFAULT = HardwareConfig()
