"""Energy model: Table 2's Energy Efficiency (Graph/kJ).

Total inference energy is modelled as

``E = P_total * latency  +  macs * e_mac  +  sram_bytes * e_sram +
dram_bytes * e_dram``

with the board-level term ``P_total * latency`` dominating, matching
what Table 2 implies (back-solving the paper's EE against its latency
gives 95-142 W for I-GCN and 132-152 W for AWB-GCN; the models use one
constant per platform, 110 W and 135 W;
docs/architecture.md#energy-back-solve).  Energy efficiency is then
``graphs / kJ = 1000 / E_J`` per single-graph inference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.config import HardwareConfig

__all__ = ["EnergyReport", "estimate_energy"]


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of one inference."""

    static_j: float
    mac_j: float
    sram_j: float
    dram_j: float

    @property
    def total_j(self) -> float:
        """Total joules per inference."""
        return self.static_j + self.mac_j + self.sram_j + self.dram_j

    @property
    def graphs_per_kj(self) -> float:
        """Table 2's EE metric: inferences per kilojoule."""
        if self.total_j == 0:
            return float("inf")
        return 1000.0 / self.total_j


def estimate_energy(
    hw: HardwareConfig,
    *,
    latency_s: float,
    macs: float,
    dram_bytes: float,
    sram_bytes: float | None = None,
) -> EnergyReport:
    """Estimate the energy of one inference.

    ``sram_bytes`` defaults to 3 accesses of 4 bytes per MAC (two reads
    and one write of the accumulator datapath).
    """
    if sram_bytes is None:
        sram_bytes = macs * 12.0
    return EnergyReport(
        static_j=hw.total_power_w * latency_s,
        mac_j=macs * hw.energy_per_mac_pj * 1e-12,
        sram_j=sram_bytes * hw.energy_per_sram_byte_pj * 1e-12,
        dram_j=dram_bytes * hw.energy_per_dram_byte_pj * 1e-12,
    )
