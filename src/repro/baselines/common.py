"""Shared infrastructure for the baseline simulators.

Every baseline produces a :class:`SimReport` — the common currency the
evaluation harness uses for cross-platform tables (Figure 14, Table 2).
Accelerator baselines (AWB-GCN, HyGCN, SIGMA) extend
:class:`AcceleratorModel`, which provides the max(compute, memory)
latency composition; platform baselines (CPU/GPU frameworks) have their
own roofline in ``repro.baselines.platforms``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.graph.csr import CSRGraph
from repro.hw.config import HardwareConfig
from repro.hw.energy import EnergyReport, estimate_energy
from repro.hw.memory import TrafficMeter, effective_offchip_bytes
from repro.models.configs import ModelConfig
from repro.models.workload import Workload, build_workload
from repro.report import BaseReport

__all__ = ["SimReport", "AcceleratorModel"]


@dataclass
class SimReport(BaseReport):
    """Uniform result record for any simulated platform."""

    platform: str
    graph_name: str
    model_name: str
    macs: int
    meter: TrafficMeter = field(repr=False)
    latency_us: float
    energy: EnergyReport | None = None
    utilization: float = 1.0
    notes: str = ""

    @property
    def macs_performed(self) -> int:
        """Uniform-report alias of :attr:`macs`."""
        return self.macs


class AcceleratorModel(ABC):
    """Base class: accelerator with a hardware envelope and a dataflow."""

    name: str = "accelerator"

    def __init__(self, hw: HardwareConfig) -> None:
        self.hw = hw

    @abstractmethod
    def traffic(self, graph: CSRGraph, workload: Workload) -> TrafficMeter:
        """DRAM traffic of this dataflow for the given workload."""

    def macs(self, workload: Workload) -> int:
        """MACs performed; baselines do the full per-edge aggregation."""
        return workload.total_macs

    def run(
        self,
        graph: CSRGraph,
        model: ModelConfig,
        *,
        feature_density: float = 1.0,
        workload: Workload | None = None,
    ) -> SimReport:
        """Simulate one inference; latency = max(compute, memory).

        ``workload`` lets callers (the runtime Engine) supply a cached
        operation-count descriptor; it must match
        ``build_workload(graph, model, feature_density=...)``.
        """
        if workload is None:
            workload = build_workload(graph, model, feature_density=feature_density)
        meter = self.traffic(graph, workload)
        macs = self.macs(workload)
        compute_cycles = macs / self.hw.macs_per_cycle
        # Same on-chip residence convention as the I-GCN latency model:
        # read-mostly operands stay on-chip up to capacity.
        memory_cycles = (
            effective_offchip_bytes(meter, self.hw.onchip_capacity_bytes)
            / self.hw.bytes_per_cycle
        )
        cycles = max(compute_cycles, memory_cycles)
        latency_s = self.hw.cycles_to_seconds(cycles)
        energy = estimate_energy(
            self.hw, latency_s=latency_s, macs=macs, dram_bytes=meter.total_bytes
        )
        return SimReport(
            platform=self.name,
            graph_name=graph.name,
            model_name=model.name,
            macs=macs,
            meter=meter,
            latency_us=latency_s * 1e6,
            energy=energy,
            utilization=self.hw.compute_utilization,
        )
