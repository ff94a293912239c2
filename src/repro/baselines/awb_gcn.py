"""AWB-GCN baseline (Geng et al., MICRO 2020).

AWB-GCN is the paper's closest competitor: same FPGA, same 4096
fp32 MACs at 330 MHz, combination-first, PUSH-style SpMM with *runtime
workload autotuning* that fixes the power-law imbalance problem but —
the I-GCN paper's argument — not the data-locality problem of the
result matrix.

Model summary
-------------
* full per-edge aggregation (no redundancy removal);
* adjacency and features stream once per layer (AWB-GCN's evict-free
  streaming of A, unlike naive column-wise push);
* the dense partial-result matrix (n × out) is the random-access
  working set: the fraction that exceeds the on-chip result buffer
  turns the per-edge updates into DRAM read-modify-writes;
* ``compute_utilization`` 0.45, back-solved from AWB-GCN's published
  Cora latency (2.3 µs ≈ 1.4 MMAC / 4096 / 330 MHz / 0.45) — the
  autotuner balances queues well but the deep SpMM pipeline drains at
  every output-channel switch on small graphs;
* ``total_power_w`` 135 W, back-solved from AWB-GCN's Table 2 EE.
"""

from __future__ import annotations

from repro.baselines.common import AcceleratorModel
from repro.graph.csr import CSRGraph
from repro.hw.config import HardwareConfig
from repro.hw.memory import CacheModel, TrafficMeter
from repro.models.workload import BYTES_PER_INDEX, BYTES_PER_VALUE, Workload

__all__ = ["AWBGCNAccelerator", "AWB_DEFAULT_HW"]

AWB_DEFAULT_HW = HardwareConfig(
    name="awb-gcn-stratix10",
    num_macs=4096,
    frequency_hz=330e6,
    offchip_bandwidth_bps=76.8e9,
    compute_utilization=0.45,
    total_power_w=135.0,
)


class AWBGCNAccelerator(AcceleratorModel):
    """Push-based SpMM accelerator with runtime workload rebalancing."""

    name = "awb-gcn"

    #: Fraction of spilled read-modify-writes that the autotuner's
    #: column batching coalesces on-chip before they reach DRAM
    #: (back-solved from AWB-GCN's published NELL latency).
    RMW_TILING_FACTOR = 0.25

    def __init__(
        self,
        hw: HardwareConfig | None = None,
        *,
        result_buffer_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        super().__init__(hw or AWB_DEFAULT_HW)
        self.result_buffer_bytes = result_buffer_bytes

    def traffic(self, graph: CSRGraph, workload: Workload) -> TrafficMeter:
        meter = TrafficMeter()
        last = len(workload.layers) - 1
        for layer in workload.layers:
            result_category = "results" if layer.layer_index == last else "hidden-results"
            meter.read("features", layer.feature_bytes)
            meter.read("weights", layer.weight_bytes)
            meter.read(
                "adjacency",
                layer.adjacency_nnz * (BYTES_PER_VALUE + BYTES_PER_INDEX),
            )
            # Partial results: whole XW-out matrix is the working set;
            # the autotuner's column batching coalesces most spilled
            # read-modify-writes (RMW_TILING_FACTOR) before DRAM.
            result_bytes = workload.num_nodes * layer.out_dim * BYTES_PER_VALUE
            cache = CacheModel("awb-results", self.result_buffer_bytes)
            cache.fit(result_bytes)
            rmw_bytes = 2 * layer.out_dim * BYTES_PER_VALUE
            cache.access(
                int(layer.adjacency_nnz * self.RMW_TILING_FACTOR),
                bytes_per_access=rmw_bytes,
                meter=meter,
                category="result-rmw",
            )
            meter.write(result_category, result_bytes)
        return meter
