"""CPU/GPU framework baselines (PyG and DGL on Xeons, V100, RTX 8000).

Roofline-style models of GNN frameworks on general-purpose hardware:

``latency = dense_flops / effective_flops
          + scatter_bytes / effective_bandwidth
          + framework_overhead``

* *dense_flops* — frameworks run ``X @ W`` as a dense GEMM (they do not
  exploit input-feature sparsity), so combination costs
  ``2 n C_in C_out`` regardless of X's nnz;
* *scatter_bytes* — aggregation is a memory-bound gather/scatter: three
  row-sized touches per edge (read source, read+write target);
* *framework_overhead* — per-inference kernel-launch / Python dispatch
  cost; dominates on tiny graphs (why Cora takes milliseconds on a
  GPU).

Effective constants are documented engineering numbers: a few percent
of peak FLOPs for sparse-workload CPUs, ~10-20 % of peak for GPU dense
GEMMs at GNN sizes, DDR4/HBM streaming efficiencies, and measured-order
framework overheads.  They are calibrated so the I-GCN speedup
magnitudes land in the paper's bands (≈10⁴× PyG-CPU, ≈10³× DGL-CPU,
≈10²-10³× GPUs); see docs/architecture.md#framework-baseline-calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import SimReport
from repro.graph.csr import CSRGraph
from repro.hw.memory import TrafficMeter
from repro.models.configs import ModelConfig
from repro.models.workload import BYTES_PER_VALUE, Workload, build_workload

__all__ = ["PlatformModel", "PLATFORMS", "get_platform"]


@dataclass(frozen=True)
class PlatformModel:
    """Roofline model of one framework/hardware pair."""

    name: str
    effective_gflops: float       # dense-GEMM throughput actually achieved
    effective_bandwidth_gbps: float
    framework_overhead_s: float   # per-inference dispatch cost

    def run(
        self,
        graph: CSRGraph,
        model: ModelConfig,
        *,
        feature_density: float = 1.0,
        workload: Workload | None = None,
    ) -> SimReport:
        """Estimate one inference on this platform.

        ``workload`` lets callers (the runtime Engine) supply a cached
        operation-count descriptor.
        """
        if workload is None:
            workload = build_workload(graph, model, feature_density=feature_density)
        dense_flops = 0.0
        scatter_bytes = 0.0
        meter = TrafficMeter()
        for layer in workload.layers:
            dense_flops += 2.0 * workload.num_nodes * layer.in_dim * layer.out_dim
            row_bytes = layer.out_dim * BYTES_PER_VALUE
            scatter_bytes += 3.0 * layer.adjacency_nnz * row_bytes
            meter.read("features", layer.feature_bytes)
            meter.read("adjacency", layer.adjacency_nnz * 8)
            meter.read("gather", int(2.0 * layer.adjacency_nnz * row_bytes))
            meter.write("scatter", int(layer.adjacency_nnz * row_bytes))
            meter.write("results", workload.num_nodes * row_bytes)
        gemm_s = dense_flops / (self.effective_gflops * 1e9)
        scatter_s = scatter_bytes / (self.effective_bandwidth_gbps * 1e9)
        latency_s = gemm_s + scatter_s + self.framework_overhead_s
        return SimReport(
            platform=self.name,
            graph_name=graph.name,
            model_name=model.name,
            macs=int(dense_flops / 2),
            meter=meter,
            latency_us=latency_s * 1e6,
            notes=(
                f"gemm={gemm_s * 1e6:.1f}us scatter={scatter_s * 1e6:.1f}us "
                f"overhead={self.framework_overhead_s * 1e6:.1f}us"
            ),
        )


#: The six software platforms of Figure 14(B).
PLATFORMS: dict[str, PlatformModel] = {
    # PyTorch Geometric on Intel E5-2680-v3: Python-heavy dispatch, MKL
    # GEMM at a few % of peak for GNN-shaped matrices.
    "pyg-cpu": PlatformModel("pyg-cpu", 15.0, 6.0, 9e-3),
    # DGL on E5-2683-v3: fused C++ kernels, better GEMM locality.
    "dgl-cpu": PlatformModel("dgl-cpu", 90.0, 24.0, 1.0e-3),
    # PyG on V100 (PCIe dispatch + many small kernels).
    "pyg-gpu-v100": PlatformModel("pyg-gpu-v100", 2500.0, 350.0, 8.0e-4),
    # PyG on RTX 8000.
    "pyg-gpu-rtx8000": PlatformModel("pyg-gpu-rtx8000", 2200.0, 300.0, 8.0e-4),
    # DGL on V100 (more launches per layer than PyG's fused path).
    "dgl-gpu-v100": PlatformModel("dgl-gpu-v100", 2500.0, 350.0, 1.0e-3),
}


def get_platform(name: str) -> PlatformModel:
    """Look up a platform model by name."""
    try:
        return PLATFORMS[name]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; available: {', '.join(PLATFORMS)}"
        ) from None
