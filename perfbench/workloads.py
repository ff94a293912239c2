"""The three benchmark workloads: inputs, one op, and its checks.

Each workload builds its inputs from the seed through the public
``repro.graph`` / ``repro.runtime`` functions (``setup``), runs one op
(``op``, the timed part), and reduces the op's public return values to
the simulated statistics that must repeat exactly (``stats``).  The
benchmark, not the program, owns every check.

Module functions the trace wraps (``hub_island_graph``,
``load_dataset``) are looked up through their module at call time, so
the traced run sees the benchmark's own calls too.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
from scipy import sparse

import repro.graph.datasets as datasets
import repro.graph.generators as generators
from repro.core.accelerator import IGCNAccelerator, IGCNReport
from repro.models.configs import build_model
from repro.runtime import DiskStore, Engine, simulator_names

#: Relative tolerance for simulated floats (cycles, rounded summaries).
STATS_RTOL = 1e-9
#: Functional outputs against the independent scipy reference, as
#: max |out - ref| / max |ref|.
OUTPUT_RTOL = 1e-9


def report_stats(report: IGCNReport) -> dict[str, Any]:
    """Simulated statistics of one inference that must repeat exactly."""
    return {
        "rounds": int(report.islandization.num_rounds),
        "islands": int(report.islandization.num_islands),
        "hubs": int(report.islandization.num_hubs),
        "macs": int(report.total_macs),
        "interhub_ops": int(sum(layer.interhub_ops for layer in report.layers)),
        "dram_bytes": int(report.meter.total_bytes),
        "locator_cycles": float(report.locator_cycles),
        "consumer_cycles": float(report.consumer_cycles),
        "total_cycles": float(report.total_cycles),
    }


def report_counts(reports: list[IGCNReport]) -> dict[str, float]:
    """Per-op layer counts (per-layer metrics) summed over ``reports``."""
    layers = [layer for report in reports for layer in report.layers]
    baseline = sum(layer.aggregation_baseline_macs for layer in layers)
    pruned = sum(layer.aggregation_pruned_macs for layer in layers)
    return {
        "core.islandizer.rounds": sum(r.islandization.num_rounds for r in reports),
        "core.islandizer.islands": sum(r.islandization.num_islands for r in reports),
        "core.islandizer.hubs": sum(r.islandization.num_hubs for r in reports),
        "core.consumer.macs": sum(r.total_macs for r in reports),
        "core.consumer.prune_agg": pruned / baseline if baseline else 0.0,
        "core.interhub.ops": sum(layer.interhub_ops for layer in layers),
        "hw.memory.dram_bytes": sum(r.meter.total_bytes for r in reports),
    }


def mismatch(expected: Any, actual: Any, rtol: float = STATS_RTOL, where: str = "") -> str | None:
    """First difference between two stats trees, or ``None``.

    Integers, strings and ``None`` must be equal; floats must agree to
    ``rtol`` relative.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return f"{where or 'stats'}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            found = mismatch(expected[key], actual[key], rtol, f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{where}: {len(actual)} entries != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, rtol, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=rtol, abs_tol=0.0):
            return None
    elif type(expected) is type(actual) and expected == actual:
        return None
    return f"{where}: {actual!r} != expected {expected!r}"


class Workload:
    """One benchmark workload (subclasses fill in the hooks)."""

    name = ""
    #: Layers whose spans must fire in every traced op / in setup.
    op_layers: tuple[str, ...] = ()
    setup_layers: tuple[str, ...] = ()

    def setup(self, seed: int, workdir: Path) -> Any:
        """Build the op's inputs (timed as set-up)."""
        raise NotImplementedError

    def discard(self, state: Any) -> None:
        """Release what an earlier set-up repetition left behind."""

    def prepare_checks(self, state: Any) -> None:
        """Untimed: build whatever the per-op checks compare against."""

    def before_op(self, state: Any) -> None:
        """Untimed: reset state so every op does the same work."""

    def op(self, state: Any) -> Any:
        raise NotImplementedError

    def stats(self, result: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, result: Any) -> str | None:
        """Workload-specific check beyond the stats (``None`` = ok)."""
        return None

    def note(self, state: Any) -> str | None:
        """A line for the run's log once all ops are done."""
        return None

    def reports(self, result: Any, observed: list[IGCNReport]) -> list[IGCNReport]:
        """The op's IGCNReports (direct return, or observed in the engine)."""
        return [result]

    def engine_counts(self, result: Any) -> dict[str, int]:
        return {
            "runtime.store.disk_misses": 0,
            "runtime.engine.islandization_misses": 0,
            "runtime.engine.report_misses": 0,
        }


_CORE_OP_LAYERS = (
    "graph.csr.clean", "models.reference.norm", "core.consumer.assemble",
    "core.consumer.layer", "core.interhub.plan", "core.pipeline.schedule",
)


class ColdHub(Workload):
    """Full inference on the locator ladder's 1e6 tier, nothing cached."""

    name = "cold-hub-1e6"
    op_layers = _CORE_OP_LAYERS + ("core.islandizer.locate",)
    setup_layers = ("graph.generators.generate",)

    #: The locator ladder's community profile and 1e6-tier node count
    #: (1e6 undirected edges at ~10.6 edges per node).
    PROFILE = generators.CommunityProfile(
        island_size_mean=16.0, island_size_max=48, background_fraction=0.0075
    )
    NODES = 94_339

    def setup(self, seed, workdir):
        graph, _ = generators.hub_island_graph(
            self.NODES, self.PROFILE, seed=seed, name="bench-1e6"
        )
        # Reddit's feature width and class count.
        return graph, build_model("gcn", 602, 41)

    def op(self, state):
        graph, model = state
        return IGCNAccelerator().run(graph, model)

    def stats(self, result):
        return report_stats(result)


@dataclass
class _FuncState:
    dataset: Any
    model: Any
    weights: list[np.ndarray]
    reference: np.ndarray | None = None
    max_rel_err: float = 0.0


def independent_gcn(graph, features, weights, model) -> np.ndarray:
    """GCN forward pass from the raw CSR arrays with plain scipy.

    ``A_hat = D^-1/2 (A + I) D^-1/2`` with ``A`` the graph without its
    diagonal and ``D`` the degrees of ``A + I``; each layer is
    ``act(A_hat (X W))``.  Shares no code with ``repro.models``.
    """
    n = graph.num_nodes
    indptr = np.asarray(graph.indptr)
    cols = np.asarray(graph.indices)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    off_diagonal = rows != cols
    adj = sparse.csr_matrix(
        (np.ones(int(off_diagonal.sum())), (rows[off_diagonal], cols[off_diagonal])),
        shape=(n, n),
    ) + sparse.identity(n, format="csr")
    inv_sqrt = 1.0 / np.sqrt(np.asarray(adj.sum(axis=1)).ravel())
    a_hat = (sparse.diags(inv_sqrt) @ adj @ sparse.diags(inv_sqrt)).tocsr()
    x = features
    for layer, w in zip(model.layers, weights):
        x = np.asarray(a_hat @ np.asarray(x @ w))
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
    return x


class FuncReddit(Workload):
    """Functional GCN inference on the Reddit surrogate at scale 0.1."""

    name = "func-reddit-0.1"
    op_layers = _CORE_OP_LAYERS + ("core.islandizer.locate",)
    setup_layers = ("graph.generators.generate", "graph.datasets.load")

    def setup(self, seed, workdir):
        ds = datasets.load_dataset("reddit", scale=0.1, seed=seed, with_features=True)
        model = build_model("gcn", ds.num_features, ds.num_classes)
        # Glorot-uniform weights drawn from the benchmark's own seed.
        rng = np.random.default_rng(seed)
        weights = []
        for layer in model.layers:
            limit = math.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            weights.append(rng.uniform(-limit, limit, size=(layer.in_dim, layer.out_dim)))
        return _FuncState(ds, model, weights)

    def prepare_checks(self, state):
        state.reference = independent_gcn(
            state.dataset.graph, state.dataset.features, state.weights, state.model
        )

    def op(self, state):
        return IGCNAccelerator().run(
            state.dataset.graph, state.model, functional=True,
            features=state.dataset.features, weights=state.weights,
        )

    def stats(self, result):
        return report_stats(result)

    def check(self, state, result):
        out = result.outputs
        if out is None or out.shape != state.reference.shape:
            return f"outputs shape {getattr(out, 'shape', None)} != {state.reference.shape}"
        err = float(np.max(np.abs(out - state.reference)) / np.max(np.abs(state.reference)))
        state.max_rel_err = max(state.max_rel_err, err)
        if not err <= OUTPUT_RTOL:
            return f"outputs differ from the scipy reference by {err:.3e} relative"
        return None

    def note(self, state):
        return (f"max relative error vs the scipy reference: {state.max_rel_err:.3e} "
                f"(tolerance {OUTPUT_RTOL:g})")


@dataclass
class _SweepState:
    cache_dir: Path
    seed: int


@dataclass
class SweepResult:
    rows: list[dict]
    cache_stats: dict
    tier_stats: dict


class WarmSweepPaper(Workload):
    """The paper's cross-platform grid, served from a warm disk cache."""

    name = "warm-sweep-paper"
    op_layers = _CORE_OP_LAYERS + (
        "runtime.store.get", "runtime.store.put", "runtime.engine", "baselines.simulate",
    )
    setup_layers = (
        "graph.generators.generate", "graph.datasets.load", "core.islandizer.locate",
    )

    DATASETS = ("cora", "citeseer", "pubmed", "nell", "reddit")
    MODELS = ("gcn", "gcn:hy", "graphsage", "gin")
    PLATFORMS = (
        "igcn", "awb", "hygcn", "sigma", "pull", "push", "pyg-cpu", "dgl-cpu",
        "pyg-gpu-v100", "pyg-gpu-rtx8000", "dgl-gpu-v100",
    )

    def _sweep(self, engine: Engine, seed: int) -> list[dict]:
        return engine.sweep(
            list(self.DATASETS), list(self.PLATFORMS), models=self.MODELS, seed=seed
        )

    def setup(self, seed, workdir):
        missing = set(self.PLATFORMS) - set(simulator_names())
        if missing:
            raise LookupError(f"platforms no longer registered: {sorted(missing)}")
        cache_dir = Path(workdir) / "cache"
        with Engine(cache_dir=str(cache_dir)) as engine:
            self._sweep(engine, seed)
        return _SweepState(cache_dir, seed)

    def discard(self, state):
        shutil.rmtree(state.cache_dir, ignore_errors=True)

    def before_op(self, state):
        DiskStore(state.cache_dir).clear("summary")

    def op(self, state):
        with Engine(cache_dir=str(state.cache_dir)) as engine:
            rows = self._sweep(engine, state.seed)
            return SweepResult(rows, engine.cache_stats(), engine.tier_stats())

    def stats(self, result):
        return result.rows

    def reports(self, result, observed):
        return observed

    def engine_counts(self, result):
        disk = result.tier_stats.get("disk", {})
        return {
            "runtime.store.disk_misses": sum(s.misses for s in disk.values()),
            "runtime.engine.islandization_misses": result.cache_stats["islandization"].misses,
            "runtime.engine.report_misses": result.cache_stats["report"].misses,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ColdHub(), WarmSweepPaper(), FuncReddit())
}
