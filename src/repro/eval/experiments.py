"""Experiment registry: one entry per table/figure of the paper.

Each ``experiment_*`` function reproduces one published result and
returns an :class:`ExperimentResult` holding structured rows (for
assertions) plus rendered text (for logs).  The paper's numbers are
kept alongside as ``paper_*`` columns so every output is a direct
paper-vs-measured comparison; ``python -m repro experiments`` prints
them all.

The functions are deliberately deterministic (fixed dataset seeds) and
share one process-wide runtime :class:`~repro.runtime.Engine`, so the
benchmark suite calls into shared cached state without recomputing
datasets or islandization for every figure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core import IGCNReport
from repro.eval.spyplot import spy
from repro.eval.tables import render_table
from repro.graph.reorder import get_reordering, locality_report, reordering_names
from repro.hw.area import AreaModel
from repro.models import gcn_model
from repro.runtime import Engine

__all__ = [
    "ExperimentResult",
    "shared_engine",
    "experiment_table1",
    "experiment_table2",
    "experiment_fig9",
    "experiment_fig10",
    "experiment_fig11",
    "experiment_fig12",
    "experiment_fig13",
    "experiment_fig14",
    "EVAL_DATASETS",
    "PAPER_FIG10_AGG",
    "PAPER_FIG10_OVERALL",
    "PAPER_TABLE2_LATENCY_US",
]

#: Datasets in the paper's order; loaded at their default scales.
EVAL_DATASETS = ("cora", "citeseer", "pubmed", "nell", "reddit")

#: Figure 10, left group: aggregation-phase pruning rates.
PAPER_FIG10_AGG = {
    "cora": 0.39, "citeseer": 0.40, "pubmed": 0.35, "nell": 0.46, "reddit": 0.29,
}
#: Figure 10, right group: whole-inference pruning rates.
PAPER_FIG10_OVERALL = {
    "cora": 0.09, "citeseer": 0.05, "pubmed": 0.04, "nell": 0.05, "reddit": 0.17,
}
#: Table 2 (GCN_algo block): absolute latencies in microseconds.
PAPER_TABLE2_LATENCY_US = {
    "igcn": {"cora": 1.3, "citeseer": 1.9, "pubmed": 15.1, "nell": 5.9e2, "reddit": 3.0e4},
    "awb": {"cora": 2.3, "citeseer": 4.0, "pubmed": 30.0, "nell": 1.6e3, "reddit": 3.2e4},
}
#: Table 2 (GCN_algo block): energy efficiency in Graph/kJ.
PAPER_TABLE2_EE = {
    "igcn": {"cora": 7.1e6, "citeseer": 3.7e6, "pubmed": 5.3e5, "nell": 1.3e4, "reddit": 3.5e2},
    "awb": {"cora": 3.1e6, "citeseer": 1.9e6, "pubmed": 2.5e5, "nell": 4.1e3, "reddit": 2.1e2},
}
#: Figure 11: ALM shares of the two halves.
PAPER_FIG11_SPLIT = {"island_locator": 0.34, "island_consumer": 0.66}


@dataclass
class ExperimentResult:
    """Structured outcome of one reproduced experiment."""

    experiment: str
    rows: list[dict] = field(default_factory=list)
    text: str = ""
    extras: dict = field(default_factory=dict)

    def render(self) -> str:
        """Table + any extra text."""
        table = render_table(self.rows, title=self.experiment)
        return f"{table}\n{self.text}" if self.text else table


# ----------------------------------------------------------------------
# Shared cached state: one process-wide runtime Engine.  All artifact
# caching (datasets, islandizations, workloads, reports) lives there —
# this module keeps no memoization of its own.
# ----------------------------------------------------------------------
_ENGINE: Engine | None = None


def shared_engine(cache_dir: str | None = None) -> Engine:
    """The process-wide Engine the experiment registry runs on.

    Created lazily on first use; when ``REPRO_CACHE_DIR`` is set (or
    ``cache_dir`` is passed, e.g. from ``repro experiments
    --cache-dir``) the engine runs memory-over-disk, so regenerating
    the paper tables warm-starts from earlier runs.  Passing a
    ``cache_dir`` different from the current engine's replaces the
    engine (its memory tier starts cold; the disk tier is shared).
    """
    global _ENGINE
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        if _ENGINE is not None:
            return _ENGINE
    if _ENGINE is None or _ENGINE.cache_dir != cache_dir:
        _ENGINE = Engine(cache_dir=cache_dir)
    return _ENGINE


def _dataset(name: str):
    return shared_engine().dataset(name, seed=7)


def _report(name: str, platform: str, variant: str = "algo"):
    """Cached simulation of ``platform`` on dataset ``name``."""
    ds = _dataset(name)
    model = gcn_model(ds.num_features, ds.num_classes, variant=variant)
    return shared_engine().simulate(platform, ds, model)


def _igcn_report(name: str, variant: str = "algo") -> IGCNReport:
    return _report(name, "igcn", variant)


# ----------------------------------------------------------------------
# Table 1 — PULL vs PUSH vs islandization characteristics
# ----------------------------------------------------------------------
def experiment_table1(dataset: str = "cora") -> ExperimentResult:
    """Quantify Table 1's qualitative comparison on one dataset.

    Buffer pressure is the dataflow's random-access working set; off-chip
    traffic comes from each model's meter; reuse columns report how many
    times each matrix is touched per resident byte.
    """
    ds = _dataset(dataset)
    model = gcn_model(ds.num_features, ds.num_classes)
    pull = _report(dataset, "pull")
    push = _report(dataset, "push")
    igcn = _igcn_report(dataset)

    n = ds.graph.num_nodes
    hidden = model.layers[0].out_dim
    rows = [
        {
            "method": "PULL (row-wise)",
            "working_set_bytes": n * hidden * 4,        # XW rows, random
            "dram_mb": round(pull.offchip_bytes / 1e6, 3),
            "reuse_xw": "low (refetch per edge)",
            "reuse_a": "high (streamed once)",
            "load_imbalance": "no",
            "redundancy_removal": "hard",
        },
        {
            "method": "PUSH (column-wise)",
            "working_set_bytes": n * 4,                 # one result column
            "dram_mb": round(push.offchip_bytes / 1e6, 3),
            "reuse_xw": "high (broadcast)",
            "reuse_a": "low (per-channel pass)",
            "load_imbalance": "yes (power law)",
            "redundancy_removal": "hard",
        },
        {
            "method": "Islandization (I-GCN)",
            "working_set_bytes": igcn.islandization.num_hubs * hidden * 4,
            "dram_mb": round(igcn.offchip_bytes / 1e6, 3),
            "reuse_xw": "high (island-local)",
            "reuse_a": "high (bitmap once)",
            "load_imbalance": "no",
            "redundancy_removal": f"easy ({igcn.aggregation_pruning_rate:.0%} pruned)",
        },
    ]
    return ExperimentResult(experiment=f"Table 1 ({dataset})", rows=rows)


# ----------------------------------------------------------------------
# Table 2 — absolute latency and energy efficiency, I-GCN vs AWB-GCN
# ----------------------------------------------------------------------
def experiment_table2() -> ExperimentResult:
    """Latency (µs) and EE (Graph/kJ) for GCN-algo and GCN-Hy configs."""
    rows = []
    for variant in ("algo", "hy"):
        for name in EVAL_DATASETS:
            igcn = _igcn_report(name, variant)
            awb = _report(name, "awb", variant)
            row = {
                "config": f"GCN_{variant}",
                "dataset": name,
                "igcn_us": round(igcn.latency_us, 2),
                "awb_us": round(awb.latency_us, 2),
                "speedup": round(awb.latency_us / igcn.latency_us, 2),
                "igcn_ee": round(igcn.graphs_per_kj, 1),
                "awb_ee": round(awb.graphs_per_kj, 1),
            }
            if variant == "algo":
                row["paper_igcn_us"] = PAPER_TABLE2_LATENCY_US["igcn"][name]
                row["paper_awb_us"] = PAPER_TABLE2_LATENCY_US["awb"][name]
                row["paper_speedup"] = round(
                    PAPER_TABLE2_LATENCY_US["awb"][name]
                    / PAPER_TABLE2_LATENCY_US["igcn"][name],
                    2,
                )
            rows.append(row)
    return ExperimentResult(
        experiment="Table 2 (latency & energy efficiency)",
        rows=rows,
        text=(
            "note: nell/reddit run at reduced surrogate scale "
            "(see docs/architecture.md#dataset-surrogates-and-scale), so "
            "absolute µs are per-scale; speedup ratios are the comparable "
            "quantity."
        ),
    )


# ----------------------------------------------------------------------
# Figure 9 — islandization effect on the adjacency matrix
# ----------------------------------------------------------------------
def experiment_fig9(*, with_plots: bool = True) -> ExperimentResult:
    """Rounds to converge and nnz clustering quality per dataset."""
    rows = []
    plots = []
    for name in ("cora", "citeseer", "pubmed", "nell"):
        report = _igcn_report(name)
        isl = report.islandization
        perm = isl.island_permutation()
        reordered = isl.graph.permute(perm)
        loc = locality_report(reordered, name=f"{name}-islandized")
        rows.append(
            {
                "dataset": name,
                "rounds": isl.num_rounds,
                "islands": isl.num_islands,
                "hubs": isl.num_hubs,
                "hub_pct": round(100 * isl.hub_fraction, 1),
                "tile_coverage": round(loc.tile_coverage, 3),
                "island_edges_covered": "100%",  # validated invariant
            }
        )
        if with_plots:
            plots.append(
                spy(reordered, resolution=40, anti_diagonal=True,
                    title=f"--- {name}: islandized adjacency (hubs first) ---")
            )
    text = "\n\n".join(plots) if with_plots else ""
    return ExperimentResult(experiment="Figure 9 (islandization effect)", rows=rows, text=text)


# ----------------------------------------------------------------------
# Figure 10 — redundancy-removal pruning rates
# ----------------------------------------------------------------------
def experiment_fig10() -> ExperimentResult:
    """Aggregation and overall pruning rates vs the paper's bars."""
    rows = []
    for name in EVAL_DATASETS:
        report = _igcn_report(name)
        rows.append(
            {
                "dataset": name,
                "prune_agg": round(report.aggregation_pruning_rate, 3),
                "paper_agg": PAPER_FIG10_AGG[name],
                "prune_overall": round(report.overall_pruning_rate, 3),
                "paper_overall": PAPER_FIG10_OVERALL[name],
                "agg_fraction": round(report.aggregation_fraction, 3),
            }
        )
    mean_agg = float(np.mean([r["prune_agg"] for r in rows]))
    return ExperimentResult(
        experiment="Figure 10 (pruning rates)",
        rows=rows,
        text=f"measured mean aggregation pruning: {mean_agg:.1%} (paper: 38%)",
        extras={"mean_agg": mean_agg},
    )


# ----------------------------------------------------------------------
# Figure 11 — hardware consumption breakdown
# ----------------------------------------------------------------------
def experiment_fig11() -> ExperimentResult:
    """ALM breakdown of the published instance (4K MACs, 64 engines)."""
    breakdown = AreaModel(
        num_macs=4096, num_bfs_engines=64, num_degree_fifos=8, num_pes=8
    ).breakdown()
    rows = [
        {"module": module, "alms": alms, "share": round(frac, 3)}
        for (module, alms), frac in zip(
            breakdown.modules.items(), breakdown.fractions().values()
        )
    ]
    rows.append(
        {
            "module": "TOTAL (locator/consumer)",
            "alms": breakdown.total,
            "share": (
                f"{breakdown.locator_fraction:.2f}/"
                f"{breakdown.consumer_fraction:.2f} (paper 0.34/0.66)"
            ),
        }
    )
    return ExperimentResult(
        experiment="Figure 11 (area breakdown)",
        rows=rows,
        extras={
            "locator_fraction": breakdown.locator_fraction,
            "consumer_fraction": breakdown.consumer_fraction,
        },
    )


# ----------------------------------------------------------------------
# Figure 12 — I-GCN vs AWB-GCN + lightweight reordering
# ----------------------------------------------------------------------
def experiment_fig12(
    datasets: tuple[str, ...] = EVAL_DATASETS,
) -> ExperimentResult:
    """Reordering preprocessing cost vs I-GCN end-to-end latency.

    Reordering runs on the host CPU (wall-clock, like the paper's Xeon
    measurements, though our Python implementations are slower than the
    paper's C++ — which only *strengthens* the conclusion); AWB-GCN then
    processes the reordered graph (simulated).  I-GCN needs no
    preprocessing at all.
    """
    rows = []
    for name in datasets:
        ds = _dataset(name)
        igcn = _igcn_report(name)
        model = gcn_model(ds.num_features, ds.num_classes)
        for reorder_name in reordering_names():
            if reorder_name == "sort":
                continue  # not one of the paper's six
            result = get_reordering(reorder_name).run(ds.graph)
            reordered = result.apply(ds.graph)
            awb = shared_engine().simulate(
                "awb", reordered, model, feature_density=ds.feature_density
            )
            reorder_us = result.seconds * 1e6
            rows.append(
                {
                    "dataset": name,
                    "reordering": reorder_name,
                    "reorder_us": round(reorder_us, 1),
                    "awb_proc_us": round(awb.latency_us, 2),
                    "total_us": round(reorder_us + awb.latency_us, 1),
                    "igcn_us": round(igcn.latency_us, 2),
                    "reorder_vs_igcn": round(reorder_us / igcn.latency_us, 1),
                }
            )
    return ExperimentResult(
        experiment="Figure 12 (reordering latency vs I-GCN)", rows=rows
    )


# ----------------------------------------------------------------------
# Figure 13 — clustering quality of reorderings vs islandization
# ----------------------------------------------------------------------
def experiment_fig13(dataset: str = "cora", *, with_plots: bool = False,
                     tile: int = 16) -> ExperimentResult:
    """Non-zero clustering metrics for every layout.

    ``tile`` is 16 (not the 64 used elsewhere) because islands are
    5-10 nodes: a 64-wide tile averages a dense island block away, while
    16-wide tiles resolve it — the granularity Figure 13's visual
    comparison operates at.
    """
    ds = _dataset(dataset)
    base = ds.graph.without_self_loops()
    layouts = [("original", base)]
    for reorder_name in reordering_names():
        if reorder_name == "sort":
            continue
        perm = get_reordering(reorder_name).run(base)
        layouts.append((reorder_name, perm.apply(base)))
    isl = _igcn_report(dataset).islandization
    layouts.append(("i-gcn (islandized)", base.permute(isl.island_permutation())))

    rows = []
    plots = []
    for name, graph in layouts:
        loc = locality_report(graph, name=name, tile=tile)
        rows.append(loc.as_dict())
        if with_plots:
            plots.append(spy(graph, resolution=40, title=f"--- {dataset}: {name} ---"))
    return ExperimentResult(
        experiment=f"Figure 13 (clustering quality, {dataset})",
        rows=rows,
        text="\n\n".join(plots),
    )


# ----------------------------------------------------------------------
# Figure 14 — cross-platform off-chip traffic and speedup
# ----------------------------------------------------------------------
def experiment_fig14() -> ExperimentResult:
    """(A) normalised DRAM traffic and (B) latency speedups vs I-GCN."""
    accelerators = [("awb-gcn", "awb"), ("hygcn", "hygcn"), ("sigma", "sigma")]
    software = ["pyg-cpu", "dgl-cpu", "pyg-gpu-v100", "pyg-gpu-rtx8000", "dgl-gpu-v100"]
    rows = []
    for name in EVAL_DATASETS:
        igcn = _igcn_report(name)
        row = {
            "dataset": name,
            "igcn_us": round(igcn.latency_us, 2),
            "igcn_dram_mb": round(igcn.offchip_bytes / 1e6, 3),
        }
        for label, platform in accelerators:
            rep = _report(name, platform)
            row[f"{label}_x"] = round(rep.latency_us / igcn.latency_us, 2)
            row[f"{label}_dram"] = round(rep.offchip_bytes / igcn.offchip_bytes, 2)
        for pname in software:
            rep = _report(name, pname)
            row[f"{pname}_x"] = round(rep.latency_us / igcn.latency_us, 1)
        rows.append(row)
    return ExperimentResult(
        experiment="Figure 14 (cross-platform comparison)",
        rows=rows,
        text=(
            "paper bands (full-scale datasets): AWB/HyGCN avg 5.7x, SIGMA 16x, "
            "PyG-CPU 9568x, DGL-CPU 1243x, GPUs 368-453x.  Scaled surrogates "
            "(nell, reddit) compress compute-dominated gaps; cora/citeseer/"
            "pubmed run at full published size."
        ),
    )
