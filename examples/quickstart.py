"""Quickstart: simulate I-GCN inference on Cora and compare to AWB-GCN.

Run:
    python examples/quickstart.py
"""

from repro import IGCNAccelerator, gcn_model, load_dataset
from repro.baselines import AWBGCNAccelerator
from repro.eval import render_table


def main() -> None:
    # 1. Load a dataset (an offline surrogate with Cora's published
    #    statistics and community structure; see
    #    docs/architecture.md#dataset-surrogates-and-scale).
    ds = load_dataset("cora")
    print(f"dataset: {ds.name}, {ds.num_nodes} nodes, "
          f"{ds.graph.num_edges} directed edges, "
          f"{ds.num_features} features, {ds.num_classes} classes")

    # 2. Build the 2-layer GCN the paper evaluates (original Kipf dims).
    model = gcn_model(ds.num_features, ds.num_classes, variant="algo")

    # 3. Simulate one inference on the I-GCN accelerator.
    accelerator = IGCNAccelerator()
    report = accelerator.run(
        ds.graph, model, feature_density=ds.feature_density
    )

    isl = report.islandization
    print(f"\nislandization: {isl.num_rounds} rounds, "
          f"{isl.num_islands} islands, {isl.num_hubs} hubs "
          f"({isl.hub_fraction:.1%} of nodes)")
    print(f"aggregation ops pruned: {report.aggregation_pruning_rate:.1%} "
          f"(paper: 39% on Cora)")
    print(f"overall ops pruned:     {report.overall_pruning_rate:.1%}")

    # 4. Compare against the prior-art AWB-GCN on identical hardware.
    awb = AWBGCNAccelerator().run(
        ds.graph, model, feature_density=ds.feature_density
    )
    rows = [
        {"platform": "I-GCN", "latency_us": round(report.latency_us, 2),
         "dram_mb": round(report.offchip_bytes / 1e6, 3),
         "graphs_per_kj": round(report.graphs_per_kj)},
        {"platform": "AWB-GCN", "latency_us": round(awb.latency_us, 2),
         "dram_mb": round(awb.offchip_bytes / 1e6, 3),
         "graphs_per_kj": round(awb.graphs_per_kj)},
    ]
    print(render_table(rows, title="I-GCN vs AWB-GCN (Cora, GCN-algo)"))
    print(f"\nspeedup over AWB-GCN: "
          f"{awb.latency_us / report.latency_us:.2f}x (paper: 1.8x)")


if __name__ == "__main__":
    main()
