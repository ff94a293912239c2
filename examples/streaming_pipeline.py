"""Streamed vs staged pipeline: the Fig. 3 overlap, end to end.

I-GCN's Island Consumer "can process an island as soon as it is
formed" (paper §3.1.1): islandization and GCN processing overlap
instead of running back-to-back.  This example watches the locator's
per-round island stream on a synthetic hub-and-island graph, runs one
inference, and prints the modelled overlap win: every report prices the
staged and the streamed pipeline from the same round schedule.

Run:
    python examples/streaming_pipeline.py
"""

from repro import IGCNAccelerator, gcn_model
from repro.core import IslandLocator
from repro.eval import render_table
from repro.graph import hub_island_graph
from repro.graph.generators import CommunityProfile


def main() -> None:
    # 1. A synthetic hub-and-island graph (the structure the paper's
    #    locator targets), plus a small 2-layer GCN.
    graph, _ = hub_island_graph(
        4000,
        CommunityProfile(island_size_mean=12.0, background_fraction=0.01),
        seed=7,
        name="streaming-demo",
    )
    graph = graph.without_self_loops()
    model = gcn_model(32, 8)
    print(f"graph: {graph.num_nodes} nodes, "
          f"{graph.num_edges // 2} undirected edges")

    # 2. Watch the producer side: the Island Locator streams one
    #    RoundOutput per round — islands finalized that round, handed
    #    to the consumer while later rounds are still running.
    print("\nlocator stream:")
    result = IslandLocator().run(
        graph,
        on_round=lambda chunk: print(
            f"  round {chunk.round_id}: th={chunk.stats.threshold:>3} "
            f"-> {chunk.num_islands} islands, "
            f"{chunk.stats.hubs_found} hubs"
        ),
    )
    print(f"  total: {result.num_islands} islands, {result.num_hubs} hubs "
          f"in {result.num_rounds} rounds")

    # 3. Run the inference once.  Counts, DRAM traffic and outputs do
    #    not depend on the pipeline mode (tests/test_pipeline_stream.py
    #    pins this); the report carries the end-to-end cycles of both
    #    the staged and the streamed overlap model.
    accelerator = IGCNAccelerator()
    report = accelerator.run(graph, model, feature_density=0.5)
    rows = [
        {
            "pipeline": name,
            "locator_cyc": round(report.locator_cycles),
            "consumer_cyc": round(report.consumer_cycles),
            "total_cyc": round(total),
            "latency_us": round(accelerator.hw.cycles_to_us(total), 3),
        }
        for name, total in (
            ("staged", report.staged_cycles),
            ("streamed", report.streamed_cycles),
        )
    ]
    print()
    print(render_table(rows, title="staged vs streamed (one run, two "
                                   "overlap models)"))
    print(f"\noverlap hides {report.overlap_saved_cycles:.0f} cycles: "
          f"{report.staged_cycles / report.streamed_cycles:.2f}x "
          f"end-to-end speedup from streaming (Fig. 3)")


if __name__ == "__main__":
    main()
