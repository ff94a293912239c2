"""Ablations of I-GCN's design choices.

Not a paper figure: sweeps the parameters the paper leaves open
(pre-aggregation width k, island-size cap c_max, threshold decay) and
records their effect on pruning and latency, so the calibrated defaults
are justified by data in the bench log
(docs/architecture.md#open-parameters-and-their-ablations).
"""

import pytest

from repro.core import ConsumerConfig, IGCNAccelerator, LocatorConfig
from repro.eval import render_table
from repro.models import gcn_model


@pytest.fixture(scope="module")
def setup(engine):
    ds = engine.dataset("cora", seed=7)
    model = gcn_model(ds.num_features, ds.num_classes)
    isl = engine.islandization(ds.graph)
    return ds, model, isl


def test_ablation_preagg_k(benchmark, setup):
    ds, model, isl = setup

    def sweep():
        rows = []
        for k in (2, 4, 6, 8, 12):
            acc = IGCNAccelerator(consumer=ConsumerConfig(preagg_k=k))
            rep = acc.run(ds.graph, model, feature_density=ds.feature_density,
                          islandization=isl)
            rows.append({"k": k,
                         "prune_agg": round(rep.aggregation_pruning_rate, 3),
                         "latency_us": round(rep.latency_us, 2)})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation: pre-aggregation width k (cora)"))
    best = max(rows, key=lambda r: r["prune_agg"])
    assert best["k"] in (4, 6, 8)  # the calibrated default region


def test_ablation_cmax(benchmark, setup):
    ds, model, _ = setup

    def sweep():
        rows = []
        for c_max in (4, 16, 64, 256):
            acc = IGCNAccelerator(locator=LocatorConfig(c_max=c_max))
            rep = acc.run(ds.graph, model, feature_density=ds.feature_density)
            rows.append({"c_max": c_max,
                         "islands": rep.islandization.num_islands,
                         "prune_agg": round(rep.aggregation_pruning_rate, 3)})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation: island size cap c_max (cora)"))
    # Tiny caps fragment islands and hurt pruning.
    assert rows[0]["prune_agg"] <= rows[2]["prune_agg"]


def test_ablation_threshold_decay(benchmark, setup):
    ds, model, _ = setup

    def sweep():
        rows = []
        for decay in (0.3, 0.5, 0.7):
            acc = IGCNAccelerator(locator=LocatorConfig(decay=decay))
            rep = acc.run(ds.graph, model, feature_density=ds.feature_density)
            rows.append({"decay": decay,
                         "rounds": rep.islandization.num_rounds,
                         "prune_agg": round(rep.aggregation_pruning_rate, 3),
                         "locator_cycles": round(rep.locator_cycles)})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation: threshold decay (cora)"))
    # Gentler decay -> more rounds.
    assert rows[-1]["rounds"] >= rows[0]["rounds"]
