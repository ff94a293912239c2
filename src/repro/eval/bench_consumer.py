"""Consumer scaling benchmark: scalar vs batched island execution.

Times the Island Consumer's two backends end-to-end — task assembly
(:meth:`IslandConsumer.prepare`) plus a full 2-layer GCN pass in
performance mode — over the same hub-and-island graph ladder the
locator benchmark uses (~1e3 to ~2e6 undirected edges).  The
islandization itself is computed once per tier with the batched
locator and shared by both consumer backends, so the timings isolate
the consumer.

Each tier also *verifies* the exact-equivalence contract: identical
per-layer :class:`~repro.core.consumer.LayerCounts`, DRAM traffic,
ring statistics and DHUB-PRC bank counters — and, on the small tiers,
byte-identical functional outputs — so the perf trajectory in
``BENCH_consumer.json`` can never silently drift from correctness.
On every tier the batched backend's functional output is also checked
against :func:`~repro.models.reference.reference_forward`, an
independent scipy forward pass: ``reference_rel_err`` is
:func:`~repro.models.reference.relative_error`, which the gate holds
to :data:`~repro.models.reference.FUNCTIONAL_RTOL`.

Entry points:

* ``python -m repro bench consumer`` — run tiers, print a table, write
  the JSON record, then apply the locator suite's scaling gate
  (:func:`repro.eval.bench_locator.gate`);
* :func:`run_consumer_bench` — library API.

The JSON schema (one record per file)::

    {"benchmark": "consumer-scale",
     "config": {"seed": ..., "repeats": ..., "c_max": ...,
                "preagg_k": ..., "num_pes": ..., "layers": ...},
     "tiers": [{"tier": "1e4", "nodes": ..., "edges": ...,
                "islands": ..., "hubs": ...,
                "scalar_s": ..., "batched_s": ..., "speedup": ...,
                "equal": true, "functional_verified": true,
                "reference_rel_err": ...}, ...],
     "largest_tier": "...", "largest_speedup": ...}
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import ConsumerConfig, LocatorConfig
from repro.core.consumer import IslandConsumer, execution_mismatch
from repro.core.interhub import build_interhub_plan
from repro.core.islandizer import IslandLocator
from repro.eval.bench_locator import BENCH_TIERS, bench_graph
from repro.eval.harness import best_of
from repro.hw.config import IGCN_DEFAULT
from repro.hw.memory import TrafficMeter
from repro.models.configs import gcn_model
from repro.models.reference import (
    normalization_for,
    reference_forward,
    relative_error,
)

__all__ = ["run_consumer_bench"]

#: Undirected-edge ceiling below which functional (byte-identical
#: output) verification also runs; above it, counts-mode verification
#: alone keeps the scalar oracle's share of the wall clock sane.
_FUNCTIONAL_EDGE_LIMIT = 30_000


def _run_consumer(result, norm, plan, model, *, backend, preagg_k, num_pes,
                  x=None, weights=None):
    """One end-to-end pass: task assembly + every layer.

    Returns ``(per-layer (execution, meter) list, ring stats)``;
    functional when ``x``/``weights`` are supplied.
    """
    consumer = IslandConsumer(
        ConsumerConfig(preagg_k=preagg_k, num_pes=num_pes, backend=backend),
        IGCN_DEFAULT,
    )
    tasks = consumer.prepare(result, add_self_loops=norm.add_self_loops)
    layers = []
    current = x
    for idx, layer in enumerate(model.layers):
        meter = TrafficMeter()
        execution = consumer.run_layer(
            result, tasks, plan, norm, layer,
            layer_index=idx, meter=meter,
            x=current if x is not None else None,
            w=weights[idx] if weights is not None else None,
            feature_density=0.5 if idx == 0 else 1.0,
            final_layer=idx == len(model.layers) - 1,
        )
        layers.append((execution, meter))
        if x is not None:
            current = execution.output
    return layers, consumer.ring.stats


def _layers_equal(scalar, batched, *, functional: bool) -> bool:
    """The full equivalence contract between two runs.

    ``scalar`` and ``batched`` are :func:`_run_consumer` results.

    Per-layer fields delegate to the shared
    :func:`~repro.core.consumer.execution_mismatch` definition (the
    same one the equivalence test battery asserts), so the benchmark's
    certificate can never check fewer fields than the tests do.
    """
    (scalar_layers, scalar_ring), (batched_layers, batched_ring) = (
        scalar, batched
    )
    if scalar_ring != batched_ring:
        return False
    return all(
        execution_mismatch(
            s_exec, s_meter, b_exec, b_meter, functional=functional
        ) is None
        for (s_exec, s_meter), (b_exec, b_meter) in zip(
            scalar_layers, batched_layers
        )
    )


def run_consumer_bench(
    tiers: Sequence[str] = tuple(BENCH_TIERS),
    *,
    repeats: int = 3,
    seed: int = 7,
    c_max: int = 64,
    preagg_k: int = 6,
    num_pes: int = 8,
) -> dict:
    """Time both consumer backends across ``tiers``; returns the record.

    ``repeats`` applies to the batched backend (best-of); the scalar
    oracle runs ``repeats`` times up to the 1e5 tier and once above it.
    Each tier asserts the exact-equivalence contract in counts mode —
    plus byte-identical functional outputs on the small tiers — and
    records the verdict in the row, next to the batched functional
    output's error against the scipy reference.
    """
    model = gcn_model(32, 8)
    rows: list[dict] = []
    for tier in tiers:
        graph = bench_graph(tier, seed=seed)
        result = IslandLocator(LocatorConfig(c_max=c_max)).run(graph)
        norm = normalization_for(graph, "gcn-sym")
        plan = build_interhub_plan(result, add_self_loops=norm.add_self_loops)

        def run(backend, **features):
            return _run_consumer(
                result, norm, plan, model, backend=backend,
                preagg_k=preagg_k, num_pes=num_pes, **features,
            )

        # One untimed batched pass warms the allocator, as the locator
        # bench does.
        run("batched")
        batched_s, batched = best_of(lambda: run("batched"), repeats)
        scalar_reps = repeats if graph.num_edges < 300_000 else 1
        scalar_s, scalar = best_of(lambda: run("scalar"), scalar_reps)
        equal = _layers_equal(scalar, batched, functional=False)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(graph.num_nodes, model.layers[0].in_dim))
        weights = [
            rng.normal(size=(layer.in_dim, layer.out_dim))
            for layer in model.layers
        ]
        functional = run("batched", x=x, weights=weights)
        final_layer, _ = functional[0][-1]
        reference_rel_err = relative_error(
            final_layer.output, reference_forward(graph, model, x, weights)
        )
        functional_verified = graph.num_edges // 2 <= _FUNCTIONAL_EDGE_LIMIT
        if functional_verified:
            equal = equal and _layers_equal(
                run("scalar", x=x, weights=weights), functional,
                functional=True,
            )

        rows.append(
            {
                "tier": tier,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges // 2,
                "islands": result.num_islands,
                "hubs": result.num_hubs,
                "scalar_s": round(scalar_s, 4),
                "batched_s": round(batched_s, 4),
                "speedup": round(scalar_s / batched_s, 2) if batched_s else None,
                "equal": equal,
                "functional_verified": functional_verified,
                "reference_rel_err": float(f"{reference_rel_err:.3g}"),
            }
        )
    largest = rows[-1] if rows else None
    return {
        "benchmark": "consumer-scale",
        "config": {
            "seed": seed,
            "repeats": repeats,
            "c_max": c_max,
            "preagg_k": preagg_k,
            "num_pes": num_pes,
            "layers": [
                [layer.in_dim, layer.out_dim] for layer in model.layers
            ],
            "verified": True,
        },
        "tiers": rows,
        "largest_tier": largest["tier"] if largest else None,
        "largest_speedup": largest["speedup"] if largest else None,
    }
