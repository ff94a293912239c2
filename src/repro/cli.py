"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       simulate one inference (any platform) and print the report
``islandize`` run only the Island Locator and print round statistics
``compare``   cross-platform comparison on one dataset
``sweep``     batched datasets × models × platforms sweep (optionally
              process-parallel) through the runtime Engine
``bench``     scaling benchmarks: the ``locator``/``consumer`` suites
              time scalar vs batched backends (BENCH_locator.json,
              BENCH_consumer.json); the ``event`` suite records the
              staged, streamed and discrete-event pipeline cycles —
              the Fig. 3 overlap win — from one report per tier
              (BENCH_event.json); the ``pincr`` suite times
              shard-routed incremental updates against full fleet
              re-records (BENCH_pincr.json).  Every record is written,
              then checked by its suite's ``gate()``
              (``repro.eval.suites``)
``spy``       ASCII spy plot of a dataset before/after islandization
``experiments`` regenerate every paper table/figure (slow)
``cache``     inspect, clear, or size-evict the persistent artifact
              store
``queue``     durable experiment queue (sweep-as-a-service): define a
              grid once, drain it with any number of crash-tolerant
              worker processes, inspect/retry/reap it
``docs``      regenerate generated documentation (``docs cli`` writes
              docs/cli.md from this parser; ``--check`` verifies it)

All simulation goes through the runtime registry
(``repro.runtime.get_simulator``); artifact caching and batching go
through ``repro.runtime.Engine``.  ``run``/``compare``/``sweep``/
``experiments`` accept ``--cache-dir DIR`` (or the ``REPRO_CACHE_DIR``
environment variable) to persist the engine's artifact caches on disk,
so repeated invocations warm-start instead of re-islandizing.

Examples
--------
::

    python -m repro run --dataset cora --model gcn
    python -m repro run --dataset cora --platform hygcn
    python -m repro islandize --dataset citeseer --cmax 32
    python -m repro compare --dataset pubmed
    python -m repro sweep --datasets cora citeseer --platforms igcn awb
    python -m repro sweep --datasets cora pubmed --parallel 4 --cache-dir ~/.cache/repro
    python -m repro sweep --datasets cora --format json --output rows.json
    python -m repro bench consumer --tiers 1e3 1e4
    python -m repro cache stats
    python -m repro cache evict --max-size 500M
    python -m repro queue submit --db grid.sqlite --datasets cora citeseer
    python -m repro queue work --db grid.sqlite &   # any number of these
    python -m repro queue status --db grid.sqlite --format json
    python -m repro spy --dataset cora
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import json

from repro.core import ConsumerConfig, IGCNAccelerator, LocatorConfig
from repro.errors import ReproError, SimulationError
from repro.eval import render_rows, render_table, spy
from repro.eval.experiments import (
    experiment_fig9,
    experiment_fig10,
    experiment_fig11,
    experiment_fig12,
    experiment_fig13,
    experiment_fig14,
    experiment_table1,
    experiment_table2,
    shared_engine,
)
from repro.eval.harness import full_ladder
from repro.eval.suites import SUITES
from repro.eval.tables import ROW_FORMATS
from repro.graph import dataset_names, load_dataset
from repro.models import build_model
from repro.runtime import (
    DiskStore,
    Engine,
    ExperimentQueue,
    default_cache_dir,
    default_queue_path,
    get_simulator,
    resolve_name,
    simulator_aliases,
    simulator_names,
    work,
)

__all__ = ["main", "build_parser"]

#: I-GCN knob defaults, shared between the parser and the
#: "flag only applies to igcn" guard in _cmd_run.
_DEFAULT_PREAGG_K = 6
_DEFAULT_CMAX = 64
#: Defaults of the ``repro bench`` flags that only some suites take
#: (``Suite.flags``); a suite that does not take one rejects it when it
#: is set off its default.
_BENCH_FLAG_DEFAULTS = {
    "preagg_k": _DEFAULT_PREAGG_K, "partitions": 4, "workers": None,
    "partition_strategy": "separator", "max_edges": None,
    "delta_seed": 11, "graph_dir": None,
}
#: ``repro bench`` destinations whose runner keyword differs.
_BENCH_KWARGS = {"cmax": "c_max", "partition_strategy": "strategy"}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="I-GCN (MICRO 2021) reproduction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=dataset_names(), default="cora")
        p.add_argument("--scale", type=float, default=None,
                       help="node-count multiplier (default: per-dataset)")
        p.add_argument("--seed", type=int, default=7)

    def add_cache_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persist artifact caches under DIR so later "
                            "invocations warm-start (default: "
                            "$REPRO_CACHE_DIR if set, else no disk cache)")

    def add_locator_backend_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--locator-backend", choices=["batched", "scalar"],
                       default="batched",
                       help="TP-BFS implementation: the vectorized batched "
                            "kernel (default) or the scalar oracle loop; "
                            "results are identical, only speed differs")
        p.add_argument("--partitions", type=int, default=1,
                       help="shard the graph and islandize shards in "
                            "parallel worker processes (default: 1 = "
                            "monolithic; >1 trades islandization quality "
                            "for wall clock and peak memory, see "
                            "docs/architecture.md)")
        p.add_argument("--partition-strategy", choices=["separator", "range"],
                       default="separator",
                       help="how --partitions > 1 splits the graph: "
                            "'separator' (default) cuts at degree-ordered "
                            "vertex separators so no island-able edge "
                            "crosses shards; 'range' is the naive "
                            "contiguous-id baseline")

    def add_backend_arg(p: argparse.ArgumentParser) -> None:
        add_locator_backend_arg(p)
        # Only commands with a consumer phase take --consumer-backend
        # (islandize stops at the locator; a silently ignored flag
        # would mislead).
        p.add_argument("--consumer-backend", choices=["batched", "scalar"],
                       default="batched",
                       help="Island Consumer implementation: the vectorized "
                            "multi-island kernel (default) or the scalar "
                            "per-island oracle loop; counts, traffic and "
                            "outputs are identical, only speed differs")
        p.add_argument("--pipeline", choices=["streamed", "staged", "event"],
                       default="streamed",
                       help="cycle model of the locator/consumer pipeline; "
                            "every mode consumes islands per locator round "
                            "as they form: 'streamed' (default) reports the "
                            "overlapped cycles (the paper's Fig. 3), "
                            "'staged' the back-to-back sum of the two "
                            "phases, 'event' refines the streamed model to "
                            "a discrete-event simulation (per-island "
                            "release, PE contention, ring/PRC arbitration) "
                            "and adds per-island p50/p99 latency; counts, "
                            "traffic and outputs are identical in every "
                            "mode, only the cycle model differs")

    # Accept aliases too, so platform names printed by compare/sweep
    # ("awb-gcn", ...) round-trip as input.
    platform_choices = simulator_names() + simulator_aliases()

    run = sub.add_parser("run", help="simulate one inference")
    add_dataset_args(run)
    run.add_argument("--platform", choices=platform_choices, default="igcn",
                     help="which registered simulator to run")
    run.add_argument("--model", choices=["gcn", "graphsage", "gin"],
                     default="gcn")
    run.add_argument("--variant", choices=["algo", "hy"], default="algo")
    run.add_argument("--preagg-k", type=int, default=_DEFAULT_PREAGG_K)
    run.add_argument("--cmax", type=int, default=_DEFAULT_CMAX)
    run.add_argument("--functional", action="store_true",
                     help="execute real math and verify vs reference "
                          "(igcn only; exit 2 when the relative error "
                          "exceeds 1e-9)")
    run.add_argument("--validate", action="store_true",
                     help="replay the event trace through the conformance "
                          "validator after the run (requires --pipeline "
                          "event): causality, PE exclusivity, port "
                          "capacity, cache occupancy and work conservation")
    add_cache_arg(run)
    add_backend_arg(run)

    isl = sub.add_parser("islandize", help="run only the Island Locator")
    add_dataset_args(isl)
    isl.add_argument("--cmax", type=int, default=64)
    isl.add_argument("--th0", type=int, default=None)
    isl.add_argument("--decay", type=float, default=0.5)
    isl.add_argument("--delta", metavar="FILE", default=None,
                     help="apply a GraphDelta archive (.npz) to the "
                          "dataset and maintain the islandization "
                          "incrementally instead of re-running it; "
                          "prints the updated round table plus the "
                          "dirty-region telemetry")
    add_locator_backend_arg(isl)

    cmp_ = sub.add_parser("compare", help="cross-platform comparison")
    add_dataset_args(cmp_)
    cmp_.add_argument("--variant", choices=["algo", "hy"], default="algo")
    add_cache_arg(cmp_)
    add_backend_arg(cmp_)

    swp = sub.add_parser(
        "sweep", help="batched datasets x models x platforms sweep"
    )
    swp.add_argument("--datasets", nargs="+", choices=dataset_names(),
                     default=list(dataset_names()),
                     help="datasets to sweep (default: all five)")
    swp.add_argument("--platforms", nargs="+", choices=platform_choices,
                     default=["igcn", "awb", "hygcn", "sigma"],
                     help="registered platforms to sweep")
    swp.add_argument("--models", nargs="+", default=["gcn"],
                     help="model specs, 'family' or 'family:variant' "
                          "(e.g. gcn gcn:hy gin)")
    swp.add_argument("--variant", choices=["algo", "hy"], default="algo",
                     help="default variant for specs without one")
    swp.add_argument("--scale", type=float, default=None)
    swp.add_argument("--seed", type=int, default=7)
    swp.add_argument("--parallel", type=int, default=0,
                     help="process-pool workers (0 = serial); with "
                          "--queue, the number of local queue workers")
    swp.add_argument("--queue", metavar="FILE", default=None,
                     help="route the sweep through the durable "
                          "experiment queue at FILE: the grid is "
                          "submitted idempotently (a restart resumes, "
                          "done cells are never re-run), --parallel "
                          "local workers plus this process drain it, "
                          "and the rows fold back identically to the "
                          "in-process path")
    swp.add_argument("--format", choices=list(ROW_FORMATS), default="table",
                     help="row output format (default: table)")
    swp.add_argument("--output", metavar="FILE", default=None,
                     help="write formatted rows to FILE instead of stdout")
    add_cache_arg(swp)
    add_backend_arg(swp)

    bench = sub.add_parser(
        "bench", help="performance benchmarks (backends and pipeline modes)"
    )
    bench.add_argument("suite",
                       choices=list(SUITES),
                       help="benchmark suite to run: locator/consumer time "
                            "scalar vs batched backends, event runs the "
                            "discrete-event pipeline against its "
                            "streamed/staged sandwich bounds and records "
                            "the modelled overlap win plus per-island "
                            "p50/p99 latency, partition times "
                            "monolithic vs sharded islandization in fresh "
                            "processes and records peak RSS plus the "
                            "quality delta, incremental times delta-driven "
                            "island maintenance vs from-scratch rebuilds "
                            "across a ladder of delta sizes, pincr times "
                            "shard-routed incremental updates vs full "
                            "fleet re-records on one warm shard fleet")
    tier_choices = list(dict.fromkeys(
        tier for suite in SUITES.values() for tier in suite.ladder
    ))
    bench.add_argument("--tiers", nargs="+", choices=tier_choices,
                       default=None,
                       help="graph-scale tiers by undirected edge count "
                            "(default: every tier of the chosen suite; "
                            "locator/consumer/event ladder ends at 2e6, "
                            "the partition ladder is 2e5/2e6/2e7; the "
                            "incremental suite's tiers are *delta sizes* "
                            "1e1/1e3/1e5 on one ~2e6-entry graph)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="best-of repeats for the batched backend")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--cmax", type=int, default=64)
    bench.add_argument("--preagg-k", type=int,
                       help="consumer/event suites: pre-aggregation window "
                            "width")
    bench.add_argument("--partitions", type=int,
                       help="partition/pincr suites: shard count for the "
                            "partitioned contender (pincr real runs use "
                            "--partitions 6 to match BENCH_partition)")
    bench.add_argument("--workers", type=int,
                       help="partition/pincr suites: worker processes "
                            "(default: --partitions)")
    bench.add_argument("--partition-strategy",
                       choices=["separator", "range"],
                       help="partition/pincr suites: graph-splitting "
                            "strategy")
    bench.add_argument("--max-edges", type=int,
                       help="partition/incremental/pincr suites: cap the "
                            "target edge count so the big tiers smoke-run "
                            "small (CI uses this; the cap is recorded in "
                            "the JSON — the delta suites cap their big "
                            "deltas to match)")
    bench.add_argument("--delta-seed", type=int,
                       help="incremental/pincr suites: RNG seed of the "
                            "churn deltas (each tier draws from a fresh "
                            "generator at this seed)")
    bench.add_argument("--graph-dir", metavar="DIR",
                       help="partition/pincr suites: cache generated "
                            "benchmark graphs under DIR (default: a "
                            "shared temp directory)")
    bench.set_defaults(**_BENCH_FLAG_DEFAULTS)
    bench.add_argument("--output", metavar="FILE", default=None,
                       help="JSON record destination (default: "
                            "BENCH_<suite>.json, which only a run of the "
                            "suite's full, uncapped ladder may replace). "
                            "The record is written, then gated: a failed "
                            "gate exits 1")

    spy_ = sub.add_parser("spy", help="ASCII spy plot, before/after")
    add_dataset_args(spy_)
    spy_.add_argument("--resolution", type=int, default=48)

    exp = sub.add_parser("experiments", help="regenerate all paper results")
    exp.add_argument(
        "--only",
        choices=["table1", "table2", "fig9", "fig10", "fig11", "fig12",
                 "fig13", "fig14"],
        default=None,
    )
    add_cache_arg(exp)

    cache = sub.add_parser(
        "cache", help="inspect, clear, or size-evict the artifact store"
    )
    cache.add_argument("action", choices=["stats", "clear", "evict",
                                          "verify", "gc"],
                       help="stats: per-kind entry counts and bytes; "
                            "clear: delete every persisted artifact; "
                            "evict: drop least-recently-written artifacts "
                            "until the store fits --max-size; "
                            "verify: sweep the store for orphaned or "
                            "corrupt files and report them (--repair "
                            "deletes them); "
                            "gc: remove everything outside the current "
                            "store version — earlier versions, retired "
                            "kinds, tmp debris and foreign files "
                            "(--dry-run reports without deleting)")
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="store location (default: $REPRO_CACHE_DIR, "
                            "else ~/.cache/repro)")
    cache.add_argument("--max-size", metavar="SIZE", default=None,
                       help="evict: size budget as bytes or with a K/M/G "
                            "suffix (e.g. 500M, 1.5G)")
    cache.add_argument("--repair", action="store_true",
                       help="verify: delete every orphaned or corrupt "
                            "file found (default: report only)")
    cache.add_argument("--dry-run", action="store_true",
                       help="gc: report what would be removed without "
                            "deleting anything")

    queue = sub.add_parser(
        "queue",
        help="durable experiment queue: crash-tolerant sweeps as a "
             "service",
    )
    queue.add_argument("action",
                       choices=["submit", "work", "status", "retry",
                                "reap"],
                       help="submit: define (or idempotently re-assert) "
                            "a datasets x models x platforms grid of "
                            "experiment cells; "
                            "work: claim cells one at a time — "
                            "heartbeating the lease, simulating through "
                            "the shared artifact store — until the "
                            "queue drains (run any number of these, on "
                            "any host sharing the db and cache dir); "
                            "status: per-status cell counts plus "
                            "quarantined-error detail (exit 1 if any "
                            "error cells); "
                            "retry: requeue quarantined error cells "
                            "with a fresh attempt budget; "
                            "reap: requeue claimed cells whose lease "
                            "expired (workers also reap on every claim)")
    queue.add_argument("--db", metavar="FILE", default=None,
                       help="queue database (default: $REPRO_QUEUE_DB "
                            "if set, else ./.repro-queue.sqlite)")
    queue.add_argument("--datasets", nargs="+", choices=dataset_names(),
                       default=None,
                       help="submit: datasets to grid (default: all "
                            "five)")
    queue.add_argument("--platforms", nargs="+", choices=platform_choices,
                       default=None,
                       help="submit: platforms to grid (default: igcn "
                            "awb hygcn sigma)")
    queue.add_argument("--models", nargs="+", default=None,
                       help="submit: model specs, 'family' or "
                            "'family:variant' (default: gcn)")
    queue.add_argument("--variant", choices=["algo", "hy"], default="algo",
                       help="submit: default variant for specs without "
                            "one")
    queue.add_argument("--scale", type=float, default=None,
                       help="submit: node-count multiplier")
    queue.add_argument("--seed", type=int, default=7,
                       help="submit: dataset RNG seed")
    queue.add_argument("--lease", type=float, default=None,
                       help="claim lease in seconds: submit persists it "
                            "as the queue-wide default; work overrides "
                            "it for its own claims")
    queue.add_argument("--max-attempts", type=int, default=None,
                       help="submit: per-cell retry budget before a "
                            "failing cell is quarantined as 'error' "
                            "(queue-wide, default 3)")
    queue.add_argument("--backoff", type=float, default=None,
                       help="submit: base of the exponential retry "
                            "backoff in seconds (queue-wide, default "
                            "0.5)")
    queue.add_argument("--max-cells", type=int, default=None,
                       help="work: exit after this many cells instead "
                            "of draining the queue")
    queue.add_argument("--no-wait", action="store_true",
                       help="work: exit as soon as no cell is claimable "
                            "instead of outliving other workers' leases")
    queue.add_argument("--timeout", type=float, default=None,
                       help="work: wall-clock bound in seconds")
    queue.add_argument("--format", choices=["table", "json"],
                       default="table",
                       help="status: output format (json prints the "
                            "counts/expired/errors summary CI gates on)")
    add_cache_arg(queue)
    add_backend_arg(queue)

    docs = sub.add_parser(
        "docs", help="regenerate generated documentation"
    )
    docs.add_argument("target", choices=["cli"],
                      help="cli: the command-line reference "
                           "(docs/cli.md), rendered from this parser")
    docs.add_argument("--output", metavar="FILE", default="docs/cli.md",
                      help="destination file (default: docs/cli.md)")
    docs.add_argument("--check", action="store_true",
                      help="verify the file is up to date instead of "
                           "writing it (exit 1 on drift; CI docs-check "
                           "runs this)")
    return parser


def _parse_size(text: str) -> int:
    """``"500M"``/``"1.5G"``/plain bytes → byte count."""
    units = {"k": 1_000, "m": 1_000_000, "g": 1_000_000_000}
    cleaned = text.strip().lower().rstrip("b")
    factor = 1
    if cleaned and cleaned[-1] in units:
        factor = units[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = float(cleaned)
    except ValueError:
        raise ReproError(f"unparsable size {text!r} (try 500M or 2G)") from None
    if not math.isfinite(value) or value < 0:
        raise ReproError(f"size must be a non-negative finite number "
                         f"(got {text!r})")
    return int(value * factor)


def _resolve_cache_dir(args: argparse.Namespace) -> str | None:
    """--cache-dir flag, else REPRO_CACHE_DIR, else None (memory only)."""
    return args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None


def _locator_kwargs(args: argparse.Namespace) -> dict:
    """Locator knobs shared by every command with a locator phase."""
    return {
        "backend": args.locator_backend,
        "partitions": args.partitions,
        "partition_strategy": args.partition_strategy,
    }


def _cmd_run(args) -> int:
    platform = resolve_name(args.platform)
    if args.functional and platform != "igcn":
        raise SimulationError("--functional is only supported on igcn")
    if args.validate and (platform != "igcn" or args.pipeline != "event"):
        raise SimulationError(
            "--validate replays an event trace and requires "
            "--platform igcn --pipeline event"
        )
    if platform != "igcn" and (
        args.cmax != _DEFAULT_CMAX or args.preagg_k != _DEFAULT_PREAGG_K
    ):
        raise SimulationError(
            "--cmax/--preagg-k configure the I-GCN locator/consumer and "
            "only apply with --platform igcn"
        )
    # The engine supplies cached artifacts (datasets, islandizations);
    # with --cache-dir they persist, so a repeated run warm-starts.
    engine = Engine(
        locator=LocatorConfig(**_locator_kwargs(args)),
        consumer=ConsumerConfig(backend=args.consumer_backend,
                                pipeline=args.pipeline),
        cache_dir=_resolve_cache_dir(args),
    )
    ds = engine.dataset(args.dataset, scale=args.scale, seed=args.seed,
                        with_features=args.functional)
    model_kwargs = {} if args.model == "gin" else {"variant": args.variant}
    model = build_model(args.model, ds.num_features, ds.num_classes,
                        **model_kwargs)
    if platform == "igcn":
        sim = get_simulator(
            "igcn",
            locator=LocatorConfig(c_max=args.cmax, **_locator_kwargs(args)),
            consumer=ConsumerConfig(preagg_k=args.preagg_k,
                                    backend=args.consumer_backend,
                                    pipeline=args.pipeline),
        )
        report = sim.simulate(
            ds.graph, model, feature_density=ds.feature_density,
            engine=engine,
            functional=args.functional,
            features=ds.features if args.functional else None,
        )
    else:
        report = get_simulator(platform).simulate(
            ds.graph, model, feature_density=ds.feature_density, engine=engine
        )
    title = ("I-GCN" if platform == "igcn" else report.platform)
    print(render_table([report.summary()], title=f"{title} on {ds.name}"))
    if args.validate:
        from repro.core.event_sim import validate_trace

        validate_trace(report.event)
        sim = report.event
        print(f"event trace valid: {len(sim.trace)} events, "
              f"{len(sim.islands)} units, makespan "
              f"{sim.makespan:.1f} cycles")
    if args.functional:
        import numpy as np

        from repro.models import (
            FUNCTIONAL_RTOL,
            init_weights,
            reference_forward,
            relative_error,
        )

        ref = reference_forward(
            ds.graph.without_self_loops(), model, ds.features,
            init_weights(model, seed=0),
        )
        err = float(np.max(np.abs(report.outputs - ref), initial=0.0))
        rel = relative_error(report.outputs, ref)
        print(f"max |islandized - reference| = {err:.2e} "
              f"({rel:.2e} relative)")
        if not rel <= FUNCTIONAL_RTOL:
            raise SimulationError(
                f"islandized output differs from the reference by "
                f"{rel:.2e} relative (tolerance {FUNCTIONAL_RTOL:g})"
            )
    return 0


def _cmd_islandize(args) -> int:
    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = LocatorConfig(c_max=args.cmax, th0=args.th0, decay=args.decay,
                           incremental=args.delta is not None,
                           **_locator_kwargs(args))
    update = None
    if args.delta is not None:
        from repro.graph.csr import GraphDelta
        from repro.runtime import Engine

        delta = GraphDelta.from_npz(args.delta)
        engine = Engine(locator=config)
        update = engine.update(ds.graph, delta)
        result = update.result
    else:
        result = IGCNAccelerator(locator=config).islandize(ds.graph)
    result.validate()
    rows = [
        {
            "round": r.round_id,
            "threshold": r.threshold,
            "remaining": r.nodes_remaining,
            "hubs": r.hubs_found,
            "islands": r.islands_found,
            "islanded": r.nodes_islanded,
            "cmax_drops": r.tasks_dropped_cmax,
        }
        for r in result.rounds
    ]
    title = (f"islandization of {ds.name} (after {args.delta})"
             if update is not None else f"islandization of {ds.name}")
    print(render_table(rows, title=title))
    print(f"\ntotal: {result.num_islands} islands, {result.num_hubs} hubs "
          f"({result.hub_fraction:.1%}), "
          f"{len(result.interhub_edges)} inter-hub edges; "
          f"edge coverage validated")
    if update is not None:
        how = (f"full rebuild ({update.fallback_reason})" if update.fallback
               else "incremental splice")
        shards = getattr(update, "dirty_shards", None)
        extra = (f", {len(shards)} dirty shard(s) "
                 f"{sorted(shards)}" if shards is not None else "")
        print(f"delta: {how}; dirty {update.dirty_nodes} nodes, "
              f"region {update.region_nodes} nodes{extra}")
    return 0


def _cmd_compare(args) -> int:
    engine = Engine(
        locator=LocatorConfig(**_locator_kwargs(args)),
        consumer=ConsumerConfig(backend=args.consumer_backend,
                                pipeline=args.pipeline),
        cache_dir=_resolve_cache_dir(args),
    )
    ds = engine.dataset(args.dataset, scale=args.scale, seed=args.seed)
    model = build_model("gcn", ds.num_features, ds.num_classes,
                        variant=args.variant)
    igcn = engine.simulate("igcn", ds, model)
    rows = []
    for name in simulator_names():
        if name in ("pull", "push"):
            # Idealized dataflow characterization models (Table 1), not
            # part of the paper's cross-platform comparison set.
            continue
        rep = engine.simulate(name, ds, model)
        rows.append({
            "platform": rep.platform,
            "latency_us": round(rep.latency_us, 2),
            "speedup": round(rep.latency_us / igcn.latency_us, 2),
            "dram_mb": round(rep.offchip_bytes / 1e6, 3),
        })
    print(render_table(rows, title=f"cross-platform on {ds.name} "
                                   f"(GCN-{args.variant})"))
    return 0


def _cmd_sweep(args) -> int:
    engine = Engine(
        locator=LocatorConfig(**_locator_kwargs(args)),
        consumer=ConsumerConfig(backend=args.consumer_backend,
                                pipeline=args.pipeline),
        cache_dir=_resolve_cache_dir(args),
    )
    rows = engine.sweep(
        args.datasets,
        args.platforms,
        models=args.models,
        variant=args.variant,
        scale=args.scale,
        seed=args.seed,
        parallel=args.parallel or None,
        queue=args.queue,
    )
    title = (
        f"sweep: {len(args.datasets)} datasets x {len(args.models)} models "
        f"x {len(args.platforms)} platforms"
    )
    text = render_rows(rows, args.format, title=title)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        print(text)
    # Worker deltas are folded back into the engine, so the counters are
    # meaningful for parallel runs too.  Keep machine-readable stdout
    # clean: the stats line moves to stderr for csv/json on stdout.
    stats = engine.cache_stats()
    stats_line = (
        f"cache: islandizations computed {stats['islandization'].misses}, "
        f"reused {stats['islandization'].hits}; datasets loaded "
        f"{stats['dataset'].misses}; summary rows reused "
        f"{stats['summary'].hits} of {stats['summary'].total}; task chunks "
        f"assembled {stats['tasks'].misses}, reused {stats['tasks'].hits}"
    )
    stream = sys.stderr if (args.format != "table" and not args.output) else sys.stdout
    print(f"\n{stats_line}" if stream is sys.stdout else stats_line, file=stream)
    # Fault-recovery events (a pool worker died, a queue worker exited
    # nonzero) degrade performance, never correctness — the rows above
    # are complete either way — but an operator should see them.
    for note in engine.degradations:
        detail = ", ".join(
            f"{key}={value}" for key, value in note.items() if key != "event"
        )
        print(f"degraded: {note['event']} ({detail}) — recovered, "
              f"rows complete", file=stream)
    return 0


def _cmd_cache(args) -> int:
    # default_cache_dir() already prefers $REPRO_CACHE_DIR when set.
    store = DiskStore(args.cache_dir or default_cache_dir())
    if args.repair and args.action != "verify":
        raise ReproError("--repair only applies to cache verify")
    if args.dry_run and args.action != "gc":
        raise ReproError("--dry-run only applies to cache gc")
    if args.action == "gc":
        report = store.gc(dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(f"artifact store at {report.root}: "
              f"{report.live} reachable artifacts")
        for path in report.removed:
            print(f"  {verb}: {path}")
        print(f"{verb} {len(report.removed)} files "
              f"({report.freed / 1e6:.3f} MB)")
        return 0
    if args.action == "verify":
        report = store.verify(repair=args.repair)
        print(f"artifact store at {report.root}: "
              f"{report.ok} artifacts intact, "
              f"{len(report.orphaned)} orphaned, "
              f"{len(report.corrupt)} corrupt")
        for label, paths in (("orphaned", report.orphaned),
                             ("corrupt", report.corrupt)):
            for path in paths:
                print(f"  {label}: {path}")
        if args.repair:
            print(f"removed {report.removed} files")
        elif not report.clean:
            print("run `repro cache verify --repair` to delete them")
        return 0 if (report.clean or args.repair) else 1
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} artifacts from {store.root}")
        return 0
    if args.action == "evict":
        if args.max_size is None:
            raise ReproError("cache evict needs --max-size (e.g. 500M)")
        removed, freed = store.evict(_parse_size(args.max_size))
        kept = sum(size for _, size in store.entries().values())
        print(f"evicted {removed} artifacts ({freed / 1e6:.3f} MB) from "
              f"{store.root}; {kept / 1e6:.3f} MB kept")
        return 0
    entries = store.entries()
    if not entries:
        print(f"artifact store at {store.root}: empty")
        return 0
    rows = [
        {"kind": kind, "entries": count, "mb": round(size / 1e6, 3)}
        for kind, (count, size) in entries.items()
    ]
    total = sum(size for _, size in entries.values())
    print(render_table(rows, title=f"artifact store at {store.root}"))
    print(f"\ntotal: {sum(c for c, _ in entries.values())} artifacts, "
          f"{total / 1e6:.3f} MB")
    return 0


#: Which ``repro queue`` flags each action consumes; anything set off
#: its default for a non-consuming action raises instead of being
#: silently ignored (same guard idiom as ``repro cache``/``bench``).
_QUEUE_FLAG_ACTIONS = {
    "datasets": ("submit",), "platforms": ("submit",),
    "models": ("submit",), "variant": ("submit",), "scale": ("submit",),
    "seed": ("submit",), "max_attempts": ("submit",),
    "backoff": ("submit",), "locator_backend": ("submit",),
    "partitions": ("submit",), "partition_strategy": ("submit",),
    "consumer_backend": ("submit",), "pipeline": ("submit",),
    "lease": ("submit", "work"), "cache_dir": ("submit", "work"),
    "max_cells": ("work",), "no_wait": ("work",), "timeout": ("work",),
    "format": ("status",),
}

_QUEUE_FLAG_DEFAULTS = {
    "variant": "algo", "seed": 7, "locator_backend": "batched",
    "partitions": 1, "partition_strategy": "separator",
    "consumer_backend": "batched", "pipeline": "streamed",
    "no_wait": False, "format": "table",
}


def _cmd_queue(args) -> int:
    for flag, actions in _QUEUE_FLAG_ACTIONS.items():
        if args.action in actions:
            continue
        if getattr(args, flag) != _QUEUE_FLAG_DEFAULTS.get(flag):
            raise ReproError(
                f"--{flag.replace('_', '-')} only applies to "
                f"repro queue {'/'.join(actions)}"
            )
    path = args.db or default_queue_path()
    if args.action != "submit" and not Path(path).exists():
        # Opening would create an empty queue and e.g. `work` would
        # "drain" it instantly — turn the typo into a clean error.
        raise ReproError(
            f"no queue database at {path} — run `repro queue submit` "
            f"first (or pass the right --db)"
        )

    if args.action == "submit":
        policy = {
            key: value
            for key, value in (("lease_s", args.lease),
                               ("max_attempts", args.max_attempts),
                               ("backoff_s", args.backoff))
            if value is not None
        }
        with ExperimentQueue(path, **policy) as q:
            report = q.submit(
                args.datasets or list(dataset_names()),
                args.platforms or ["igcn", "awb", "hygcn", "sigma"],
                models=args.models or ["gcn"],
                variant=args.variant,
                scale=args.scale,
                seed=args.seed,
                locator=LocatorConfig(**_locator_kwargs(args)),
                consumer=ConsumerConfig(backend=args.consumer_backend,
                                        pipeline=args.pipeline),
                cache_dir=_resolve_cache_dir(args),
            )
        print(f"queue {path}: grid of {len(report.cell_ids)} cells "
              f"({report.added} added, {report.reused} already present)")
        print("drain it with `repro queue work"
              + (f" --db {args.db}`" if args.db else "`")
              + " — as many of them as you like")
        return 0

    if args.action == "work":
        report = work(
            path,
            cache_dir=_resolve_cache_dir(args),
            lease_s=args.lease,
            max_cells=args.max_cells,
            wait=not args.no_wait,
            timeout_s=args.timeout,
        )
        print(f"worker {report.owner}: {report.done} done, "
              f"{report.failed} failed, {report.lost} lost leases")
        return 0 if report.failed == 0 else 1

    with ExperimentQueue(path) as q:
        if args.action == "retry":
            requeued = q.retry()
            print(f"requeued {requeued} quarantined cell(s) with a "
                  f"fresh attempt budget")
            return 0
        if args.action == "reap":
            reaped = q.reap()
            print(f"reaped {len(reaped)} expired lease(s)"
                  + (f": cells {reaped}" if reaped else ""))
            return 0
        status = q.status()
    if args.format == "json":
        print(json.dumps({
            "path": status.path,
            "counts": status.counts,
            "total": status.total,
            "expired": status.expired,
            "drained": status.drained,
            "errors": status.errors,
        }, indent=2))
    else:
        rows = [{"status": name, "cells": status.counts[name]}
                for name in ("pending", "claimed", "done", "error")]
        print(render_table(rows, title=f"queue at {status.path} "
                                       f"({status.total} cells)"))
        if status.expired:
            print(f"\n{status.expired} claimed cell(s) past their lease "
                  f"— the next claim (or `repro queue reap`) requeues "
                  f"them")
        for err in status.errors:
            last = (err["error"] or "").strip().splitlines()
            print(f"  quarantined cell {err['id']} "
                  f"({err['dataset']}/{err['model']}/{err['platform']}, "
                  f"{err['attempts']} attempts)"
                  + (f": {last[-1]}" if last else ""))
        if status.errors:
            print("rerun them with `repro queue retry`")
        elif status.drained:
            print("\nqueue drained: every cell is done")
    return 0 if status.counts["error"] == 0 else 1


def _cmd_bench(args) -> int:
    suite = SUITES[args.suite]
    for flag, default in _BENCH_FLAG_DEFAULTS.items():
        if flag not in suite.flags and getattr(args, flag) != default:
            # Silently ignoring another suite's knob would mislead.
            takers = [name for name, other in SUITES.items()
                      if flag in other.flags]
            raise ReproError(
                f"--{flag.replace('_', '-')} only applies to the "
                f"{', '.join(takers[:-1])} and {takers[-1]} suites"
            )
    tiers = args.tiers or list(suite.ladder)
    output = Path(args.output or f"BENCH_{args.suite}.json")
    planned = {"tiers": [{"tier": tier} for tier in tiers],
               "config": {"max_edges": args.max_edges}}
    if (args.output is None and output.exists()
            and not full_ladder(planned, suite.ladder)):
        # A smoke run must not replace a committed record by accident.
        raise ReproError(
            f"{output} exists and only the full, uncapped {args.suite} "
            f"ladder ({' '.join(suite.ladder)}) may replace it; pass "
            f"--output to write this run elsewhere"
        )
    params = ("repeats", "seed", "cmax", *suite.flags)
    record = suite.run(
        tiers=tiers,
        **{_BENCH_KWARGS.get(p, p): getattr(args, p) for p in params},
    )
    print(suite.table(record))
    # Write the record before gating it: on a failure it is the evidence.
    output.write_text(json.dumps(record, indent=2) + "\n")
    failures = suite.gate(record)
    for failure in failures:
        print(f"error: {output}: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"\nwrote {output}: {suite.headline(record)}")
    return 0


def render_cli_docs() -> str:
    """Render docs/cli.md from the argparse tree (deterministically).

    Each subcommand contributes its ``format_help()`` block, wrapped at
    a fixed width so the output is identical regardless of the
    generating terminal — ``repro docs cli --check`` diffs against the
    committed file byte-for-byte.
    """
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "79"
    try:
        parser = build_parser()
        sub_action = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        lines = [
            "# CLI reference",
            "",
            "<!-- Generated by `python -m repro docs cli`; do not edit by",
            "hand.  CI's docs-check job fails when this file is stale. -->",
            "",
            "All commands run as `python -m repro <command>` (or plain",
            "`repro <command>` after `pip install -e .`).  See",
            "[architecture.md](architecture.md) for what each layer does and",
            "[benchmarks.md](benchmarks.md) for the `bench` suites' records.",
            "",
        ]
        helps = {
            choice.dest: choice.help or ""
            for choice in sub_action._choices_actions
        }
        for name, command in sub_action.choices.items():
            lines.append(f"## `repro {name}`")
            lines.append("")
            summary = helps.get(name, "")
            if summary:
                lines.append(summary[0].upper() + summary[1:] + ".")
                lines.append("")
            lines.append("```text")
            lines.append(command.format_help().rstrip())
            lines.append("```")
            lines.append("")
        return "\n".join(lines)
    finally:
        if previous is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = previous


def _cmd_docs(args) -> int:
    rendered = render_cli_docs()
    path = Path(args.output)
    if args.check:
        current = path.read_text() if path.exists() else None
        if current != rendered:
            print(f"error: {path} is stale — regenerate it with "
                  f"`python -m repro docs cli`", file=sys.stderr)
            return 1
        print(f"{path} is up to date")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rendered)
    print(f"wrote {path}")
    return 0


def _cmd_spy(args) -> int:
    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    base = ds.graph.without_self_loops()
    print(spy(base, resolution=args.resolution,
              title=f"--- {ds.name}: original ---"))
    result = IGCNAccelerator().islandize(ds.graph)
    reordered = base.permute(result.island_permutation())
    print()
    print(spy(reordered, resolution=args.resolution, anti_diagonal=True,
              title=f"--- {ds.name}: islandized ({result.num_rounds} rounds) ---"))
    return 0


def _cmd_experiments(args) -> int:
    cache_dir = _resolve_cache_dir(args)
    if cache_dir is not None:
        shared_engine(cache_dir)
    registry = {
        "table1": experiment_table1,
        "table2": experiment_table2,
        "fig9": experiment_fig9,
        "fig10": experiment_fig10,
        "fig11": experiment_fig11,
        "fig12": experiment_fig12,
        "fig13": experiment_fig13,
        "fig14": experiment_fig14,
    }
    selected = [args.only] if args.only else list(registry)
    for name in selected:
        print(registry[name]().render())
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors (:class:`repro.errors.ReproError`) print as clean
    one-line messages with exit code 2 instead of tracebacks.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "islandize": _cmd_islandize,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "spy": _cmd_spy,
        "experiments": _cmd_experiments,
        "cache": _cmd_cache,
        "queue": _cmd_queue,
        "docs": _cmd_docs,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Filesystem trouble (unwritable --output, read-only cache dir)
        # is an environment problem, not a bug: no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
