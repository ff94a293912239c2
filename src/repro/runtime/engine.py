"""The simulation Engine: tiered artifact caching and batched sweeps.

The expensive parts of reproducing the paper's cross-platform tables
(§4.6, Table 2) are *shared* between cells: five datasets × many platforms × several
model variants all reuse the same dataset surrogates, the same
:class:`~repro.core.types.IslandizationResult` per (graph, locator
config), and the same :class:`~repro.models.workload.Workload` per
(graph, model).  :class:`Engine` centralises that reuse behind a
pluggable :class:`~repro.runtime.store.ArtifactStore` stack::

    from repro.runtime import Engine

    engine = Engine()                          # in-memory store
    engine = Engine(cache_dir="~/.cache/repro")  # memory over disk

    rows = engine.sweep(["cora", "citeseer"], ["igcn", "awb"])
    # deterministic dataset-major × model × platform row order

Cache keys are *stable strings* — graph content fingerprints plus
config digests (:func:`repro.serialize.config_digest`) — so artifacts
persisted by the disk tier warm-start later processes: a second CLI
invocation (or a sweep worker on another core) re-reads islandizations
instead of recomputing them, mirroring the paper's
compute-once/reuse-everywhere locality story at the tooling level.

``sweep(..., parallel=4)`` fans per-(dataset, model) work units over a
process pool; workers share the disk tier (when configured) and report
their cache hit/miss deltas back, so ``engine.cache_stats()`` reflects
parallel runs too.  Row order is identical to the serial path.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Iterable, Sequence

from repro.core.accelerator import TaskMemo
from repro.core.config import ConsumerConfig, LocatorConfig
from repro.core.islandizer import islandize
from repro.core.islandizer_incremental import (
    IncrementalState,
    IncrementalUpdate,
    record_islandization,
    update_islandization,
)
from repro.core.islandizer_pincremental import (
    PartitionedIncrementalState,
    PartitionedIncrementalUpdate,
    ShardFleet,
)
from repro.core.types import IslandizationResult
from repro.errors import ConfigError, SimulationError
from repro.graph.csr import CSRGraph, GraphDelta
from repro.graph.datasets import DATASETS, Dataset, canonical_name, load_dataset
from repro.models.configs import ModelConfig, build_model
from repro.models.workload import Workload, build_workload
from repro.report import BaseReport
from repro.runtime.registry import get_simulator, resolve_name
from repro.runtime.store import (
    ARTIFACT_KINDS,
    MISS,
    ArtifactStore,
    CacheStats,
    DiskStore,
    TieredStore,
    build_store,
)
from repro.serialize import config_digest

__all__ = ["CacheStats", "Engine", "graph_fingerprint", "sweep"]

#: Artifact kinds maintained by the Engine, in dependency order, then
#: the memory-only task memo (``tasks``), which is not a store kind.
_CACHE_NAMES = (*ARTIFACT_KINDS, "tasks")


def graph_fingerprint(graph: CSRGraph) -> str:
    """Content digest of a graph (structure + name), usable as a key.

    :class:`CSRGraph` holds numpy arrays and is not hashable;
    :meth:`CSRGraph.fingerprint` digests the CSR bytes once per
    instance (graphs are immutable), so repeated cache lookups stay
    O(1) while still distinguishing reordered/cleaned variants that
    share a name.
    """
    return graph.fingerprint()


def _model_for(ds: Dataset, spec: str, default_variant: str = "algo") -> ModelConfig:
    """Build the model a sweep cell asks for.

    ``spec`` is ``"family"`` or ``"family:variant"`` (e.g. ``"gcn"``,
    ``"gcn:hy"``, ``"gin"``); only families with variants accept the
    suffix — anything else is an error rather than a silent drop.
    """
    family, _, variant = spec.partition(":")
    kwargs: dict[str, Any] = {}
    if family in ("gcn", "graphsage"):
        kwargs["variant"] = variant or default_variant
    elif variant:
        raise ConfigError(
            f"model family {family!r} takes no ':variant' suffix (got {spec!r})"
        )
    return build_model(family, ds.num_features, ds.num_classes, **kwargs)


class Engine:
    """Memoizing façade over the simulator registry.

    Parameters
    ----------
    locator:
        Default Island Locator configuration used for islandization
        artifacts (a simulator with a different locator config gets its
        own cache entries — the config is part of the key).
    consumer:
        Default Island Consumer configuration for locator-backed
        simulators.  Like the locator config it is part of every
        locator-dependent report/summary cache key, so engines with
        different consumer settings sharing one disk store never
        serve each other's rows.  That includes the pipeline mode:
        every mode runs the same pass and prices the staged and
        streamed models, but the mode picks ``total_cycles`` and so
        the row's ``latency_us`` — a streamed row never masquerades
        as a staged one.  The islandization artifact itself carries no
        consumer digest: all modes share it, since the locator's
        result is mode-independent by contract.
    store:
        Explicit :class:`~repro.runtime.store.ArtifactStore` stack.
        Mutually exclusive with ``cache_dir``.
    cache_dir:
        Directory for a persistent disk tier; the engine then runs a
        memory-over-disk :class:`~repro.runtime.store.TieredStore`, so
        artifacts survive the process and are shared with parallel
        sweep workers.  Default (``None``): in-memory only.
    """

    def __init__(
        self,
        *,
        locator: LocatorConfig | None = None,
        consumer: ConsumerConfig | None = None,
        store: ArtifactStore | None = None,
        cache_dir: str | None = None,
    ) -> None:
        if store is not None and cache_dir is not None:
            raise ConfigError("pass either store= or cache_dir=, not both")
        self.locator_config = locator or LocatorConfig()
        self.consumer_config = consumer or ConsumerConfig()
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.store = store if store is not None else build_store(self.cache_dir)
        self._stats: dict[str, CacheStats] = {n: CacheStats() for n in _CACHE_NAMES}
        #: Island task chunks of the last islandization an igcn run
        #: assembled, shared by the next runs over that islandization.
        self.task_memo = TaskMemo(self._stats["tasks"])
        self._fleets: dict[str, ShardFleet] = {}
        self._degradations: list[dict[str, Any]] = []

    def close(self) -> None:
        """Shut down any warm shard fleets this engine spawned.

        Fleets (worker pools for partitioned incremental updates) are
        created lazily by :meth:`update` and kept warm for chaining;
        they hold OS resources, so long-lived callers should close the
        engine when done.  Safe to call repeatedly; the engine remains
        usable (fleets respawn on demand).
        """
        for fleet in self._fleets.values():
            fleet.close()
        self._fleets.clear()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fleet(self, config: LocatorConfig) -> ShardFleet:
        """The warm :class:`ShardFleet` for ``config`` (lazily built)."""
        key = config_digest(config)
        fleet = self._fleets.get(key)
        if fleet is None:
            fleet = self._fleets.setdefault(key, ShardFleet(config))
        return fleet

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _memo(self, kind: str, key: str, compute) -> Any:
        """Route one artifact lookup through the store stack.

        A hit in *any* tier counts as an engine-level hit; a miss means
        ``compute()`` actually ran (and its result was written through
        to every tier handling the kind).
        """
        value = self.store.get(kind, key)
        if value is not MISS:
            self._stats[kind].hits += 1
            return value
        self._stats[kind].misses += 1
        value = compute()
        self.store.put(kind, key, value)
        return value

    def cache_stats(self) -> dict[str, CacheStats]:
        """Engine-level hit/miss counters per artifact kind (live view).

        Hits count lookups satisfied by any tier (memory or disk);
        misses count artifacts actually computed.  The ``tasks`` entry
        counts igcn runs that reused :attr:`task_memo`'s island task
        chunks (hits) or assembled their own (misses).  Per-tier
        counters are available from :meth:`tier_stats`.
        """
        return dict(self._stats)

    def tier_stats(self) -> dict[str, dict[str, CacheStats]]:
        """Per-tier, per-kind lookup counters from the store stack."""
        return self.store.stats()

    def clear(self, *, disk: bool = False) -> None:
        """Drop cached artifacts and reset the counters.

        By default only non-persistent tiers are cleared (the seed
        behaviour: reset this process's memoization).  The disk tier
        may be shared with concurrent workers, other invocations or
        other hosts, so destroying it requires ``disk=True`` (the CLI
        equivalent is ``repro cache clear``).  The task memo is always
        dropped.

        The :class:`CacheStats` objects are reset in place so views
        previously returned by :meth:`cache_stats` stay live.
        """
        tiers = self.store.tiers if isinstance(self.store, TieredStore) else (self.store,)
        for tier in tiers:
            if disk or not tier.persistent:
                tier.clear()
        self.task_memo.clear()
        for name in _CACHE_NAMES:
            self._stats[name].hits = 0
            self._stats[name].misses = 0

    def _merge_stats(self, delta: dict[str, tuple[int, int]]) -> None:
        """Fold a worker's (hits, misses) deltas into this engine's stats."""
        for kind, (hits, misses) in delta.items():
            stats = self._stats.setdefault(kind, CacheStats())
            stats.hits += hits
            stats.misses += misses

    @property
    def degradations(self) -> list[dict[str, Any]]:
        """Fault-recovery events this engine absorbed (live view).

        Each entry records one degradation a sweep survived instead of
        failing — e.g. ``{"event": "broken_process_pool", ...}`` when a
        pool worker died (OOM-killed, SIGKILLed) and the lost units
        were re-run serially, or ``{"event": "queue_worker_exit", ...}``
        when a driven queue worker exited abnormally and the
        coordinator drained the remainder inline.  Empty on a clean
        run; the CLI surfaces these next to :meth:`cache_stats`.
        """
        return self._degradations

    # ------------------------------------------------------------------
    # Cached artifacts
    # ------------------------------------------------------------------
    def dataset(
        self,
        name: str,
        *,
        scale: float | None = None,
        seed: int = 7,
        with_features: bool = False,
    ) -> Dataset:
        """Cached :func:`repro.graph.load_dataset`.

        The key canonicalises the name (paper codes included) and
        resolves ``scale=None`` to the per-dataset default, so
        ``dataset("cr")`` and ``dataset("cora", scale=1.0)`` share one
        entry — in memory and on disk.
        """
        canonical = canonical_name(name)
        effective_scale = (
            scale if scale is not None else DATASETS[canonical].default_scale
        )
        key = (
            f"{canonical}|scale={float(effective_scale)!r}|seed={seed}"
            f"|features={int(bool(with_features))}"
        )
        return self._memo(
            "dataset",
            key,
            lambda: load_dataset(
                canonical, scale=effective_scale, seed=seed,
                with_features=with_features,
            ),
        )

    def islandization(
        self, graph: CSRGraph, config: LocatorConfig | None = None
    ) -> IslandizationResult:
        """Cached Island Locator result for (graph, locator config).

        ``graph`` may still carry self-loops; its self-loop-free copy
        (``graph.without_self_loops()``, the graph itself when it has
        none) is islandized, mirroring ``IGCNAccelerator.islandize``.
        The key is that clean graph's fingerprint + the locator config
        digest, so engines with different configs sharing one disk tier
        never collide.

        A config with ``incremental=True`` routes through
        :meth:`islandization_state`, so the result's updatable
        bookkeeping is recorded (and cached) alongside it.
        """
        config = config or self.locator_config
        if config.incremental:
            return self.islandization_state(graph, config)[0]
        clean = graph.without_self_loops()
        key = f"{graph_fingerprint(clean)}|loc={config_digest(config)}"
        return self._memo(
            "islandization", key,
            lambda: islandize(clean, config, store=self.store),
        )

    def islandization_state(
        self, graph: CSRGraph, config: LocatorConfig | None = None
    ) -> tuple[
        IslandizationResult, IncrementalState | PartitionedIncrementalState
    ]:
        """Cached (result, incremental state) pair for (graph, config).

        The pair is produced by one
        :func:`~repro.core.islandizer_incremental.record_islandization`
        run and stored under the *same* key in two kinds
        ("islandization" and "ilstate"), so a disk tier always serves
        matching halves.  A half-present pair (one kind evicted) is
        re-recorded whole — the result side of a recording run is
        identical to a plain islandization, so nothing downstream can
        observe the recompute.  With ``partitions > 1`` the recording
        runs through the shard fleet and the state half is a
        :class:`~repro.core.islandizer_pincremental.PartitionedIncrementalState`
        (the ``ilstate`` codec dispatches on the serialized format).

        Requires a config with ``incremental=True`` (the flag is part
        of the config digest, keeping these entries distinct from
        plain islandizations of the same graph).
        """
        config = config or self.locator_config
        if not config.incremental:
            raise ConfigError(
                "islandization_state needs a LocatorConfig with "
                "incremental=True (the recording flag is part of the "
                "cache key)"
            )
        clean = graph.without_self_loops()
        key = f"{graph_fingerprint(clean)}|loc={config_digest(config)}"
        result = self.store.get("islandization", key)
        state = self.store.get("ilstate", key)
        if result is not MISS and state is not MISS:
            self._stats["islandization"].hits += 1
            self._stats["ilstate"].hits += 1
            return result, state
        self._stats["islandization"].misses += 1
        self._stats["ilstate"].misses += 1
        result, state = record_islandization(clean, config)
        self.store.put("islandization", key, result)
        self.store.put("ilstate", key, state)
        return result, state

    def update(
        self,
        graph: CSRGraph,
        delta: GraphDelta,
        config: LocatorConfig | None = None,
        *,
        max_dirty_fraction: float = 0.5,
    ) -> IncrementalUpdate | PartitionedIncrementalUpdate:
        """Maintain a cached islandization under an edge delta.

        Fetches (or records) the (result, state) pair for ``graph``,
        applies ``delta`` via
        :func:`~repro.core.islandizer_incremental.update_islandization`,
        and stores the updated pair under the *mutated* graph's
        fingerprint — so updates chain: ``engine.update(upd.result.graph,
        next_delta)`` starts from a warm cache, never re-islandizing.

        ``delta`` is applied to the self-loop-free copy of ``graph``
        (islandization is defined on self-loop-free graphs).  Returns
        the full :class:`~repro.core.islandizer_incremental.IncrementalUpdate`
        (result, refreshed state, dirty-region telemetry, and whether
        the update fell back to a recording rebuild) — or its
        partitioned counterpart when the state is shard-routed, in
        which case the delta runs through this engine's warm
        :class:`~repro.core.islandizer_pincremental.ShardFleet` so
        chained updates reuse one worker pool (see :meth:`close`).
        """
        config = config or self.locator_config
        clean = graph.without_self_loops()
        cached, state = self.islandization_state(clean, config)
        applied = clean.apply_delta(delta, with_changes=True)
        if isinstance(state, PartitionedIncrementalState):
            upd = self._fleet(config).update(
                clean, cached, state, delta,
                max_dirty_fraction=max_dirty_fraction, applied=applied,
            )
        else:
            upd = update_islandization(
                clean, cached, state, delta, config,
                max_dirty_fraction=max_dirty_fraction, applied=applied,
            )
        new_graph = upd.result.graph
        new_key = f"{graph_fingerprint(new_graph)}|loc={config_digest(config)}"
        self.store.put("islandization", new_key, upd.result)
        self.store.put("ilstate", new_key, upd.state)
        return upd

    def workload(
        self, graph: CSRGraph, model: ModelConfig, *, feature_density: float = 1.0
    ) -> Workload:
        """Cached operation-count workload for (graph, model, density)."""
        key = (
            f"{graph_fingerprint(graph)}|model={config_digest(model)}"
            f"|fd={float(feature_density)!r}"
        )
        return self._memo(
            "workload",
            key,
            lambda: build_workload(graph, model, feature_density=feature_density),
        )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def _resolve_cell(
        self, data: Dataset | CSRGraph, model: ModelConfig | None,
        feature_density: float | None,
    ) -> tuple[CSRGraph, ModelConfig, float]:
        """Shared (graph, model, density) resolution for one sweep cell."""
        ds = data if isinstance(data, Dataset) else None
        graph = ds.graph if ds is not None else data
        if model is None:
            if ds is None:
                raise SimulationError(
                    "simulate() needs an explicit model when given a raw graph"
                )
            model = _model_for(ds, "gcn")
        if feature_density is None:
            feature_density = ds.feature_density if ds is not None else 1.0
        return graph, model, feature_density

    def _cell_key(
        self, platform: str, graph: CSRGraph, model: ModelConfig,
        feature_density: float,
    ) -> str:
        """Stable cache key of one (platform, graph, model, density) cell.

        For platforms that consume islandizations (``uses_locator``,
        currently igcn — unknown simulator classes are treated as
        locator-dependent to be safe) the key includes the engine's
        effective locator *and* consumer config digests: two engines
        with different :class:`LocatorConfig`/:class:`ConsumerConfig`
        values sharing a disk tier must not serve each other's
        reports/summaries.  Locator-independent baselines omit both,
        so their cached rows are shared across those settings instead
        of being pointlessly recomputed.
        """
        name = resolve_name(platform)
        parts = [
            name,
            graph_fingerprint(graph),
            f"model={config_digest(model)}",
            f"fd={float(feature_density)!r}",
        ]
        if getattr(get_simulator(name), "uses_locator", True):
            parts.append(f"loc={config_digest(self.locator_config)}")
            parts.append(f"con={config_digest(self.consumer_config)}")
        return "|".join(parts)

    def simulate(
        self,
        platform: str,
        data: Dataset | CSRGraph,
        model: ModelConfig | None = None,
        *,
        feature_density: float | None = None,
        **opts: Any,
    ) -> BaseReport:
        """Run ``platform`` on a dataset or raw graph through the registry.

        When ``data`` is a :class:`Dataset`, the model defaults to the
        paper's 2-layer GCN at the dataset's dimensions and
        ``feature_density`` to the published value.  Reports of
        option-free runs are cached (live objects, memory tiers only —
        the serialized cross-process artifact is the *summary*, see
        :meth:`summary`).
        """
        graph, model, feature_density = self._resolve_cell(
            data, model, feature_density
        )
        if opts:
            # Functional runs etc. carry unhashable payloads: bypass the
            # report cache entirely (no stats — this is not a lookup).
            return self._run(platform, graph, model, feature_density, opts)
        key = self._cell_key(platform, graph, model, feature_density)
        return self._memo(
            "report", key, lambda: self._run(platform, graph, model, feature_density, {})
        )

    def summary(
        self,
        platform: str,
        data: Dataset | CSRGraph,
        model: ModelConfig | None = None,
        *,
        feature_density: float | None = None,
    ) -> dict[str, object]:
        """Cached shared-schema summary row of one cell.

        Unlike live reports, summary rows are JSON-serializable and
        persist through the disk tier — a warm-started sweep reads them
        back without simulating (or islandizing) anything.  Returns a
        fresh dict copy so callers can annotate rows freely.
        """
        graph, model, feature_density = self._resolve_cell(
            data, model, feature_density
        )
        key = self._cell_key(platform, graph, model, feature_density)
        row = self._memo(
            "summary",
            key,
            lambda: self.simulate(
                platform, data, model, feature_density=feature_density
            ).base_summary(),
        )
        return dict(row)

    def _run(
        self,
        platform: str,
        graph: CSRGraph,
        model: ModelConfig,
        feature_density: float,
        opts: dict[str, Any],
    ) -> BaseReport:
        simulator = get_simulator(platform)
        return simulator.simulate(
            graph, model, feature_density=feature_density, engine=self, **opts
        )

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        datasets: Sequence[str],
        platforms: Sequence[str],
        *,
        models: Sequence[str] = ("gcn",),
        variant: str = "algo",
        scale: float | None = None,
        seed: int = 7,
        parallel: int | bool | None = None,
        queue: Any | None = None,
    ) -> list[dict[str, object]]:
        """Batched cross-product sweep: datasets × models × platforms.

        Returns one shared-schema summary row (see
        :data:`repro.report.SUMMARY_FIELDS`) per cell, ordered
        dataset-major, then model, then platform — deterministically,
        whether serial or parallel, cold or warm-started from disk.

        ``parallel`` — ``None``/``0``/``False`` runs serially in this
        process (sharing this engine's caches across all cells);
        ``True`` or a worker count fans the (dataset, model) units out
        over a process pool.  Workers share this engine's disk tier
        (when ``cache_dir`` is configured) and their cache hit/miss
        deltas are folded back into :meth:`cache_stats`.  Rows are
        identical either way.  A worker death (OOM kill, SIGKILL) does
        not lose the sweep: the broken pool's unfinished units are
        re-run serially in this process and the event is recorded in
        :attr:`degradations`.

        ``queue`` — a path (or
        :class:`~repro.runtime.queue.ExperimentQueue`) routes the sweep
        through the durable experiment queue instead of an in-process
        job list: the grid is submitted once (idempotently — a restart
        resumes, ``done`` cells are never re-run), ``parallel`` local
        worker processes drain it (plus an inline drain by this
        process, which also finishes the grid if every worker dies),
        and the table folds back into the identical rows.  Cells that
        exhaust their retry budget raise, quoting the quarantined
        errors.
        """
        platforms = [resolve_name(p) for p in platforms]
        max_workers = None if parallel is True or not parallel else int(parallel)
        if max_workers is not None and max_workers < 1:
            raise ConfigError(
                f"parallel must be a positive worker count (got {parallel})"
            )
        if queue is not None:
            return self._sweep_queued(
                queue, datasets, platforms, models, variant, scale, seed,
                num_workers=(0 if not parallel else
                             (max_workers or os.cpu_count() or 1)),
            )
        worker_cache_dir = self._worker_cache_dir()
        jobs = [
            (
                name, scale, seed, spec, variant, tuple(platforms),
                self.locator_config, self.consumer_config, worker_cache_dir,
            )
            for name in datasets
            for spec in models
        ]
        if not parallel:
            rows: list[dict[str, object]] = []
            for job in jobs:
                rows.extend(self._sweep_unit(job))
            return rows
        chunks: list[tuple[list[dict[str, object]], dict] | None] = [None] * len(jobs)
        lost: list[int] = []
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(_sweep_worker, job) for job in jobs]
            for i, future in enumerate(futures):
                try:
                    chunks[i] = future.result()
                except BrokenProcessPool:
                    # A worker died (OOM killer, SIGKILL, segfault) and
                    # took the pool with it.  Don't lose the sweep: the
                    # unfinished units re-run serially below.
                    lost.append(i)
        if lost:
            self._degradations.append({
                "event": "broken_process_pool",
                "lost_units": len(lost),
                "total_units": len(jobs),
            })
            for i in lost:
                chunks[i] = (self._sweep_unit(jobs[i]), {})
        rows = []
        for chunk, delta in chunks:
            rows.extend(chunk)
            self._merge_stats(delta)
        return rows

    def _sweep_queued(
        self,
        queue: Any,
        datasets: Sequence[str],
        platforms: Sequence[str],
        models: Sequence[str],
        variant: str,
        scale: float | None,
        seed: int,
        *,
        num_workers: int,
    ) -> list[dict[str, object]]:
        """Run one sweep grid through the durable experiment queue.

        Submit is idempotent, so re-running the same sweep against the
        same queue (a coordinator restart) folds already-``done`` cells
        straight from the table — zero re-simulation.  The inline drain
        after the workers exit guarantees completion even if every
        worker process is killed: this process claims whatever is left
        (waiting out orphaned leases) exactly like any other worker.
        """
        # Local import: repro.runtime.queue imports Engine from here.
        from repro.runtime.queue import ExperimentQueue, work

        own = not isinstance(queue, ExperimentQueue)
        q = ExperimentQueue(queue) if own else queue
        try:
            cache_dir = self._worker_cache_dir()
            submitted = q.submit(
                datasets, platforms, models=models, variant=variant,
                scale=scale, seed=seed, locator=self.locator_config,
                consumer=self.consumer_config, cache_dir=cache_dir,
            )
            if num_workers:
                ctx = multiprocessing.get_context()
                procs = [
                    ctx.Process(
                        target=work, args=(q.path,),
                        kwargs={"cache_dir": cache_dir}, daemon=True,
                    )
                    for _ in range(num_workers)
                ]
                for proc in procs:
                    proc.start()
                for proc in procs:
                    proc.join()
                died = sum(1 for proc in procs if proc.exitcode != 0)
                if died:
                    self._degradations.append({
                        "event": "queue_worker_exit",
                        "workers_died": died,
                        "workers_total": num_workers,
                    })
            # Inline drain: serial sweeps run the whole grid here (on
            # this engine, sharing its memory tier like a plain serial
            # sweep); parallel sweeps use it as the crash backstop.
            work(q.path, cache_dir=cache_dir, engine=self)
            return q.results(submitted.cell_ids)
        finally:
            if own:
                q.close()

    def _sweep_unit(self, job: tuple) -> list[dict[str, object]]:
        """All platform rows of one (dataset, model) sweep cell."""
        (name, scale, seed, spec, variant, platforms,
         _locator, _consumer, _cache_dir) = job
        ds = self.dataset(name, scale=scale, seed=seed)
        model = _model_for(ds, spec, variant)
        return [self.summary(platform, ds, model) for platform in platforms]

    def _worker_cache_dir(self) -> str | None:
        """Disk-tier directory sweep workers should attach to.

        An engine built with ``cache_dir=`` forwards it directly; one
        built with an explicit ``store=`` stack forwards the root of
        its first :class:`DiskStore` tier (if any), so workers still
        share the persistent tier.  Stores without a recognisable disk
        tier make the workers run memory-only.
        """
        if self.cache_dir is not None:
            return self.cache_dir
        tiers = self.store.tiers if isinstance(self.store, TieredStore) else (self.store,)
        for tier in tiers:
            if isinstance(tier, DiskStore):
                return str(tier.root)
        return None

    def _stats_snapshot(self) -> dict[str, tuple[int, int]]:
        return {kind: (s.hits, s.misses) for kind, s in self._stats.items()}


#: Per-worker-process engines, keyed by (locator config, consumer
#: config, cache dir), so sweep units that land in the same pool worker
#: share datasets and islandizations just like the serial path does —
#: and, with a cache dir, share the persistent disk tier with every
#: other worker.
_WORKER_ENGINES: dict[
    tuple[LocatorConfig, ConsumerConfig, str | None], Engine
] = {}


def _sweep_worker(
    job: tuple,
) -> tuple[list[dict[str, object]], dict[str, tuple[int, int]]]:
    """Process-pool entry: run one sweep unit in this worker's engine.

    Returns the unit's rows plus the engine's cache-stats *delta* for
    the unit, so the coordinating engine can aggregate hit/miss
    counters across workers.

    Fault injection: ``_REPRO_KILL_SWEEP_WORKER=<dataset>`` SIGKILLs
    the pool worker that picks up that dataset's unit — only here, in
    pool workers, so the coordinator's serial recovery path survives.
    The crash tests use it to break the pool deterministically.
    """
    if os.environ.get("_REPRO_KILL_SWEEP_WORKER") == job[0]:
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    locator, consumer, cache_dir = job[-3], job[-2], job[-1]
    engine = _WORKER_ENGINES.get((locator, consumer, cache_dir))
    if engine is None:
        engine = _WORKER_ENGINES.setdefault(
            (locator, consumer, cache_dir),
            Engine(locator=locator, consumer=consumer, cache_dir=cache_dir),
        )
    before = engine._stats_snapshot()
    rows = engine._sweep_unit(job)
    after = engine._stats_snapshot()
    delta = {
        kind: (hits - before.get(kind, (0, 0))[0], misses - before.get(kind, (0, 0))[1])
        for kind, (hits, misses) in after.items()
    }
    return rows, delta


def sweep(
    datasets: Sequence[str],
    platforms: Iterable[str],
    **kwargs: Any,
) -> list[dict[str, object]]:
    """One-shot convenience wrapper: ``Engine().sweep(...)``."""
    return Engine().sweep(datasets, list(platforms), **kwargs)
