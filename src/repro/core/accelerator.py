"""The I-GCN accelerator: locator + consumer + hardware models (§3-§4).

:class:`IGCNAccelerator` is the library's front door.  ``run`` performs
a full multi-layer inference in one pass over Fig. 3's
producer/consumer pipeline (§3.1.1):

1. islandize the (self-loop-free) graph; the locator *streams*
   :class:`~repro.core.types.RoundOutput` chunks, and a cached or
   partitioned islandization replays its recorded round stream;
2. assemble each round's island tasks as its chunk arrives, and build
   the inter-hub plan once — structure is shared by all layers (and, via
   a :class:`TaskMemo`, by later runs over the same islandization);
3. run the Island Consumer per layer over the round chunks (functional
   or counting), tallying the measured consumer work of every round;
4. fold operation counts, DRAM traffic, locator work, and the
   per-round release/work schedule into latency and energy via
   ``repro.hw``.

One pass, three models: step 4 prices the same round schedule under
every pipeline model, and :attr:`ConsumerConfig.pipeline` only picks
which total becomes ``total_cycles``:

* ``"streamed"`` (default) — the work-conserving makespan of the
  measured per-round release/work schedule
  (:func:`~repro.core.pipeline.streamed_schedule`);
* ``"staged"`` — islandize to completion, then consume; cycles are the
  plain sum of the two phases;
* ``"event"`` — the discrete-event refinement
  (:mod:`repro.core.event_sim`): per-island release inside each round,
  PE contention, ring/DHUB-PRC port arbitration and hub-cache
  occupancy over event time; the report additionally carries the event
  trace and per-island latency records (p50/p99), and the makespan is
  sandwiched ``streamed <= event <= staged`` on every input.

Every report carries the staged and streamed totals, so one run
compares the models.  Counts, traffic, and functional outputs do not
depend on the mode (and are byte-identical across both
locator/consumer backends, ``tests/test_pipeline_stream.py``).

The returned :class:`IGCNReport` carries everything the paper's tables
and figures need: pruning rates (Fig 10), traffic breakdown (Fig 14A),
latency/EE (Table 2, Fig 14B), round statistics (Fig 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, ClassVar

import numpy as np

from repro.core.config import ConsumerConfig, LocatorConfig
from repro.core.consumer import IslandConsumer, LayerCounts
from repro.core.event_sim import EventSimResult, simulate_events
from repro.core.interhub import build_interhub_plan
from repro.core.islandizer import IslandLocator, islandize
from repro.core.pipeline import pipelined_makespan, streamed_schedule
from repro.core.types import IslandizationResult
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.hw.config import HardwareConfig, IGCN_DEFAULT
from repro.hw.energy import EnergyReport, estimate_energy
from repro.hw.memory import TrafficMeter, effective_offchip_bytes
from repro.models.configs import ModelConfig
from repro.models.reference import init_weights, normalization_for
from repro.report import BaseReport

__all__ = ["IGCNAccelerator", "IGCNReport", "TaskMemo"]


@dataclass
class IGCNReport(BaseReport):
    """Complete result of one simulated I-GCN inference."""

    platform: ClassVar[str] = "igcn"

    graph_name: str
    model_name: str
    islandization: IslandizationResult
    layers: list[LayerCounts]
    meter: TrafficMeter
    locator_cycles: float
    consumer_cycles: float
    #: The selected pipeline model's end-to-end cycles.
    total_cycles: float
    latency_us: float
    energy: EnergyReport
    #: End-to-end cycles under the staged and streamed models; every
    #: run prices both, whichever mode it selects.
    staged_cycles: float
    streamed_cycles: float
    pipeline: str = "streamed"
    outputs: np.ndarray | None = field(default=None, repr=False)
    #: Event-mode only: the discrete-event trace + per-island records.
    event: EventSimResult | None = field(default=None, repr=False)
    #: Event-mode only: per-island release-to-completion latency
    #: percentiles (the serving-story tail metric), in microseconds.
    island_p50_us: float | None = None
    island_p99_us: float | None = None

    # ------------------------------------------------------------------
    @property
    def macs_performed(self) -> int:
        """Uniform-report alias of :attr:`total_macs`."""
        return self.total_macs

    @property
    def total_macs(self) -> int:
        """MACs actually performed (with redundancy removal)."""
        return sum(layer.total_macs for layer in self.layers)

    @property
    def total_baseline_macs(self) -> int:
        """MACs a no-reuse dataflow would perform."""
        return sum(layer.total_baseline_macs for layer in self.layers)

    @property
    def aggregation_pruning_rate(self) -> float:
        """Figure 10 (left): fraction of aggregation MACs pruned."""
        baseline = sum(layer.aggregation_baseline_macs for layer in self.layers)
        pruned = sum(layer.aggregation_pruned_macs for layer in self.layers)
        return pruned / baseline if baseline else 0.0

    @property
    def overall_pruning_rate(self) -> float:
        """Figure 10 (right): fraction of *all* MACs pruned."""
        baseline = self.total_baseline_macs
        return (baseline - self.total_macs) / baseline if baseline else 0.0

    @property
    def aggregation_fraction(self) -> float:
        """Share of baseline ops in aggregation (paper: ~23 % average)."""
        baseline = self.total_baseline_macs
        agg = sum(layer.aggregation_baseline_macs for layer in self.layers)
        return agg / baseline if baseline else 0.0

    @property
    def overlap_saved_cycles(self) -> float:
        """Cycles the pipeline overlap hides vs. a staged back-to-back run.

        Zero in staged mode by construction; in streamed mode this is
        the Fig. 3 win — ``staged_cycles - total_cycles``.
        """
        return max(0.0, self.staged_cycles - self.total_cycles)

    def _summary_extras(self) -> dict[str, object]:
        """Islandization and pruning metrics unique to I-GCN."""
        extras = {
            "rounds": self.islandization.num_rounds,
            "islands": self.islandization.num_islands,
            "hubs": self.islandization.num_hubs,
            "prune_agg": round(self.aggregation_pruning_rate, 4),
            "prune_all": round(self.overall_pruning_rate, 4),
            "pipeline": self.pipeline,
        }
        if self.pipeline == "event":
            extras["island_p50_us"] = (
                round(self.island_p50_us, 5)
                if self.island_p50_us is not None else None
            )
            extras["island_p99_us"] = (
                round(self.island_p99_us, 5)
                if self.island_p99_us is not None else None
            )
        return extras


class TaskMemo:
    """Island task chunks of one islandization, reused by later runs.

    Island tasks depend only on the graph's structure — the clean graph,
    the islands and whether the aggregation adds self-loops — so the
    paper islandizes once and every layer reuses the tasks (§3.1.1).
    A caller running several models over one cached
    :class:`IslandizationResult` passes the same memo to each
    :meth:`IGCNAccelerator.run`.  A run whose islandization *object*,
    consumer backend and ``add_self_loops`` match the entry reuses its
    per-round chunks, and with them each
    :class:`~repro.core.consumer_batched.TaskBatch`'s cached window
    classification, instead of assembling them again.

    Batched chunks also serve the other self-loop mode: the two
    variants differ only in the member diagonal, so a run whose mode
    differs from the entry's derives its chunks with
    :meth:`TaskBatch.with_self_loops
    <repro.core.consumer_batched.TaskBatch.with_self_loops>`, which
    replaces the entry and counts as a hit.  Scalar task lists are
    keyed by self-loop mode.

    The memo holds one entry: a run that misses drops it before it
    assembles, so at most one islandization's chunks outlive a run.
    ``stats`` counts runs that reused or derived the entry (``hits``)
    and runs that assembled (``misses``); it may be any object with
    integer ``hits`` and ``misses`` attributes, such as the Engine's
    ``tasks`` :class:`~repro.runtime.store.CacheStats`.
    """

    def __init__(self, stats: Any = None) -> None:
        self.stats = stats if stats is not None else SimpleNamespace(hits=0, misses=0)
        self._entry: tuple | None = None

    def lookup(
        self, result: IslandizationResult, backend: str, add_self_loops: bool
    ) -> list | None:
        """The entry's chunks on a hit; on a miss, drop the entry."""
        entry = self._entry
        if entry is not None and entry[0] is result and entry[1] == backend:
            if entry[2] != add_self_loops and backend == "batched":
                self.store(result, backend, add_self_loops, [
                    chunk.with_self_loops(add_self_loops) for chunk in entry[3]
                ])
                entry = self._entry
            if entry[2] == add_self_loops:
                self.stats.hits += 1
                return entry[3]
        self._entry = None
        self.stats.misses += 1
        return None

    def store(
        self, result: IslandizationResult, backend: str, add_self_loops: bool,
        chunks: list,
    ) -> None:
        """Make ``chunks`` the entry for this key."""
        self._entry = (result, backend, add_self_loops, chunks)

    def clear(self) -> None:
        """Drop the entry (the counters are the owner's to reset)."""
        self._entry = None


class IGCNAccelerator:
    """Functional + performance simulator of the I-GCN design."""

    #: Fixed pipeline-fill cycles covering the first-island delay.
    PIPELINE_FILL_CYCLES = 64.0

    def __init__(
        self,
        hw: HardwareConfig | None = None,
        locator: LocatorConfig | None = None,
        consumer: ConsumerConfig | None = None,
    ) -> None:
        self.hw = hw or IGCN_DEFAULT
        self.locator_config = locator or LocatorConfig()
        self.consumer_config = consumer or ConsumerConfig()

    # ------------------------------------------------------------------
    def islandize(self, graph: CSRGraph) -> IslandizationResult:
        """Run only the Island Locator (strips self-loops first).

        Honours ``LocatorConfig.partitions``: values > 1 dispatch to
        the partition-parallel locator.
        """
        return islandize(graph.without_self_loops(), self.locator_config)

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        model: ModelConfig,
        *,
        features=None,
        weights: list[np.ndarray] | None = None,
        feature_density: float = 1.0,
        functional: bool = False,
        seed: int = 0,
        islandization: IslandizationResult | None = None,
        task_memo: TaskMemo | None = None,
    ) -> IGCNReport:
        """Simulate one inference of ``model`` over ``graph``.

        Functional mode (``functional=True``) computes real outputs and
        requires ``features`` (dense or scipy-sparse); weights default
        to the deterministic Glorot initialisation shared with the
        reference implementation.

        ``task_memo`` lets runs over the same cached ``islandization``
        share their island task chunks (see :class:`TaskMemo`); reports
        are identical with or without it.  A live locator run
        (``islandization=None``) never touches the memo.
        """
        if functional and features is None:
            raise SimulationError("functional mode requires features")
        consumer = IslandConsumer(self.consumer_config, self.hw)
        # A cached islandization already holds the self-loop-free copy
        # the locator ran on; reuse it instead of rebuilding an O(nnz)
        # clean graph per call (the runtime Engine leans on this).
        result = islandization
        clean = graph.without_self_loops() if result is None else result.graph

        # Normalisation depends only on the clean graph, so it is known
        # before islandization starts — the pipeline needs it to
        # assemble tasks while the locator is still running.
        norm = normalization_for(clean, model.aggregation, gin_eps=model.gin_eps)
        if functional and weights is None:
            weights = init_weights(model, seed=seed)

        memo = task_memo if result is not None else None
        task_key = (self.consumer_config.backend, norm.add_self_loops)
        chunks = memo.lookup(result, *task_key) if memo is not None else None
        if chunks is None:
            # Fig. 3's producer/consumer hand-off: one task chunk per
            # locator round, assembled as each RoundOutput arrives.
            chunks = []
            scratch: dict = {}  # per-inference reusable assembly maps

            def assemble(chunk) -> None:
                chunks.append(
                    consumer.prepare_chunk(
                        clean, chunk.islands,
                        add_self_loops=norm.add_self_loops,
                        scratch=scratch,
                    )
                )

            if result is None and self.locator_config.partitions == 1:
                result = IslandLocator(self.locator_config).run(
                    clean, on_round=assemble
                )
            else:
                if result is None:
                    # Partitioned locator: no live round stream — the
                    # merged result replays its recorded rounds, as a
                    # cached islandization does.
                    result = islandize(clean, self.locator_config)
                for chunk in result.iter_rounds():
                    assemble(chunk)
            if memo is not None:
                memo.store(result, *task_key, chunks)

        interhub = build_interhub_plan(result, add_self_loops=norm.add_self_loops)
        meter = TrafficMeter()
        meter.read("adjacency", result.work.total_adjacency_bytes)

        layer_counts: list[LayerCounts] = []
        layer_cycles: list[float] = []
        round_work = np.zeros(len(result.rounds), dtype=np.float64)
        x = features
        for idx, layer in enumerate(model.layers):
            layer_meter = TrafficMeter()
            chunk_work: list[int] = []
            execution = consumer.run_layer_chunked(
                result, chunks, interhub, norm, layer,
                layer_index=idx,
                meter=layer_meter,
                x=x if functional else None,
                w=weights[idx] if functional else None,
                feature_density=feature_density if idx == 0 else 1.0,
                final_layer=idx == model.num_layers - 1,
                chunk_work=chunk_work,
            )
            round_work += np.asarray(chunk_work, dtype=np.float64)
            layer_counts.append(execution.counts)
            compute = execution.counts.total_macs / self.hw.macs_per_cycle
            # Latency charges only the bytes that must cross the pins;
            # read-mostly operands reside on-chip up to capacity
            # (§4.6.1's practical configuration).
            memory = (
                effective_offchip_bytes(layer_meter, self.hw.onchip_capacity_bytes)
                / self.hw.bytes_per_cycle
            )
            layer_cycles.append(max(compute, memory))
            meter.merge(layer_meter)
            if functional:
                x = execution.output

        locator_cycles, consumer_cycles, totals, event = self._latency(
            result, layer_cycles, round_work, model
        )
        total_cycles = totals[self.consumer_config.pipeline]
        latency_s = self.hw.cycles_to_seconds(total_cycles)
        energy = estimate_energy(
            self.hw,
            latency_s=latency_s,
            macs=sum(c.total_macs for c in layer_counts),
            dram_bytes=meter.total_bytes,
        )
        p50 = event.latency_percentile(50) if event is not None else None
        p99 = event.latency_percentile(99) if event is not None else None
        return IGCNReport(
            graph_name=graph.name,
            model_name=model.name,
            islandization=result,
            layers=layer_counts,
            meter=meter,
            locator_cycles=locator_cycles,
            consumer_cycles=consumer_cycles,
            total_cycles=total_cycles,
            latency_us=self.hw.cycles_to_us(total_cycles),
            energy=energy,
            staged_cycles=totals["staged"],
            streamed_cycles=totals["streamed"],
            pipeline=self.consumer_config.pipeline,
            outputs=x if functional else None,
            event=event,
            island_p50_us=(
                self.hw.cycles_to_us(p50) if p50 is not None else None
            ),
            island_p99_us=(
                self.hw.cycles_to_us(p99) if p99 is not None else None
            ),
        )

    # ------------------------------------------------------------------
    def _latency(
        self,
        result: IslandizationResult,
        layer_cycles: list[float],
        round_work: np.ndarray,
        model: ModelConfig,
    ) -> tuple[float, float, dict[str, float], EventSimResult | None]:
        """End-to-end cycles of one inference under each pipeline model.

        Returns ``(locator, consumer, totals, event)``: ``totals`` maps
        ``"staged"`` and ``"streamed"`` — plus ``"event"`` when the
        consumer config selects it, with ``event`` its simulation — to
        end-to-end cycles.  ``round_work`` is the measured per-round
        consumer work vector the chunked layers collected.

        Staged runs the phases strictly back-to-back — locator, then
        consumer — so their cycles simply add.  Streamed overlaps them
        (Fig 3): islands stream to the consumer as they form, so round
        r's work releases at the round's start and the total is the
        work-conserving makespan of the measured release/work schedule
        (floored at the locator itself, which must still finish).  The
        event model splits each round's chunk of that same schedule
        over the round's islands by their member + hub counts, released
        at their production times inside the round, which keeps the
        sandwich ``streamed <= event <= staged`` structural (see
        :mod:`repro.core.event_sim`).  A small fixed fill covers the
        first-island delay in every model.
        """
        round_cycles = self._round_cycles(result)
        locator_cycles = float(sum(round_cycles))
        consumer_cycles = float(sum(layer_cycles))
        pipeline_fill = self.PIPELINE_FILL_CYCLES
        totals = {"staged": locator_cycles + consumer_cycles + pipeline_fill}
        chunks: list[float] = []
        if round_cycles:
            releases, chunks = streamed_schedule(
                round_cycles, round_work.tolist(), consumer_cycles
            )
            totals["streamed"] = max(
                pipelined_makespan(releases, chunks), locator_cycles
            ) + pipeline_fill
        else:
            # Degenerate graphs (0 nodes, or nothing left after
            # self-loop removal) produce zero locator rounds; there is
            # no release schedule to overlap, so the consumer runs
            # start-to-finish under every model.
            totals["streamed"] = consumer_cycles + pipeline_fill

        if self.consumer_config.pipeline != "event":
            return locator_cycles, consumer_cycles, totals, None
        round_index = {
            stats.round_id: idx for idx, stats in enumerate(result.rounds)
        }
        round_islands: list[list[tuple[int, float, tuple[int, ...]]]] = [
            [] for _ in round_cycles
        ]
        for island_id, island in enumerate(result.islands):
            round_islands[round_index[island.round_id]].append(
                (
                    island_id,
                    float(island.num_members + island.num_hubs),
                    tuple(int(h) for h in island.hubs),
                )
            )
        row_bytes = 4 * max(
            (layer.out_dim for layer in model.layers), default=1
        )
        sim = simulate_events(
            round_cycles,
            round_islands,
            chunks,
            num_pes=self.consumer_config.num_pes,
            cache_entries=max(1, self.hw.hub_xw_cache_bytes // row_bytes),
        )
        totals["event"] = (
            max(sim.makespan, locator_cycles) + pipeline_fill
            if round_cycles else totals["streamed"]
        )
        return locator_cycles, consumer_cycles, totals, sim

    # ------------------------------------------------------------------
    def _round_cycles(self, result: IslandizationResult) -> list[float]:
        """Per-round locator cycle estimates (shared by every model).

        Each round is the max of its hub-detection scan, its TP-BFS
        adjacency scan, and — for adjacency beyond on-chip capacity —
        its share of the DRAM spill bandwidth.
        """
        config = self.locator_config
        # Adjacency beyond on-chip capacity pays DRAM bandwidth.
        adjacency_spill = max(
            0.0, result.work.total_adjacency_bytes - self.hw.onchip_capacity_bytes
        )
        spill_cycles_per_byte = (
            adjacency_spill / result.work.total_adjacency_bytes
            / self.hw.bytes_per_cycle
            if result.work.total_adjacency_bytes
            else 0.0
        )
        round_cycles = []
        for stats in result.rounds:
            detect = stats.detect_items / config.p1
            scans = (stats.adjacency_bytes / 4) / config.p2
            dram = stats.adjacency_bytes * spill_cycles_per_byte
            round_cycles.append(max(detect, scans, dram))
        return round_cycles
