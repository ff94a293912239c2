"""Configuration of the Island Locator (Algorithm 1) and Island
Consumer (§3.3), plus the backend/pipeline execution switches.

The paper leaves the hub-threshold schedule (``TH0`` and ``Decay()``)
unspecified; the defaults here start at a high degree quantile and halve
each round, which empirically classifies the evaluation graphs within a
handful of rounds (Figure 9's "several rounds").  Both knobs are
exposed, as are the parallel factors P1/P2 and the island-size cap
``c_max`` (Algorithm 1's inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = ["LocatorConfig", "ConsumerConfig"]


@dataclass(frozen=True)
class LocatorConfig:
    """Island Locator parameters (Algorithm 1).

    Attributes
    ----------
    p1:
        Parallel FIFOs in the hub detector (used by the cycle model).
    p2:
        Parallel TP-BFS engines (work is distributed across them).
    th0:
        Initial hub threshold; ``None`` selects the ``th0_quantile`` of
        the degree distribution (clamped to at least 4).
    th0_quantile:
        Degree quantile used when ``th0`` is None.
    decay:
        Multiplicative threshold decay per round (0 < decay < 1).
    th_min:
        Smallest threshold; at ``th_min`` every remaining node with a
        degree ≥ th_min becomes a hub.  Only ``th_min = 1`` guarantees
        termination: above it, a node whose degree stays below
        ``th_min`` and that no hub's task reaches is never classified,
        and the locator raises ``IslandizationError`` at the first
        round that can make no progress.
    c_max:
        Maximum members per island (TP-BFS break condition B).
    backend:
        Software implementation of the TP-BFS hot path.  ``"batched"``
        (default) runs the vectorized stamp-array kernel of
        ``repro.core.tp_bfs_batched``; ``"scalar"`` runs the original
        per-edge Python loop of ``repro.core.tp_bfs``, kept as the
        oracle the batched kernel is tested against.  Both produce the
        exact same :class:`~repro.core.types.IslandizationResult`; the
        backend is still part of the config digest so cached artifacts
        never mix backends.
    partitions:
        Number of graph shards for partitioned, out-of-core
        islandization (``repro.core.islandizer_partitioned``).  ``1``
        (default) runs the monolithic locator; values > 1 split the
        graph with ``partition_strategy``, islandize every shard in a
        worker-process fleet over memory-mapped shard files, and merge
        the shard results into one ``IslandizationResult``.  Like the
        backend switch, the value is part of the config digest so
        cached islandizations never mix partition settings.
    partition_strategy:
        How the graph is split (``repro.graph.partition``):
        ``"separator"`` (default) grows a degree-aware vertex separator
        using this config's own threshold schedule, so every
        cross-shard path runs through nodes the locator would classify
        as hubs anyway; ``"range"`` slices contiguous node ranges
        balanced by edge count and promotes the endpoints of every
        cross-range edge — the naive baseline the separator strategy is
        measured against.
    incremental:
        Record the extra per-round bookkeeping
        (``repro.core.islandizer_incremental.IncrementalState``) that
        lets a cached result be *updated* under an edge delta instead
        of re-islandized from scratch.  The result itself is identical
        with or without recording; the flag is still part of the config
        digest so stores pair every islandization with its state
        artifact unambiguously.  With ``partitions > 1`` the recording
        runs per shard and the state is a
        ``repro.core.islandizer_pincremental.PartitionedIncrementalState``
        — one per-shard state plus the partition bookkeeping that
        routes later edits to the shards they actually touch.
    """

    p1: int = 64
    p2: int = 64
    th0: int | None = None
    th0_quantile: float = 0.99
    decay: float = 0.5
    th_min: int = 1
    c_max: int = 64
    backend: str = "batched"
    partitions: int = 1
    partition_strategy: str = "separator"
    incremental: bool = False

    def __post_init__(self) -> None:
        if self.p1 < 1 or self.p2 < 1:
            raise ConfigError("parallel factors must be >= 1")
        if self.backend not in ("batched", "scalar"):
            raise ConfigError(
                f"backend must be 'batched' or 'scalar' (got {self.backend!r})"
            )
        if self.th0 is not None and self.th0 < 1:
            raise ConfigError("th0 must be >= 1")
        if not 0.0 < self.th0_quantile <= 1.0:
            raise ConfigError("th0_quantile must be in (0, 1]")
        if not 0.0 < self.decay < 1.0:
            raise ConfigError("decay must be in (0, 1)")
        if self.th_min < 1:
            raise ConfigError("th_min must be >= 1")
        if self.c_max < 1:
            raise ConfigError("c_max must be >= 1")
        if self.partitions < 1:
            raise ConfigError("partitions must be >= 1")
        if self.partition_strategy not in ("separator", "range"):
            raise ConfigError(
                f"partition_strategy must be 'separator' or 'range' "
                f"(got {self.partition_strategy!r})"
            )
        if not isinstance(self.incremental, bool):
            raise ConfigError("incremental must be a bool")

    def initial_threshold(self, degrees: np.ndarray) -> int:
        """Resolve TH0 for a given degree array."""
        if self.th0 is not None:
            return self.th0
        if len(degrees) == 0:
            return max(4, self.th_min)
        quantile = float(np.quantile(degrees, self.th0_quantile))
        return max(4, self.th_min, int(np.ceil(quantile)))

    def next_threshold(self, threshold: int) -> int:
        """Apply Decay(): geometric decay, floored at ``th_min``."""
        decayed = int(np.floor(threshold * self.decay))
        return max(self.th_min, decayed)


@dataclass(frozen=True)
class ConsumerConfig:
    """Island Consumer parameters (§3.3).

    Attributes
    ----------
    num_pes:
        Processing elements (each owns a DHUB-PRC bank and a ring stop).
    preagg_k:
        Pre-aggregation group width *k*: the scan window is 1 × k and
        combination results of every k consecutive local columns are
        pre-summed.  The paper's worked example uses k = 2 and leaves k
        customisable; k = 6 maximises average pruning on the evaluation
        graphs (see benchmarks/bench_ablation.py) and is the default.
    backend:
        Software implementation of the consumer's task assembly and
        layer execution.  ``"batched"`` (default) runs the vectorized
        multi-island kernels of ``repro.core.consumer_batched``;
        ``"scalar"`` runs the original per-island Python loop, kept as
        the oracle the batched path is tested against.  Both produce
        exactly the same counts, traffic, ring statistics and (in
        functional mode) output matrices; the backend is still part of
        the config digest so cached artifacts never mix backends.
    pipeline:
        Which cycle model prices the locator→consumer pipeline
        (§3.1.1, Fig. 3).  Every mode runs the same pass — the consumer
        ingests per-round chunks as the Island Locator produces them —
        and every report carries the staged and streamed totals; the
        mode only picks which total becomes ``total_cycles``.
        ``"streamed"`` (default, the paper's architecture) is the
        makespan of the measured per-round release/work schedule;
        ``"staged"`` is the plain back-to-back sum of the two phases;
        ``"event"`` runs the discrete-event refinement
        (``repro.core.event_sim``) — per-island release inside each
        round, PE contention, ring and DHUB-PRC port arbitration,
        hub-cache occupancy — and additionally reports per-island
        latency records with p50/p99 summaries.  Counts, DRAM traffic,
        ring/cache statistics and functional outputs do not depend on
        the mode, and the event makespan is always sandwiched
        ``streamed <= event <= staged``.  Like ``backend``, the mode is
        part of the config digest: it selects ``latency_us``, so cached
        reports and summary rows never mix pipeline modes.
    """

    num_pes: int = 8
    preagg_k: int = 6
    backend: str = "batched"
    pipeline: str = "streamed"

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ConfigError("num_pes must be >= 1")
        if self.preagg_k < 2:
            raise ConfigError("preagg_k must be >= 2 (k=1 disables reuse)")
        if self.backend not in ("batched", "scalar"):
            raise ConfigError(
                f"backend must be 'batched' or 'scalar' (got {self.backend!r})"
            )
        if self.pipeline not in ("streamed", "staged", "event"):
            raise ConfigError(
                f"pipeline must be 'streamed', 'staged' or 'event' "
                f"(got {self.pipeline!r})"
            )
