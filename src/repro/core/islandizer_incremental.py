"""Incremental islandization: delta-driven island maintenance.

The paper's case against offline reordering (Rubik, GraphACT) is that
real graphs evolve, so restructuring cost is paid on every update.
I-GCN's online islandization makes the restructuring *maintainable*:
an edge delta touches a bounded neighbourhood of the graph, and this
module re-runs the Island Locator only there.

Given a cached :class:`~repro.core.types.IslandizationResult`, the
:class:`IncrementalState` recorded alongside it, and a
:class:`~repro.graph.csr.GraphDelta`, :func:`update_islandization`
produces the result an Algorithm-1 run from scratch on the mutated
graph would produce — **exactly** (``IslandizationResult.equals``
holds, per-engine work distribution included) — while touching only
the *dirty region*.

Why a dirty region exists at all
--------------------------------
Round 1 detects hubs by the static predicate ``degree >= TH0`` and the
threshold schedule after that is deterministic, so two facts hold for
every run:

* a node's hub status and detection round depend only on its *global*
  degree, the schedule, and whether it is still unclassified — and all
  classification dynamics decompose per connected component of the
  round-1 active subgraph (the graph minus TH0 hubs): TP-BFS walks are
  bounded by hubs, components only shrink in later rounds, and later
  hubs emerge inside their own component;
* a component whose member degrees and adjacency are untouched by the
  delta therefore replays its old dynamics verbatim, provided every
  hub it interacts with behaved identically — and its adjacent hubs
  are TH0 hubs whose degree/adjacency the delta did not touch.

The dirty region is the closure of the delta endpoints under those
rules (see :func:`_dirty_region`); everything outside is spliced from
the cached result.

Folding the counters without re-running the old graph
-----------------------------------------------------
Every per-round counter folds as ``new = cached − old_dirty +
new_dirty``.  ``new_dirty`` comes from one locator *sub-run* on the
dirty region extracted from the mutated graph.  The sub-run drives the
same Algorithm-1 round loop a full run does
(:func:`repro.core.islandizer._locate_rounds`), started with the
region's boundary hubs already classified, global degrees for the
threshold tests, and the boundary hubs' round-1 tasks imported
(:func:`_run_sub`).  ``old_dirty`` needs no
run at all: the recorded state carries a full per-task log (hub, seed,
scans, fetches, bytes, outcome — in task order) plus each node's
classification round, so the old run's restriction to the dirty
region is a vectorized filter:

* a task belongs to the dirty side iff its generating hub or its seed
  is dirty (a nonzero-scan task's walk is confined to its seed's
  component, and a dirty hub's seeds are all dirty or boundary hubs);
* detection-side counters are per-node sums over classification
  rounds; island counters come from the per-island metadata; an
  inter-hub edge is always found in round
  ``max(class_round[u], class_round[v])`` (the later endpoint's task
  generation scans the earlier, already-classified hub).

The only global state that resists splicing is the greedy TP-BFS
engine dispatch (``LocatorWork.per_engine_scans``): it is a heap over
the full task sequence, so the cleaned cached log is merged with the
sub-run's log and the nonzero-scan entries are replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from repro.core.config import LocatorConfig
from repro.core.islandizer import (
    IslandLocator,
    _GreedyEngineDispatch,
    _locate_rounds,
)
from repro.core.tp_bfs_batched import (
    TASK_CMAX,
    TASK_SEED_HUB,
    TASK_VISITED,
    _component_labels,
)
from repro.core.types import (
    ROUND_FIELDS,
    IslandizationResult,
    IslandTable,
    LocatorWork,
    RoundStats,
)
from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph, GraphDelta
from repro.nputil import csr_gather, cumsum0
from repro.serialize import read_npz, write_npz

__all__ = [
    "IncrementalState",
    "IncrementalUpdate",
    "record_islandization",
    "update_islandization",
]

#: RoundStats fields that fold additively across the clean/dirty split
#: (everything except the two schedule-determined columns).
_ADDITIVE_FIELDS: tuple[str, ...] = tuple(
    f for f in ROUND_FIELDS if f not in ("round_id", "threshold")
)

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY8 = np.zeros(0, dtype=np.int8)


@dataclass(frozen=True)
class IncrementalState:
    """Recorded bookkeeping that makes a cached result updatable.

    Everything here is either free to capture during a full run (the
    task log comes straight from the per-round tap arrays) or one
    extra O(E) pass (the round-1 component labels), and all of it is
    refreshed incrementally by :func:`update_islandization` — an
    evolving graph pays the recording cost once.

    Attributes
    ----------
    th0:
        The resolved initial threshold of the recorded run.  A delta
        that moves the degree-quantile TH0 invalidates the component
        decomposition and forces a full rebuild.
    comp_labels:
        Per-node label of the round-1 active component (the graph
        minus TH0 hubs); ``-1`` on TH0 hubs.  Labels are arbitrary
        distinct integers — splicing keeps clean labels and assigns a
        fresh range to the re-run region.
    class_round:
        Per-node round of classification: an island member's island
        round, a hub's detection round.  Detection-side counters of
        the dirty region fold from this without re-running it.
    winner_hubs:
        Per island, aligned with the result's island table: the hub of
        the task that won the island (``-1`` for singletons).  The
        table itself holds each island's round and first member
        (``members[0]``); ``(winner_hub, members[0])`` is each
        island's winning-task key, which orders islands within a round
        — the merge key for splicing clean islands against re-run
        ones.
    log_hubs, log_seeds, log_scans, log_fetches, log_bytes, log_outcomes:
        The full task log: per round, in task order, one entry per
        Th2-generated task with its TP-BFS scan count, adjacency
        fetches/bytes and outcome code
        (``tp_bfs_batched.TASK_*``).  Replaying the nonzero-scan
        entries through the greedy dispatch reproduces
        ``per_engine_scans``; filtering by dirty hub/seed reproduces
        the dirty region's share of every per-task counter.
    log_offsets:
        Round r (1-based) owns log slice
        ``log_offsets[r-1]:log_offsets[r]``.
    """

    th0: int
    comp_labels: np.ndarray
    class_round: np.ndarray
    winner_hubs: np.ndarray
    log_hubs: np.ndarray
    log_seeds: np.ndarray
    log_scans: np.ndarray
    log_fetches: np.ndarray
    log_bytes: np.ndarray
    log_outcomes: np.ndarray
    log_offsets: np.ndarray

    @property
    def num_rounds(self) -> int:
        """Rounds covered by the task log."""
        return len(self.log_offsets) - 1

    def round_slice(self, round_id: int) -> tuple[int, int]:
        """The task-log span of one 1-based round."""
        if round_id > self.num_rounds:
            return 0, 0
        return int(self.log_offsets[round_id - 1]), int(self.log_offsets[round_id])

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize (byte-identical round-trip via :meth:`from_npz`)."""
        write_npz(
            file,
            {
                "comp_labels": self.comp_labels,
                "class_round": self.class_round,
                "winner_hubs": self.winner_hubs,
                "log_hubs": self.log_hubs,
                "log_seeds": self.log_seeds,
                "log_scans": self.log_scans,
                "log_fetches": self.log_fetches,
                "log_bytes": self.log_bytes,
                "log_outcomes": self.log_outcomes,
                "log_offsets": self.log_offsets,
            },
            {"format": 1, "th0": int(self.th0)},
        )

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "IncrementalState":
        """Restore a state written by :meth:`to_npz`."""
        arrays, meta = read_npz(file)
        return cls._from_arrays(arrays, meta)

    @classmethod
    def _from_arrays(cls, arrays: dict, meta: dict) -> "IncrementalState":
        """Build from already-parsed npz payload (format-dispatch hook)."""
        return cls(th0=int(meta["th0"]), **arrays)


@dataclass(frozen=True)
class IncrementalUpdate:
    """What one delta application produced.

    ``result``/``state`` are always for the mutated graph, whether the
    incremental path ran or the update fell back to a full (recording)
    rebuild; ``fallback_reason`` says why when it did.
    """

    result: IslandizationResult
    state: IncrementalState
    fallback: bool
    fallback_reason: str | None
    dirty_nodes: int
    region_nodes: int


# ----------------------------------------------------------------------
# Recording runs
# ----------------------------------------------------------------------
def _winning_hubs(
    seeds: np.ndarray, task_hubs: np.ndarray, task_seeds: np.ndarray
) -> np.ndarray:
    """The hub of each TP-BFS island's winning task, given its first member.

    An island's winning task is the first task (in task order) whose
    seed equals ``members[0]``: any earlier task in the same component
    would have won and re-seeded the island, and an earlier same-seed
    task either won (same task) or poisoned the component.
    """
    if len(seeds) == 0:
        return _EMPTY
    order = np.argsort(task_seeds, kind="stable")
    sorted_seeds = task_seeds[order]
    pos = np.minimum(np.searchsorted(sorted_seeds, seeds), len(order) - 1)
    if np.any(sorted_seeds[pos] != seeds):
        raise IslandizationError("incremental: island seed missing from queue")
    return task_hubs[order[pos]]


def _round1_labels(graph: CSRGraph, th0: int) -> np.ndarray:
    """Component labels of the graph minus its TH0 hubs (-1 on hubs)."""
    labels, _ = _component_labels(graph, graph.degrees < th0)
    return labels


def record_islandization(
    graph: CSRGraph, config: LocatorConfig | None = None
) -> tuple[IslandizationResult, IncrementalState]:
    """Run the Island Locator, capturing the incremental bookkeeping.

    The result is identical to a plain ``islandize(graph, config)``;
    the returned :class:`IncrementalState` is what
    :func:`update_islandization` needs to maintain it under deltas.
    """
    config = config or LocatorConfig()
    if config.partitions > 1:
        from repro.core.islandizer_pincremental import (
            record_islandization_partitioned,
        )

        return record_islandization_partitioned(graph, config)
    rounds_log: list[tuple[np.ndarray, ...]] = []

    def tap(round_id: int, hubs: np.ndarray, seeds: np.ndarray,
            scans: np.ndarray, fetches: np.ndarray, nbytes: np.ndarray,
            outcomes: np.ndarray) -> None:
        rounds_log.append((hubs, seeds, scans, fetches, nbytes, outcomes))

    n = graph.num_nodes
    class_round = np.full(n, -1, dtype=np.int64)
    winner_parts: list[np.ndarray] = []
    stream = IslandLocator(config).stream(graph, tap=tap)
    while True:
        try:
            chunk = next(stream)
        except StopIteration as stop:
            result = stop.value
            break
        islands = chunk.islands
        seed0 = islands.first_members
        # Isolated-node singletons have no hubs and no winner (-1).
        tp = islands.num_hubs > 0
        winners = np.full(len(islands), -1, dtype=np.int64)
        winners[tp] = _winning_hubs(
            seed0[tp], rounds_log[-1][0], rounds_log[-1][1]
        )
        winner_parts.append(winners)
        class_round[islands.members] = chunk.round_id
        class_round[chunk.new_hub_ids] = chunk.round_id

    def _cat(idx: int, empty: np.ndarray = _EMPTY) -> np.ndarray:
        parts = [entry[idx] for entry in rounds_log]
        return np.concatenate(parts) if parts else empty

    th0 = config.initial_threshold(graph.degrees.astype(np.int64))
    state = IncrementalState(
        th0=int(th0),
        comp_labels=_round1_labels(graph, th0),
        class_round=class_round,
        winner_hubs=np.concatenate(winner_parts) if winner_parts else _EMPTY,
        log_hubs=_cat(0),
        log_seeds=_cat(1),
        log_scans=_cat(2),
        log_fetches=_cat(3),
        log_bytes=_cat(4),
        log_outcomes=_cat(5, _EMPTY8),
        log_offsets=cumsum0(
            np.asarray([len(entry[0]) for entry in rounds_log], dtype=np.int64)
        ),
    )
    return result, state


# ----------------------------------------------------------------------
# Dirty-region closure
# ----------------------------------------------------------------------
def _neighbor_mask(graph: CSRGraph, nodes: np.ndarray) -> np.ndarray:
    """Boolean mask of every neighbour of ``nodes`` (one CSR gather)."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    flat, _ = csr_gather(graph.indptr, nodes)
    mask[graph.indices[flat]] = True
    return mask


def _dirty_region(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    state: IncrementalState,
    ins_keys: np.ndarray,
    del_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compute the dirty closure of an effective edge delta.

    Returns ``(dirty mask, boundary-hub mask, region ids,
    inserted hub–hub pairs, deleted hub–hub pairs)``.

    Seeds are the endpoints of effectively changed edges.  Only
    **flip** seeds — nodes whose TH0-hub status differs between the
    old and new graph — poison their surroundings: a flip changes
    which round the node classifies in and what its tasks are, so
    every round-1 component it old-touches is dirty (its new
    neighbours are old neighbours plus changed counterparts, which are
    seeds themselves).  A seed that is a TH0 hub in *both* graphs
    stays clean: its detection round is unchanged and its unchanged
    per-edge tasks replay identically component by component — its
    changed edges either target the dirty set (imported into the
    sub-run per graph) or another stays-hub, in which case the whole
    effect of the edge is two zero-scan seed-is-hub tasks and one
    inter-hub edge in round 1, folded in closed form from the returned
    hub–hub pairs.

    The dirty node set ``DN`` is the union of dirty components (those
    holding a non-hub seed or old-touched by a flip) and the flips;
    its old/new neighbourhood beyond ``DN`` (the boundary ``B``) must
    consist of both-graph TH0 hubs — detected round 1 on the clean
    side in both runs — or the closure is wrong.
    """
    n = old_graph.num_nodes
    th0 = state.th0
    labels = state.comp_labels
    h1_old = old_graph.degrees >= th0
    h1_new = new_graph.degrees >= th0

    changed_keys = np.concatenate([ins_keys, del_keys])
    seeds = np.unique(
        np.concatenate([changed_keys // n, changed_keys % n])
    )
    seed_stays = h1_old[seeds] & h1_new[seeds]
    seed_hub = h1_old[seeds] | h1_new[seeds]
    flip_seeds = seeds[seed_hub & ~seed_stays]
    nonhub_seeds = seeds[~seed_hub]

    # Components old-touched by a flip: one gather over the flips' old
    # rows (deleted neighbours included — they are old rows).
    flip_nbrs = _neighbor_mask(old_graph, flip_seeds)
    flip_nbr_ids = np.flatnonzero(flip_nbrs & ~h1_old)
    dirty_labels = np.unique(
        np.concatenate([labels[nonhub_seeds], labels[flip_nbr_ids]])
    )
    dirty_labels = dirty_labels[dirty_labels >= 0]

    dn_mask = np.isin(labels, dirty_labels)
    dn_mask[flip_seeds] = True
    dn_ids = np.flatnonzero(dn_mask)

    boundary = (
        (_neighbor_mask(old_graph, dn_ids) | _neighbor_mask(new_graph, dn_ids))
        & ~dn_mask
    )
    if not bool(np.all(h1_old[boundary] & h1_new[boundary])):
        raise IslandizationError(
            "incremental: dirty-region boundary is not clean TH0 hubs"
        )
    region = np.flatnonzero(dn_mask | boundary)

    def hub_hub_pairs(keys: np.ndarray) -> np.ndarray:
        u, v = keys // n, keys % n
        sel = (u < v) & ~dn_mask[u] & ~dn_mask[v]
        u, v = u[sel], v[sel]
        if len(u) and not bool(np.all(
            h1_old[u] & h1_new[u] & h1_old[v] & h1_new[v]
        )):
            raise IslandizationError(
                "incremental: clean changed edge between non-hubs"
            )
        return np.stack([u, v], axis=1) if len(u) else np.zeros((0, 2), np.int64)

    return dn_mask, boundary, region, hub_hub_pairs(ins_keys), hub_hub_pairs(del_keys)


# ----------------------------------------------------------------------
# Sub-run on the extracted region
# ----------------------------------------------------------------------
@dataclass
class _SubRound:
    """One sub-run round, reported in global node ids."""

    threshold: int
    singles: np.ndarray                                   # ascending
    islands: IslandTable                                  # TP-BFS islands
    isl_winner: np.ndarray                                # winning-task hub
    new_hubs: np.ndarray                                  # ascending
    stats: dict[str, int]                                 # _ADDITIVE_FIELDS
    interhub: np.ndarray                                  # (k, 2) new this round
    log_hubs: np.ndarray                                  # full task log,
    log_seeds: np.ndarray                                 # global ids,
    log_scans: np.ndarray                                 # task order
    log_fetches: np.ndarray
    log_bytes: np.ndarray
    log_outcomes: np.ndarray
    scans_total: int


def _run_sub(
    sub: CSRGraph,
    gids: np.ndarray,
    deg_global: np.ndarray,
    boundary_local: np.ndarray,
    imported_hubs: np.ndarray,
    imported_seeds: np.ndarray,
    config: LocatorConfig,
    th0: int,
) -> list[_SubRound]:
    """Run the locator's round loop on the extracted dirty region.

    Drives :func:`~repro.core.islandizer._locate_rounds` — the loop
    ``IslandLocator.stream`` drives — with the three inputs that keep
    it exact against the full run's restriction to the region:

    * boundary hubs start classified/hub (their detection belongs to
      the clean side) and all threshold tests use **global** degrees
      (``deg_global``, local-indexed), so a boundary hub whose local
      row is truncated still reads as a hub to scalar BFS contact
      tests;
    * the round-1 task queue merges the imported tasks — clean
      boundary hubs' Th2 tasks that target dirty nodes — into the
      region-generated queue in global ``(hub, seed)`` order, which is
      the full run's relative task order; imported tasks contribute
      their 4-byte queue entries but not their hub's adjacency fetch
      (that belongs to the clean side);
    * the threshold starts at ``th0``, the full run's resolved TH0 (the
      region alone cannot reproduce the degree-quantile default).

    Inter-hub dedup is local to the sub-run: every edge it can find
    has a dirty endpoint, disjoint from the cached clean-clean set.
    Each round is reported in global ids.
    """
    m = sub.num_nodes
    out: list[_SubRound] = []
    for rec in _locate_rounds(
        sub, deg_global, boundary_local, config, th0,
        imported_hubs, imported_seeds,
    ):
        outcome = rec.outcome
        islands = outcome.islands
        keys = outcome.new_interhub_keys
        out.append(
            _SubRound(
                threshold=rec.threshold,
                singles=gids[rec.isolated],
                islands=islands.relabel(gids),
                isl_winner=gids[_winning_hubs(
                    islands.first_members, rec.task_hubs, rec.task_seeds
                )],
                new_hubs=gids[rec.new_hubs],
                stats=rec.stats,
                interhub=gids[np.stack([keys // m, keys % m], axis=1)],
                log_hubs=gids[rec.task_hubs],
                log_seeds=gids[rec.task_seeds],
                log_scans=outcome.task_scans,
                log_fetches=outcome.task_fetches,
                log_bytes=outcome.task_bytes,
                log_outcomes=outcome.task_outcomes,
                scans_total=outcome.scans,
            )
        )
    return out


# ----------------------------------------------------------------------
# Reconciliation: splice the clean side with the sub-run
# ----------------------------------------------------------------------
def _check(cond: bool, what: str) -> None:
    """Internal consistency gate; failures indicate an exactness bug."""
    if not cond:
        raise IslandizationError(f"incremental reconciliation: {what}")


def _sorted_ih_member(keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Mask of ``keys`` entries present in the (unsorted) ``needles``."""
    needles = np.sort(needles)
    pos = np.clip(np.searchsorted(needles, keys), 0, len(needles) - 1)
    return needles[pos] == keys


def _old_dirty_stats(
    cached: IslandizationResult,
    state: IncrementalState,
    dn_mask: np.ndarray,
    dirty_tasks: np.ndarray,
    ent_round: np.ndarray,
) -> dict[str, np.ndarray]:
    """The old run's per-round counters restricted to the dirty region.

    Pure array folds over the recorded state — no re-run of the old
    graph.  ``dirty_tasks`` is the per-log-entry dirty mask
    (``dn_mask[hub] | dn_mask[seed]``: region hubs generate only
    dirty-or-boundary seeds, and a clean hub's dirty-seed tasks are
    the sub-run's imports).  Detection counters fold from per-node
    classification rounds, island counters from the cached island
    table and the winner hubs, and an inter-hub edge's discovery
    round is ``max(class_round[u], class_round[v])`` — the later
    endpoint's task generation scans the earlier, already-classified
    hub.
    """
    r_cached = len(cached.rounds)
    _check(state.num_rounds == r_cached, "task log does not cover the cached rounds")
    minlength = r_cached + 1
    pr = ent_round[dirty_tasks]

    def count(mask: np.ndarray | None = None) -> np.ndarray:
        rounds = pr if mask is None else pr[mask]
        return np.bincount(rounds, minlength=minlength)[1:].astype(np.int64)

    def total(values: np.ndarray) -> np.ndarray:
        return np.bincount(
            pr, weights=values[dirty_tasks].astype(np.float64),
            minlength=minlength,
        )[1:].astype(np.int64)

    outcomes = state.log_outcomes[dirty_tasks]
    tasks = count()
    fetches_bfs = total(state.log_fetches)
    bytes_bfs = total(state.log_bytes)

    dn_ids = np.flatnonzero(dn_mask)
    class_round = state.class_round
    old_hub = np.zeros(len(dn_mask), dtype=bool)
    old_hub[cached.hub_ids] = True
    hub_rounds = class_round[dn_ids[old_hub[dn_ids]]]
    hubs_found = np.bincount(hub_rounds, minlength=minlength)[1:].astype(np.int64)

    cr_dn = class_round[dn_ids]
    _check(bool(np.all(cr_dn >= 1)), "dirty node with unrecorded class round")
    per_round = np.bincount(cr_dn, minlength=minlength + 1)
    remaining = np.cumsum(per_round[::-1])[::-1][1:minlength].astype(np.int64)

    # islands_found / nodes_islanded count TP-BFS islands only —
    # isolated-node singletons (winner -1) are excluded by the locator.
    islands = cached.islands
    dirty_tp = dn_mask[islands.first_members] & (state.winner_hubs >= 0)
    island_round = islands.round_id[dirty_tp]
    islands_found = np.bincount(
        island_round, minlength=minlength
    )[1:].astype(np.int64)
    nodes_islanded = np.bincount(
        island_round,
        weights=islands.num_members[dirty_tp].astype(np.float64),
        minlength=minlength,
    )[1:].astype(np.int64)

    ih = cached.interhub_edges
    if len(ih):
        dirty_edge = dn_mask[ih[:, 0]] | dn_mask[ih[:, 1]]
        found_round = np.maximum(
            class_round[ih[dirty_edge, 0]], class_round[ih[dirty_edge, 1]]
        )
        interhub_found = np.bincount(
            found_round, minlength=minlength
        )[1:].astype(np.int64)
    else:
        interhub_found = np.zeros(r_cached, dtype=np.int64)

    return {
        "nodes_remaining": remaining,
        "hubs_found": hubs_found,
        "islands_found": islands_found,
        "nodes_islanded": nodes_islanded,
        "tasks_generated": tasks,
        "tasks_dropped_classified": count(outcomes == TASK_SEED_HUB),
        "tasks_dropped_visited": count(outcomes == TASK_VISITED),
        "tasks_dropped_cmax": count(outcomes == TASK_CMAX),
        "interhub_edges_found": interhub_found,
        "adjacency_fetches": fetches_bfs + hubs_found,
        "adjacency_bytes": bytes_bfs + 4 * tasks,
        "detect_items": remaining,
        "bfs_scans": total(state.log_scans),
    }


def _fold_rounds(
    cached: IslandizationResult,
    old_dirty: dict[str, np.ndarray],
    new_rounds: list[_SubRound],
    config: LocatorConfig,
    th0: int,
    round1_adjust: dict[str, int],
) -> list[RoundStats]:
    """Per-round counter fold: ``new = cached − old_dirty + new_sub``.

    Every :class:`~repro.core.types.RoundStats` field except the
    schedule columns is a sum over per-node or per-task events, and
    each event is attributable to the clean side (identical in both
    full runs), the dirty region (subtracted analytically, re-added by
    the sub-run), or a clean hub–hub changed edge (``round1_adjust``,
    the closed-form delta of round 1's task counters), so the fold is
    exact field by field.  The new round count is the last round
    either side still has work: clean nodes remaining or a sub-run
    round.
    """
    r_cached = len(cached.rounds)

    def cget(r: int, f: str) -> int:
        return getattr(cached.rounds[r - 1], f) if r <= r_cached else 0

    def oget(r: int, f: str) -> int:
        return int(old_dirty[f][r - 1]) if r <= r_cached else 0

    def sget(r: int, f: str) -> int:
        return new_rounds[r - 1].stats[f] if r <= len(new_rounds) else 0

    clean_remaining = (
        np.asarray([r.nodes_remaining for r in cached.rounds], dtype=np.int64)
        - old_dirty["nodes_remaining"]
    )
    _check(
        bool(np.all(clean_remaining >= 0)), "negative clean nodes_remaining"
    )
    nz = np.flatnonzero(clean_remaining > 0)
    r_clean = int(nz[-1]) + 1 if len(nz) else 0
    r_new = max(r_clean, len(new_rounds), 1)

    folded: list[RoundStats] = []
    threshold = th0
    for r in range(1, max(r_new, r_cached) + 1):
        if r <= r_cached:
            _check(
                cached.rounds[r - 1].threshold == threshold,
                "cached threshold schedule mismatch",
            )
        if r <= len(new_rounds):
            _check(
                new_rounds[r - 1].threshold == threshold,
                "new sub-run threshold schedule mismatch",
            )
        values = {
            f: cget(r, f) - oget(r, f) + sget(r, f)
            for f in _ADDITIVE_FIELDS
        }
        if r == 1:
            for f, adj in round1_adjust.items():
                values[f] += adj
        if r > r_new:
            _check(
                all(v == 0 for v in values.values()),
                "cached run has residual work beyond the folded round count",
            )
        else:
            _check(
                all(v >= 0 for v in values.values()),
                "negative folded round counter",
            )
            folded.append(
                RoundStats(round_id=r, threshold=threshold, **values)
            )
        threshold = config.next_threshold(threshold)
    return folded


def _splice_islands(
    cached: IslandizationResult,
    state: IncrementalState,
    dn_mask: np.ndarray,
    new_rounds: list[_SubRound],
    n: int,
    r_new: int,
) -> tuple[IslandTable, np.ndarray]:
    """Merge clean islands with the sub-run's, in full-run order.

    The full run emits isolated-node singletons first (ascending node
    id — the detector's order), then TP-BFS islands in winning-task
    order; within a round the task queue is lexicographic in
    ``(hub, seed)``, an island's winning task is ``(winner_hub,
    members[0])``, and clean/dirty winner keys never tie (a task's hub
    and seed are adjacent, so a shared key would make a clean task
    dirty).  Sorting the union by ``(round, is_tp, key)`` therefore
    reproduces the full run's island order exactly.  Returns the new
    island table and each island's winning-task hub (``-1`` for
    singletons).
    """
    clean_idx = np.flatnonzero(~dn_mask[cached.islands.first_members])
    pool = IslandTable.concat(
        [cached.islands.take(clean_idx)]
        + [sr.islands for sr in new_rounds]
        + [IslandTable.singletons(r, sr.singles)
           for r, sr in enumerate(new_rounds, 1)]
    )
    _check(
        bool(np.all(pool.round_id <= r_new)),
        "clean island beyond the folded round count",
    )
    winners = np.concatenate(
        [state.winner_hubs[clean_idx]]
        + [sr.isl_winner for sr in new_rounds]
        + [np.full(len(sr.singles), -1, dtype=np.int64) for sr in new_rounds]
    )
    is_tp = winners >= 0
    _check(
        bool(np.all(is_tp | (pool.num_members == 1))),
        "clean island lost its winner key",
    )
    seeds = pool.first_members
    key = np.where(is_tp, winners * np.int64(n) + seeds, seeds)
    order = np.lexsort((key, is_tp, pool.round_id))
    return pool.take(order), winners[order]


def _full_rebuild(
    new_graph: CSRGraph,
    config: LocatorConfig,
    reason: str,
    dirty_nodes: int,
    region_nodes: int,
) -> IncrementalUpdate:
    result, state = record_islandization(new_graph, config)
    return IncrementalUpdate(
        result=result,
        state=state,
        fallback=True,
        fallback_reason=reason,
        dirty_nodes=dirty_nodes,
        region_nodes=region_nodes,
    )


def update_islandization(
    old_graph: CSRGraph,
    cached: IslandizationResult,
    state: IncrementalState,
    delta: GraphDelta,
    config: LocatorConfig | None = None,
    *,
    max_dirty_fraction: float = 0.5,
    applied: tuple[CSRGraph, np.ndarray, np.ndarray] | None = None,
) -> IncrementalUpdate:
    """Maintain an islandization under an edge delta.

    ``cached``/``state`` must be the recorded run of ``old_graph``
    under the same ``config`` (both Th3 backends supported).  The
    returned result satisfies ``IslandizationResult.equals`` against a
    from-scratch run on the mutated graph, and the returned state is
    ready for the next delta.

    ``applied`` (optional) is the ``(new_graph, effective insertions,
    effective deletions)`` triple of a prior
    ``old_graph.apply_delta(delta, with_changes=True)`` call, for
    callers that already materialized the mutated graph (a delta
    pipeline needs it downstream regardless of how the islandization
    is maintained); when omitted the delta is applied here.

    Falls back to a full recording rebuild when the delta moves the
    degree-quantile TH0 (the round-1 decomposition no longer matches)
    or when the dirty region exceeds ``max_dirty_fraction`` of the
    graph (re-running most of it incrementally would only add splice
    overhead).  There is deliberately no small-graph fallback: tiny
    test graphs exercise the same incremental machinery as large ones.
    """
    config = config or LocatorConfig()
    if config.partitions > 1:
        from repro.core.islandizer_pincremental import (
            update_islandization_partitioned,
        )

        return update_islandization_partitioned(
            old_graph, cached, state, delta, config,
            max_dirty_fraction=max_dirty_fraction, applied=applied,
        )
    if applied is None:
        new_graph, ins_eff, del_eff = old_graph.apply_delta(
            delta, with_changes=True
        )
    else:
        new_graph, ins_eff, del_eff = applied
    if len(ins_eff) == 0 and len(del_eff) == 0:
        result = IslandizationResult(
            graph=new_graph,
            islands=cached.islands,
            hub_ids=cached.hub_ids,
            hub_round=cached.hub_round,
            interhub_edges=cached.interhub_edges,
            rounds=cached.rounds,
            work=cached.work,
        )
        return IncrementalUpdate(
            result=result, state=state, fallback=False,
            fallback_reason=None, dirty_nodes=0, region_nodes=0,
        )

    n = old_graph.num_nodes
    deg_new = new_graph.degrees.astype(np.int64)
    th0 = config.initial_threshold(deg_new)
    if th0 != state.th0:
        return _full_rebuild(
            new_graph, config,
            f"initial threshold moved ({state.th0} -> {th0})", 0, 0,
        )

    dn_mask, boundary, region, ins_hh, del_hh = _dirty_region(
        old_graph, new_graph, state, ins_eff, del_eff
    )
    dirty_nodes = int(dn_mask.sum())
    if len(region) > max_dirty_fraction * n:
        return _full_rebuild(
            new_graph, config,
            f"dirty region covers {len(region)}/{n} nodes",
            dirty_nodes, len(region),
        )

    # --- extraction + sub-run on the mutated graph ---------------------
    m = len(region)
    if m:
        relabel = np.full(n, -1, dtype=np.int64)
        relabel[region] = np.arange(m, dtype=np.int64)
        b_ids = np.flatnonzero(boundary)
        # Boundary hubs' round-1 tasks into the dirty set, from the
        # mutated graph's rows: a boundary hub's changed edges all
        # target DN (or another clean hub, folded in closed form).
        flat, counts = csr_gather(new_graph.indptr, b_ids)
        imp_seeds = new_graph.indices[flat]
        imp_hubs = np.repeat(b_ids, counts)
        keep = dn_mask[imp_seeds]
        # Region ids are sorted, so local ids are monotone in global
        # ids: sorted adjacency, lexicographic task order and BFS
        # discovery order all transfer between the sub-run and the
        # full run unchanged.
        sub_new = new_graph.subgraph(region, name=f"{new_graph.name}-dirty")
        new_rounds = _run_sub(
            sub_new, region, deg_new[region], boundary[region],
            relabel[imp_hubs[keep]], relabel[imp_seeds[keep]], config, th0,
        )
    else:
        sub_new = None
        new_rounds = []

    # --- counters ------------------------------------------------------
    # Clean hub–hub changed edges: both endpoints stay round-1 hubs, so
    # each edge is exactly two zero-scan seed-is-hub tasks and one
    # inter-hub (dis)appearance in round 1 — folded in closed form.
    hh_delta = len(ins_hh) - len(del_hh)
    round1_adjust = {
        "tasks_generated": 2 * hh_delta,
        "adjacency_bytes": 8 * hh_delta,
        "tasks_dropped_classified": 2 * hh_delta,
        "interhub_edges_found": hh_delta,
    }
    dirty_tasks = dn_mask[state.log_hubs] | dn_mask[state.log_seeds]
    ent_round = np.repeat(
        np.arange(1, state.num_rounds + 1, dtype=np.int64),
        np.diff(state.log_offsets),
    )
    old_dirty = _old_dirty_stats(
        cached, state, dn_mask, dirty_tasks, ent_round
    )
    folded = _fold_rounds(
        cached, old_dirty, new_rounds, config, th0, round1_adjust
    )
    r_new = len(folded)
    n64 = np.int64(n)

    # --- islands -------------------------------------------------------
    _check(
        len(state.winner_hubs) == len(cached.islands),
        "island metadata does not cover the cached islands",
    )
    islands_out, isl_winner = _splice_islands(
        cached, state, dn_mask, new_rounds, n, r_new
    )
    _check(
        int((isl_winner >= 0).sum()) == sum(r.islands_found for r in folded),
        "island splice count disagrees with the folded counters",
    )

    # --- hubs ----------------------------------------------------------
    clean_hub_mask = ~dn_mask[cached.hub_ids]
    hub_ids_parts: list[np.ndarray] = []
    hub_round_parts: list[np.ndarray] = []
    for r in range(1, r_new + 1):
        clean_r = cached.hub_ids[clean_hub_mask & (cached.hub_round == r)]
        sub_r = (
            new_rounds[r - 1].new_hubs if r <= len(new_rounds) else _EMPTY
        )
        merged = np.sort(np.concatenate([clean_r, sub_r]))
        hub_ids_parts.append(merged)
        hub_round_parts.append(np.full(len(merged), r, dtype=np.int64))
    hub_ids = np.concatenate(hub_ids_parts) if hub_ids_parts else _EMPTY
    hub_round = np.concatenate(hub_round_parts) if hub_round_parts else _EMPTY
    _check(
        len(hub_ids)
        == int(clean_hub_mask.sum()) + sum(len(sr.new_hubs) for sr in new_rounds),
        "hub splice dropped or duplicated hubs",
    )

    # --- inter-hub edges ----------------------------------------------
    ih = cached.interhub_edges
    if len(ih):
        clean_ih = ih[~(dn_mask[ih[:, 0]] | dn_mask[ih[:, 1]])]
    else:
        clean_ih = np.zeros((0, 2), dtype=np.int64)
    if len(del_hh):
        # A deleted clean hub–hub edge was necessarily found round 1 of
        # the cached run: drop it from the clean set.
        keys = clean_ih[:, 0] * n64 + clean_ih[:, 1]
        gone = _sorted_ih_member(keys, del_hh[:, 0] * n64 + del_hh[:, 1])
        _check(
            int(gone.sum()) == len(del_hh),
            "deleted clean hub-hub edge missing from the cached set",
        )
        clean_ih = clean_ih[~gone]
    sub_ih_parts = [sr.interhub for sr in new_rounds if len(sr.interhub)]
    if len(ins_hh):
        sub_ih_parts.append(ins_hh)
    all_ih = np.concatenate(
        [clean_ih] + sub_ih_parts if sub_ih_parts else [clean_ih]
    )
    if len(all_ih):
        order = np.argsort(all_ih[:, 0] * n64 + all_ih[:, 1])
        all_ih = all_ih[order]
    _check(
        len(all_ih) == sum(r.interhub_edges_found for r in folded),
        "inter-hub splice count disagrees with the folded counters",
    )

    # --- task-log splice + engine-dispatch replay ----------------------
    # Clean log = cached log minus dirty tasks (minus deleted clean
    # hub–hub tasks); sub log = the sub-run's tasks plus the inserted
    # clean hub–hub tasks.  Both sides are (hub, seed)-sorted within a
    # round — the full run's task order — so the merge is a single
    # global ``np.insert``: per-round searchsorted positions, offset by
    # each round's clean start, are nondecreasing across rounds, which
    # is exactly the column order one insert-per-round would produce.
    # The clean side of the merge is every cached entry that is neither
    # dirty nor a deleted clean hub–hub task; both removals fold into
    # one keep mask, so the merged log is built with a single
    # gather-scatter per column — no staging copy of the clean side.
    keep_clean = ~dirty_tasks
    r_cached = state.num_rounds
    if len(del_hh):
        lo, hi = state.round_slice(1)
        k1 = state.log_hubs[lo:hi] * n64 + state.log_seeds[lo:hi]
        dk = np.concatenate([
            del_hh[:, 0] * n64 + del_hh[:, 1],
            del_hh[:, 1] * n64 + del_hh[:, 0],
        ])
        kill = _sorted_ih_member(k1, dk)
        _check(
            int((kill & keep_clean[lo:hi]).sum()) == len(dk),
            "deleted clean hub-hub task missing from the log",
        )
        keep_clean = keep_clean.copy()
        keep_clean[lo:hi] &= ~kill
    clean_offsets = cumsum0(
        np.bincount(ent_round[keep_clean], minlength=r_cached + 1)[1:]
    )
    clean_total = int(clean_offsets[-1])
    clean_keys = (state.log_hubs * n64 + state.log_seeds)[keep_clean]
    sub_mats: list[np.ndarray] = []
    at_parts: list[np.ndarray] = []
    round_counts = np.zeros(r_new, dtype=np.int64)
    for r in range(1, r_new + 1):
        if r <= r_cached:
            clean_lo = int(clean_offsets[r - 1])
            clean_hi = int(clean_offsets[r])
        else:
            clean_lo = clean_hi = clean_total
        if r <= len(new_rounds):
            sr = new_rounds[r - 1]
            sm = np.empty((6, len(sr.log_hubs)), dtype=np.int64)
            sm[0] = sr.log_hubs
            sm[1] = sr.log_seeds
            sm[2] = sr.log_scans
            sm[3] = sr.log_fetches
            sm[4] = sr.log_bytes
            sm[5] = sr.log_outcomes
        else:
            sm = np.empty((6, 0), dtype=np.int64)
        if r == 1 and len(ins_hh):
            # Two zero-work seed-is-hub tasks per inserted clean
            # hub–hub edge, one in each direction.
            hh = np.zeros((6, 2 * len(ins_hh)), dtype=np.int64)
            hh[0] = np.concatenate([ins_hh[:, 0], ins_hh[:, 1]])
            hh[1] = np.concatenate([ins_hh[:, 1], ins_hh[:, 0]])
            hh[5] = int(TASK_SEED_HUB)
            sm = np.concatenate([sm, hh], axis=1)
            sm = sm[:, np.argsort(sm[0] * n64 + sm[1])]
        if sm.shape[1]:
            at = np.searchsorted(
                clean_keys[clean_lo:clean_hi], sm[0] * n64 + sm[1]
            )
            sub_mats.append(sm)
            at_parts.append(at + clean_lo)
        round_counts[r - 1] = clean_hi - clean_lo + sm.shape[1]
        _check(
            round_counts[r - 1] == folded[r - 1].tasks_generated,
            "task-log splice disagrees with the folded task count",
        )
    # Manual column splice (same semantics as one global ``np.insert``
    # but one gather-scatter per row, no masking machinery): sub column
    # j lands at its clean insertion point plus the number of sub
    # columns already placed before it.
    if sub_mats:
        sub_all = np.concatenate(sub_mats, axis=1)
        at_all = np.concatenate(at_parts)
        sub_pos = at_all + np.arange(len(at_all), dtype=np.int64)
    else:
        sub_all = np.empty((6, 0), dtype=np.int64)
        sub_pos = _EMPTY
    total = clean_total + sub_all.shape[1]
    full_log = np.empty((6, total), dtype=np.int64)
    clean_pos = np.ones(total, dtype=bool)
    clean_pos[sub_pos] = False
    full_log[0][clean_pos] = state.log_hubs[keep_clean]
    full_log[1][clean_pos] = state.log_seeds[keep_clean]
    full_log[2][clean_pos] = state.log_scans[keep_clean]
    full_log[3][clean_pos] = state.log_fetches[keep_clean]
    full_log[4][clean_pos] = state.log_bytes[keep_clean]
    full_log[5][clean_pos] = state.log_outcomes[keep_clean]
    full_log[:, sub_pos] = sub_all
    # Greedy-dispatch replay over the merged task order.
    dispatch = _GreedyEngineDispatch(config.p2)
    dispatch.add(full_log[2])
    work = LocatorWork(
        total_adjacency_fetches=sum(r.adjacency_fetches for r in folded),
        total_adjacency_bytes=sum(r.adjacency_bytes for r in folded),
        total_detect_items=sum(r.detect_items for r in folded),
        total_bfs_scans=(
            cached.work.total_bfs_scans
            - int(old_dirty["bfs_scans"].sum())
            + sum(sr.scans_total for sr in new_rounds)
        ),
        per_engine_scans=dispatch.loads(),
    )
    _check(
        work.total_bfs_scans == int(full_log[2].sum()),
        "task-log replay disagrees with the folded scan total",
    )

    result = IslandizationResult(
        graph=new_graph,
        islands=islands_out,
        hub_ids=hub_ids,
        hub_round=hub_round,
        interhub_edges=all_ih,
        rounds=folded,
        work=work,
    )

    # --- refreshed state ----------------------------------------------
    new_labels = state.comp_labels.copy()
    new_class_round = state.class_round.copy()
    if m:
        offset = int(new_labels.max()) + 1
        new_labels[dn_mask] = -1
        sub_labels, _ = _component_labels(sub_new, deg_new[region] < th0)
        sel = sub_labels >= 0
        new_labels[region[sel]] = sub_labels[sel] + offset
        for r, sr in enumerate(new_rounds, 1):
            if len(sr.islands):
                new_class_round[sr.islands.members] = r
            if len(sr.singles):
                new_class_round[sr.singles] = r
            if len(sr.new_hubs):
                new_class_round[sr.new_hubs] = r
    new_state = IncrementalState(
        th0=th0,
        comp_labels=new_labels,
        class_round=new_class_round,
        winner_hubs=isl_winner,
        log_hubs=full_log[0],
        log_seeds=full_log[1],
        log_scans=full_log[2],
        log_fetches=full_log[3],
        log_bytes=full_log[4],
        log_outcomes=full_log[5].astype(np.int8),
        log_offsets=cumsum0(round_counts),
    )
    return IncrementalUpdate(
        result=result,
        state=new_state,
        fallback=False,
        fallback_reason=None,
        dirty_nodes=dirty_nodes,
        region_nodes=m,
    )
