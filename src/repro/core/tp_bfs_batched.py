"""Batched TP-BFS: the vectorized Island Locator hot path.

This module re-implements one round of Algorithm 1's Th3 phase (the
TP-BFS task queue of :mod:`repro.core.tp_bfs`) as stamp-array NumPy
kernels.  The one-round granularity is deliberate: each
:func:`execute_round_batched` call returns a complete
:class:`RoundOutcome` — the type the scalar oracle's round returns
too — whose islands are already the round's
:class:`~repro.core.types.IslandTable`, exactly the unit the locator's
round loop hands the Island Consumer as one
:class:`~repro.core.types.RoundOutput`, so the §3.1.1/Fig. 3 streamed
pipeline needs no extra synchronisation inside this module.  The
contract is **exact result-equivalence** with the scalar
per-edge loop — identical islands (members in BFS discovery order,
hubs in first-contact order), identical inter-hub edges, identical
``RoundStats`` and ``LocatorWork`` counters — at array speed instead of
Python-interpreter speed (see ``python -m repro bench locator`` and
``BENCH_locator.json``).

The key observation making batching *exact* is that, within one round,
the task queue's sequential dynamics decompose per connected component
of the **active subgraph** (unclassified non-hub nodes):

* a TP-BFS walk can never leave its seed's component (hubs bound it,
  and previously classified nodes are unreachable — a closed island's
  neighbourhood was fully classified when it closed);
* the round starts with an empty ``v_global``, so every component is
  untouched until its first task runs.

Hence, per round:

1. **Seed-is-hub tasks** are classified in bulk against the hub mask.
   Their canonical inter-hub edges go through one sorted key array
   (:func:`dedup_interhub_keys`, which the scalar round calls too).  A
   task whose seed is a new hub of this round with a smaller id than
   its own hub is the mirror of that seed's task and is dropped before
   the sort.  No earlier round can hold a key found here, since every
   key has an endpoint that became a hub this round.
2. **Small components** (``size <= c_max``): the first task whose seed
   lands in the component wins and islands the *entire* component —
   no collision or cap abort is reachable — and every later task in
   the same component dies on the seed-visited check with zero work.
   Components are labelled over the gathered rows of the active nodes
   only.  Winners are found with one scatter; all winning BFS walks
   then run together as one **multi-source level-synchronous
   expansion** (vectorized CSR gathers; per-task member order equals
   each task's solo BFS order because components are disjoint), whose
   members and hubs, regrouped by task, are the round's island table.
3. **Large components** (``size > c_max``): tasks can abort mid-edge
   on the cap or on a collision with a previous partial walk, so they
   run sequentially.  A task whose seed repeats an earlier such task's
   seed dies with zero work (the earlier task stamped that seed, or
   found it stamped), so one first-occurrence pass drops those in
   bulk.  The rest walk one by one, edge by edge, through
   :func:`_run_walk_edgewise`, which reads the CSR arrays through
   zero-copy memoryviews and the round's state through a bytearray.
   Such a walk ends only on the cap or on a collision, never on a
   closed island, so it keeps no hub list.

Classification uses one ``int8`` state array per round instead of the
scalar path's three stamp arrays, so each BFS level costs a single
gather:

====================  =====================================
state value            meaning
====================  =====================================
``STATE_FREE``    0    unclassified non-hub, not yet visited
``STATE_HUB``     1    hub (this round's threshold or older)
``STATE_VISITED`` 2    in ``v_global`` (some finished task)
``3``                  in the *running* walk's ``v_local``
====================  =====================================

Code 3 exists only inside an over-``c_max`` walk, which folds it back
to 2 when it ends, so the next task sees only global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.core.tp_bfs import TaskOutcome
from repro.core.types import IslandTable
from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph
from repro.nputil import csr_gather, cumsum0, sorted_unique

__all__ = [
    "STATE_FREE",
    "STATE_HUB",
    "STATE_VISITED",
    "TASK_ISLAND",
    "TASK_SEED_HUB",
    "TASK_VISITED",
    "TASK_CMAX",
    "TASK_OUTCOME_CODES",
    "RoundOutcome",
    "dedup_interhub_keys",
    "execute_round_batched",
]

STATE_FREE = np.int8(0)
STATE_HUB = np.int8(1)
STATE_VISITED = np.int8(2)

#: Per-task outcome codes of ``RoundOutcome.task_outcomes``
#: (compact int8 encoding of :class:`~repro.core.tp_bfs.TaskOutcome`).
#: Plain ints, so the over-c_max walker returns and compares them at
#: Python-int speed.
TASK_ISLAND = 0
TASK_SEED_HUB = 1
TASK_VISITED = 2
TASK_CMAX = 3

TASK_OUTCOME_CODES: dict[TaskOutcome, int] = {
    TaskOutcome.ISLAND: TASK_ISLAND,
    TaskOutcome.SEED_IS_HUB: TASK_SEED_HUB,
    TaskOutcome.ALREADY_VISITED: TASK_VISITED,
    TaskOutcome.CMAX_EXCEEDED: TASK_CMAX,
}

_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass
class RoundOutcome:
    """Everything one Th3 round hands back to the locator, either backend.

    ``islands`` is the round's table in the scalar path's append
    order (winning-task order); ``new_interhub_keys`` are the sorted
    canonical keys of the inter-hub edges first found this round (see
    :func:`dedup_interhub_keys`); ``task_scans``, ``task_fetches``,
    ``task_bytes`` and ``task_outcomes`` hold each task's scan count,
    adjacency fetches/bytes and outcome code *in task order* — the
    scans drive the engine-dispatch replay, and the full per-task
    attribution is what lets incremental islandization subtract a
    dirty region's contribution from cached counters without
    re-running the old graph.
    """

    islands: IslandTable = field(
        default_factory=lambda: IslandTable.from_arrays(0, [], [])
    )
    new_interhub_keys: np.ndarray = field(default_factory=lambda: _EMPTY)
    dropped_classified: int = 0
    dropped_visited: int = 0
    dropped_cmax: int = 0
    scans: int = 0
    fetches: int = 0
    adjacency_bytes: int = 0
    task_scans: np.ndarray = field(default_factory=lambda: _EMPTY)
    task_fetches: np.ndarray = field(default_factory=lambda: _EMPTY)
    task_bytes: np.ndarray = field(default_factory=lambda: _EMPTY)
    task_outcomes: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int8)
    )

    @property
    def islands_found(self) -> int:
        """Number of islands this round located."""
        return len(self.islands)

    @property
    def nodes_islanded(self) -> int:
        """Members across this round's islands."""
        return len(self.islands.members)


def _first_occurrence(nbrs: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Mask of first occurrences in ``nbrs`` (order preserved).

    ``scratch`` is an int64 work array indexed by node id.  The
    reversed scatter makes each node's *earliest* flat index the one
    that survives, so a gather-compare marks exactly the first
    occurrence of every node — no sort, unlike ``np.unique``.  Stale
    scratch entries are harmless: only nodes written this call are
    read back.
    """
    idx = np.arange(len(nbrs), dtype=np.int64)
    scratch[nbrs[::-1]] = idx[::-1]
    return scratch[nbrs] == idx


def dedup_interhub_keys(
    hubs: np.ndarray, seeds: np.ndarray, num_nodes: int, new_hubs: np.ndarray
) -> np.ndarray:
    """Sorted canonical keys of the inter-hub edges among ``(hub, seed)``.

    ``(hubs[i], seeds[i])`` are one round's seed-is-hub tasks and
    ``new_hubs`` the hubs that round detected.  Each pair's key is
    ``min * num_nodes + max``, so both orientations of an edge share
    one key, and the result holds every key once.

    Precondition: every task's hub is a new hub of the round or an
    imported one (a sub-run's round 1), and Th2 gave each new hub one
    task per neighbour.  A task ``(h, s)`` with ``s < h`` whose seed
    ``s`` is a new hub then mirrors the task ``(s, h)`` of the same
    queue, so it is dropped before the one sort; only imported tasks
    can still repeat a key.  No earlier round's key can recur: each
    key here has an endpoint that became a hub this round, and a
    sub-run starts with no keys.
    """
    is_new = np.zeros(num_nodes, dtype=bool)
    is_new[new_hubs] = True
    keep = ~is_new[seeds] | (seeds > hubs)
    hubs, seeds = hubs[keep], seeds[keep]
    return sorted_unique(
        np.minimum(hubs, seeds) * np.int64(num_nodes) + np.maximum(hubs, seeds)
    )


def _int64_view(array: np.ndarray) -> memoryview:
    """Zero-copy memoryview of a C-contiguous int64 array.

    Indexing and slicing it yield Python ints as fast as a list does,
    without a per-entry copy.  The byte round-trip also accepts the
    ``=q`` buffer format of memory-mapped arrays, which a plain
    memoryview refuses to index.
    """
    return memoryview(array).cast("B").cast("q")


def _run_walk_edgewise(
    indptr: memoryview,
    indices: memoryview,
    state: bytearray,
    c_max: int,
    a0: int,
) -> tuple[int, int, int, int]:
    """Execute one over-``c_max`` TP-BFS task, edge by edge.

    Exact counterpart of :func:`repro.core.tp_bfs.run_bfs_task` for a
    seed in a component larger than ``c_max`` that already passed the
    hub and visited checks, mirroring its loop (the state codes are
    mutually exclusive, so the branch order is immaterial).  The walk
    stops at the first collision with ``v_global`` or when the island
    grows past ``c_max``: ``scans`` then counts entries up to and
    including the aborting one, fetches/bytes cover the rows popped up
    to it, and the cap-tripping member stays stamped into ``v_global``
    (the oracle stamps before it checks the cap).  One of the two
    always happens first: the walk either reaches a node an earlier
    walk stamped or, with none in reach, grows through the whole
    over-cap component.  So the walk never closes an island and skips
    the oracle's hub bookkeeping; ending any other way raises
    :class:`IslandizationError`.  Most walks collide with a stamped
    region after a handful of edge scans, and per-level array dispatch
    measured slower even for the long carving walks of caps in the
    thousands, so the walker runs on plain-Python data (memoryviews of
    the CSR arrays from :func:`_int64_view`, bytearray state) with
    ~40 ns per touch.

    Returns ``(code, scans, fetches, bytes)``, where ``code`` is
    ``TASK_CMAX`` or ``TASK_VISITED``.
    """
    state[a0] = 3          # in this walk's v_local
    members = [a0]
    count = 1
    query = 0
    scans = 0
    fetches = 0
    nbytes = 0
    aborted: int | None = None
    while query != count and aborted is None:
        node = members[query]
        start, end = indptr[node], indptr[node + 1]
        fetches += 1
        nbytes += (end - start) * 4
        for nb in indices[start:end]:
            scans += 1
            s = state[nb]
            if s == 0:                 # STATE_FREE: new member
                count += 1
                members.append(nb)
                state[nb] = 3
                if count > c_max:
                    aborted = TASK_CMAX
                    break
            elif s == 2:               # STATE_VISITED: collision
                aborted = TASK_VISITED
                break
            # 1 / 3: a hub or already this walk's member — skip.
        query += 1
    # Fold the walk's codes back to global state (stamps persist).
    for node in members:
        state[node] = 2
    if aborted is None:
        raise IslandizationError(
            "internal: an over-c_max TP-BFS walk closed an island"
        )
    return aborted, scans, fetches, nbytes


def _component_labels(
    graph: CSRGraph, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the active (unclassified non-hub) subgraph.

    Returns ``(node_to_comp, comp_sizes)``: ``node_to_comp[u]`` is the
    component label of active ``u`` and -1 elsewhere.  Labels count
    from 0 in the order of each component's smallest node, the order
    in which Tarjan's scan over ascending ids finishes them.  Only the
    active rows are gathered; an active row may be empty.
    """
    n = graph.num_nodes
    node_to_comp = np.full(n, -1, dtype=np.int64)
    active_ids = np.flatnonzero(active)
    k = len(active_ids)
    if k == 0:
        return node_to_comp, _EMPTY
    flat, counts = csr_gather(graph.indptr, active_ids)
    nbrs = graph.indices[flat]
    keep = active[nbrs]
    # Row i of the induced subgraph keeps the active entries of
    # gathered row i, so its end is a prefix count of ``keep``.
    sub_indptr = cumsum0(keep)[cumsum0(counts)]
    relabel = np.empty(n, dtype=np.int32)
    relabel[active_ids] = np.arange(k, dtype=np.int32)
    # int32 indices and float64 data are the types scipy's graph
    # routines validate to, so nothing is copied on the way in.
    sub = csr_matrix(
        (np.ones(int(sub_indptr[-1])), relabel[nbrs[keep]],
         sub_indptr.astype(np.int32)),
        shape=(k, k),
    )
    # The adjacency is symmetric, so strong components of the directed
    # view equal undirected components; Tarjan runs straight off the
    # CSR, skipping the G + G^T transpose both other modes build.
    _, labels = connected_components(sub, directed=True, connection="strong")
    node_to_comp[active_ids] = labels
    return node_to_comp, np.bincount(labels).astype(np.int64)


def _multi_source_bfs(
    graph: CSRGraph,
    state: np.ndarray,
    scratch: np.ndarray,
    seeds: np.ndarray,
    seed_hubs: np.ndarray,
    round_id: int,
) -> tuple[IslandTable, np.ndarray, np.ndarray, np.ndarray]:
    """Run every winning task's island BFS in one level-synchronous batch.

    All seeds lie in distinct untouched components, so the walks cannot
    interact: expanding them together level by level and regrouping by
    owner afterwards reproduces each task's solo BFS member order and
    hub first-contact order exactly.

    Returns ``(islands, scans, fetches, bytes)``: the table of round
    ``round_id``'s islands, one per seed, and per-owner arrays aligned
    to ``seeds``.
    """
    indptr, indices = graph.indptr, graph.indices
    num = len(seeds)
    member_nodes: list[np.ndarray] = [seeds]
    member_owner: list[np.ndarray] = [np.arange(num, dtype=np.int64)]
    # Hub-contact stream in global scan order; the pseudo level -1 seeds
    # each task's own hub first, matching the scalar append order.
    hub_stream_owner: list[np.ndarray] = [np.arange(num, dtype=np.int64)]
    hub_stream_hub: list[np.ndarray] = [seed_hubs.astype(np.int64)]
    state[seeds] = STATE_VISITED

    frontier = seeds
    owner = member_owner[0]
    while frontier.size:
        flat, row_counts = csr_gather(indptr, frontier)
        if len(flat) == 0:
            break
        nbrs = indices[flat]
        nbr_owner = np.repeat(owner, row_counts)
        s = state[nbrs]
        first = _first_occurrence(nbrs, scratch)
        new_mask = (s == STATE_FREE) & first
        hub_mask = s == STATE_HUB
        if hub_mask.any():
            hub_stream_owner.append(nbr_owner[hub_mask])
            hub_stream_hub.append(nbrs[hub_mask])
        frontier = nbrs[new_mask]
        owner = nbr_owner[new_mask]
        state[frontier] = STATE_VISITED
        member_nodes.append(frontier)
        member_owner.append(owner)

    all_nodes = np.concatenate(member_nodes)
    owners = np.concatenate(member_owner)
    # Stable grouping by owner preserves each task's (level, scan-order)
    # sequence — exactly the scalar queue's append order.
    order = np.argsort(owners, kind="stable")
    nodes = all_nodes[order]
    counts = np.bincount(owners, minlength=num)

    degrees = indptr[1:] - indptr[:-1]
    scans = np.bincount(owners, weights=degrees[all_nodes],
                        minlength=num).astype(np.int64)
    fetches = counts.astype(np.int64)
    nbytes = scans * 4

    # Hub first-contact dedup per (owner, hub), keeping stream order.
    so = np.concatenate(hub_stream_owner)
    sh = np.concatenate(hub_stream_hub)
    keys = so * np.int64(graph.num_nodes + 1) + sh
    _, first_idx = np.unique(keys, return_index=True)
    first_idx = np.sort(first_idx)
    ho, hh = so[first_idx], sh[first_idx]
    h_order = np.argsort(ho, kind="stable")
    islands = IslandTable(
        round_id=np.full(num, round_id, dtype=np.int64),
        member_offsets=cumsum0(counts),
        members=nodes,
        hub_offsets=cumsum0(np.bincount(ho, minlength=num)),
        hubs=hh[h_order],
    )
    return islands, scans, fetches, nbytes


def execute_round_batched(
    graph: CSRGraph,
    is_hub: np.ndarray,
    classified: np.ndarray,
    c_max: int,
    task_hubs: np.ndarray,
    task_seeds: np.ndarray,
    new_hubs: np.ndarray,
    round_id: int,
) -> RoundOutcome:
    """Execute one round's TP-BFS task queue, batched.

    Parameters mirror the scalar loop's per-round inputs: ``is_hub``
    and ``classified`` reflect the state *after* this round's hub
    detection, ``task_hubs``/``task_seeds`` are the Th2-generated queue
    in task order, ``new_hubs`` are the hubs this round detected
    (the inter-hub dedup's input, see :func:`dedup_interhub_keys`), and
    ``round_id`` labels the round's islands.
    The over-``c_max`` walks read ``graph``'s own CSR arrays in place
    (memory-mapped and read-only ones included), so a run keeps no
    per-graph cache.  The outcome's per-task scans let the caller
    replay the greedy engine dispatch in task order.
    """
    n = graph.num_nodes
    num_tasks = len(task_seeds)
    out = RoundOutcome()
    if num_tasks == 0:
        return out
    task_scans = np.zeros(num_tasks, dtype=np.int64)
    task_fetches = np.zeros(num_tasks, dtype=np.int64)
    task_bytes = np.zeros(num_tasks, dtype=np.int64)
    # Default VISITED: the only zero-work outcome a BFS task can have
    # (losers of a component race and instant deaths); every other
    # path overwrites its own entries.
    task_outcomes = np.full(num_tasks, TASK_VISITED, dtype=np.int8)

    # --- seed-is-hub tasks: bulk inter-hub edge collection ------------
    seed_hub_mask = is_hub[task_seeds]
    out.dropped_classified = int(seed_hub_mask.sum())
    if out.dropped_classified:
        task_outcomes[seed_hub_mask] = TASK_SEED_HUB
        out.new_interhub_keys = dedup_interhub_keys(
            task_hubs[seed_hub_mask], task_seeds[seed_hub_mask], n, new_hubs
        )

    bfs_idx = np.flatnonzero(~seed_hub_mask)
    if len(bfs_idx) == 0:
        out.task_scans = task_scans
        out.task_fetches = task_fetches
        out.task_bytes = task_bytes
        out.task_outcomes = task_outcomes
        return out
    bfs_seeds = task_seeds[bfs_idx]

    # --- component routing --------------------------------------------
    active = ~classified & ~is_hub
    node_to_comp, comp_sizes = _component_labels(graph, active)
    seed_comp = node_to_comp[bfs_seeds]
    if len(seed_comp) and int(seed_comp.min()) < 0:
        raise IslandizationError(
            "internal: TP-BFS task seed is already classified"
        )

    # First task per component wins; the reversed scatter keeps the
    # lowest task index.  Only small components can produce islands.
    first_task = np.full(len(comp_sizes), -1, dtype=np.int64)
    first_task[seed_comp[::-1]] = bfs_idx[::-1]
    small = comp_sizes[seed_comp] <= c_max
    winner = small & (first_task[seed_comp] == bfs_idx)
    out.dropped_visited += int(np.count_nonzero(small & ~winner))

    state = np.zeros(n, dtype=np.int8)
    state[is_hub] = STATE_HUB
    scratch = np.zeros(n, dtype=np.int64)

    # --- small components: one multi-source BFS for all winners -------
    win_pos = np.flatnonzero(winner)
    if len(win_pos):
        win_idx = bfs_idx[win_pos]
        out.islands, scans, fetches, nbytes = _multi_source_bfs(
            graph, state, scratch, bfs_seeds[win_pos], task_hubs[win_idx],
            round_id,
        )
        task_scans[win_idx] = scans
        task_fetches[win_idx] = fetches
        task_bytes[win_idx] = nbytes
        task_outcomes[win_idx] = TASK_ISLAND
        out.scans += int(scans.sum())
        out.fetches += int(fetches.sum())
        out.adjacency_bytes += int(nbytes.sum())

    # --- large components: exact sequential walks ---------------------
    # The first walk into a fresh over-c_max region carves up to c_max
    # members; later walks collide with the stamped zone after a few
    # edge scans.
    big_pos = np.flatnonzero(~small)
    if len(big_pos):
        # A task whose seed repeats an earlier walk task's seed dies
        # with zero work: the earlier task either walked, which stamps
        # its seed, or found the seed stamped.  Such tasks keep the
        # zero-work VISITED defaults.
        walk_idx = bfs_idx[big_pos]
        walk_seeds = bfs_seeds[big_pos]
        fresh = _first_occurrence(walk_seeds, scratch)
        walk_idx = walk_idx[fresh]
        walk_seeds = walk_seeds[fresh]
        # The walk phase is the round's last consumer of the state, so
        # the bytearray snapshot never needs to be written back.
        wstate = bytearray(state)
        indptr = _int64_view(graph.indptr)
        indices = _int64_view(graph.indices)
        # Per-walk results go to Python lists and reach the task
        # arrays in one scatter per round.
        walked: list[int] = []
        w_scans: list[int] = []
        w_fetches: list[int] = []
        w_bytes: list[int] = []
        w_codes: list[int] = []
        for pos, a0 in zip(walk_idx.tolist(), walk_seeds.tolist()):
            if wstate[a0] == 2:          # STATE_VISITED: instant death
                continue
            code, scans, fetches, nbytes = _run_walk_edgewise(
                indptr, indices, wstate, c_max, a0
            )
            walked.append(pos)
            w_scans.append(scans)
            w_fetches.append(fetches)
            w_bytes.append(nbytes)
            w_codes.append(code)
        task_scans[walked] = w_scans
        task_fetches[walked] = w_fetches
        task_bytes[walked] = w_bytes
        task_outcomes[walked] = w_codes
        out.scans += sum(w_scans)
        out.fetches += sum(w_fetches)
        out.adjacency_bytes += sum(w_bytes)
        out.dropped_visited += (
            len(big_pos) - len(walked) + w_codes.count(TASK_VISITED)
        )
        out.dropped_cmax += w_codes.count(TASK_CMAX)

    out.task_scans = task_scans
    out.task_fetches = task_fetches
    out.task_bytes = task_bytes
    out.task_outcomes = task_outcomes
    return out
