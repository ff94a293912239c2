"""Batched Island Consumer backend: vectorized task assembly + execution
(§3.3, Figures 6-7; chunked for the §3.1.1/Fig. 3 streamed pipeline).

The scalar consumer (``repro.core.consumer``) builds one dense bitmap
per island in a per-member Python loop and then walks islands one at a
time per layer.  After the PR-3 locator speedup that loop dominates
every simulated layer.  This module applies the same playbook to the
consumer:

* :class:`TaskBatch` — a multi-island task representation built from
  the locator's :class:`~repro.core.types.IslandTable`, whose flat hub
  list and offsets it keeps as they are: the per-task local-node array
  plus one COO list of bitmap entries, assembled in a *single*
  vectorized pass over the global CSR (one adjacency gather for every
  member row at once, one sorted-key join for the member→hub columns)
  instead of per-member ``searchsorted`` calls.  The entries stay in
  the order assembly produces them: a window's non-zero count does not
  depend on entry order, so counting never sorts them, and the
  task/row/col-sorted COO is built on the first read of
  ``entry_task/row/col`` (the functional scan terms, and tests).
  Entries are unique without a dedup pass
  because the CSR rows are sorted, duplicate-free and loop-free and no
  node is a member twice; assembly checks both.
* :func:`run_island_chunk` — evaluates the 1×k window scan for *all*
  island tasks of a batch in bulk: per-(task, group, row) non-zero
  counts come from one ``bincount`` over the COO entries, window
  classification is a handful of elementwise ops over the whole batch
  (:func:`repro.core.preagg.classify_windows`), and the classification
  is cached on the batch so later layers skip it entirely.  Ring
  emissions, DHUB-PRC updates and HUB-XW-cache accesses are batched
  across tasks with per-call rounding parity; functional mode runs the
  add-vs-subtract scan of every island, whatever its shape, as three
  sparse products per chunk.

The contract with the scalar oracle is **exact equality** — identical
:class:`~repro.core.consumer.LayerCounts`,
:class:`~repro.core.preagg.ScanCounts`, DRAM traffic, ring statistics,
DHUB-PRC bank counters, and byte-identical functional outputs.  Float
order is pinned by two left folds:

* **The window scan.**  :meth:`TaskBatch.scan_terms` stores, per local
  row, the signed terms of the accumulation order stated in
  :mod:`repro.core.preagg`: the pre-sums of its full and subtract
  windows in group order (``+1``), the missing columns of its subtract
  windows in column order (``-1``), then the present columns of its
  direct windows in column order (``+1``).  Term columns are global
  node ids followed by the batch's group pre-sums, and the group CSR
  lists each group's columns in column order.  scipy's CSR times dense
  product (``csr_matvecs``) computes every output row as a left fold
  from ``+0.0`` over the row's entries in stored order, and ``±1.0 *
  x`` is exact, so each row equals the scalar oracle's fold bit for
  bit.
* **The hub fold.**  Hub partial sums receive contributions from many
  islands.  One CSR product (:func:`_hub_fold`) has a row per touched
  hub that holds the running accumulator, then the hub's contributions
  in arrival order — the scalar loop's ``+=`` sequence.  Seeding with
  the accumulator costs nothing: ``+0.0 + acc == acc`` bitwise, since
  a fold seeded at ``+0.0`` never yields ``-0.0``.  For the same
  reason an island chunk's accumulators come out of its hub-row
  product: the hub term matrix opens with one ``1.0`` seed row per
  touched hub, whose column selects that hub's accumulator stacked
  under the scan operand, so the fold multiplies the product as it is
  and no second copy of the chunk's hub rows is made.

The scipy matrices are built directly from ``(data, indices,
indptr)``: ``tocsr``, ``sum_duplicates`` and ``sort_indices`` would
reorder the entries, and with them the folds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.core.preagg import ScanCounts, classify_windows, group_layout_batch
from repro.errors import SimulationError
from repro.hw.ring import RingNetwork, RingStats
from repro.nputil import csr_gather, cumsum0 as _cumsum0, sorted_unique

__all__ = [
    "TaskBatch",
    "run_island_chunk",
    "run_interhub_batched",
]

def _empty() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _member_rows(
    num_hubs: np.ndarray, num_locals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Task and local row of every member, task-major, in local order.

    They are also the coordinates of the member diagonal.
    """
    num_members = num_locals - num_hubs
    offsets = _cumsum0(num_members)
    task = np.repeat(np.arange(len(num_hubs), dtype=np.int64), num_members)
    row = np.arange(int(offsets[-1]), dtype=np.int64) - np.repeat(
        offsets[:-1] - num_hubs, num_members
    )
    return task, row


def _row_blocks(
    graph, members_flat, member_task, member_row, task_of, row_of,
    hub_keys, hub_cols, span,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ``(task, row, col)`` entry blocks of every member's CSR row.

    Same-island member entries, member→hub entries, then their hub-row
    mirrors (the L-shape).  ``task_of``/``row_of`` map a member node to
    its task and local row; ``hub_keys`` are the sorted ``task * span +
    hub`` keys and ``hub_cols`` their local columns.  The gathered rows
    are freed on return, before the caller concatenates the blocks.
    """
    # One adjacency gather over every member row of every task.
    flat, deg = csr_gather(
        graph.indptr.astype(np.int64, copy=False), members_flat
    )
    neigh = graph.indices[flat].astype(np.int64, copy=False)
    src_task = np.repeat(member_task, deg)
    src_row = np.repeat(member_row, deg)
    same = task_of[neigh] == src_task
    blocks = [(src_task[same], src_row[same], row_of[neigh[same]])]
    rest = ~same
    if rest.any() and len(hub_keys):
        rest_task = src_task[rest]
        query = rest_task * span + neigh[rest]
        pos = np.minimum(np.searchsorted(hub_keys, query), len(hub_keys) - 1)
        # Neighbours that are neither members of this island nor
        # attached hubs are dropped, as the scalar builder drops them
        # (a valid islandization produces none).
        hit = hub_keys[pos] == query
        hub_task = rest_task[hit]
        hub_row = src_row[rest][hit]
        hub_col = hub_cols[pos[hit]]
        blocks += [(hub_task, hub_row, hub_col), (hub_task, hub_col, hub_row)]
    return blocks


@dataclass
class _ScanClasses:
    """Cached per-k window classification of a whole :class:`TaskBatch`.

    Cells are laid out task-major, then group-major, then row:
    ``cell_offsets[t] + g * L[t] + r``.  ``counts`` is the merged
    :class:`ScanCounts` of every task (the scalar per-task merge is a
    plain integer sum, so one bulk total is identical).
    """

    counts: ScanCounts
    group_offsets: np.ndarray    # (T+1,)
    group_starts: np.ndarray     # flat per-(task, group) column starts
    group_widths: np.ndarray     # flat per-(task, group) widths
    cell_offsets: np.ndarray     # (T+1,) into the flat cell arrays
    full: np.ndarray             # flat bool per (task, group, row)
    subtract: np.ndarray
    direct: np.ndarray


@dataclass
class _ScanTerms:
    """Cached per-k signed term matrices of a whole :class:`TaskBatch`.

    Columns ``[0, span)`` are global node ids, ``span + j`` is the
    batch's flat group ``j`` and ``span + G + i`` is the accumulator of
    the ``i``-th touched hub; ``groups @ xw[:span]`` yields the group
    pre-sums.  ``members`` has one row per member row of every task
    (task-major, writing ``member_nodes``).  ``hubs`` opens with one
    seed row per touched hub (a single ``1.0`` in that hub's
    accumulator column), then has one row per attached hub (in
    ``hub_nodes`` order).  Each row's entries are stored in the
    accumulation order, never canonicalised.
    """

    span: int
    groups: sparse.csr_matrix    # (G, span) group pre-sum folds
    members: sparse.csr_matrix   # (M, span + G + T)
    hubs: sparse.csr_matrix      # (T + H, span + G + T)
    member_nodes: np.ndarray     # (M,) global id of each member row


@dataclass
class _Routing:
    """Cached routing of a :class:`TaskBatch`'s hub emissions.

    ``pes`` is each task's source PE, ``ring`` the counters
    :meth:`RingNetwork.send_batches <repro.hw.ring.RingNetwork.send_batches>`
    adds for the batch, and ``prc_banks`` the per-bank DHUB-PRC update
    counts of ``hub_nodes`` (one bank per PE).
    """

    pes: np.ndarray
    ring: RingStats
    prc_banks: np.ndarray


@dataclass
class TaskBatch:
    """All island tasks of one islandization, packed for bulk execution.

    ``local_nodes`` concatenates every task's ``[hubs..., members...]``
    local order.  The bitmap entries are one ``(task, row, col)`` COO
    triple in local coordinates, kept in the order assembly produced
    them: same-island member entries, member→hub entries, their hub-row
    mirrors, then (with ``self_loops``) the member diagonal.  The window
    scan counts them in that order.  The first read of
    :attr:`entry_task`, :attr:`entry_row` or :attr:`entry_col` sorts
    them task-major, then by row, then by column, and the sorted arrays
    *replace* the assembly-order ones, so a batch never holds two
    copies.  ``nnz`` is each task's entry count, which no order changes.

    Assembly does not deduplicate.  Entries are unique when the CSR
    rows are sorted, duplicate-free and loop-free (member→member
    entries then come from distinct row entries, the member→hub block
    has ``col < num_hubs`` and its mirror ``row < num_hubs``, and the
    diagonal exists only with ``self_loops``) and when no node is a
    member twice.  :meth:`from_islands` checks both.

    ``self_loops`` says whether the member diagonal is among the
    entries (``None`` for a batch packed from prebuilt bitmaps);
    :meth:`with_self_loops` derives the other variant.
    """

    num_hubs: np.ndarray         # (T,)
    num_locals: np.ndarray       # (T,)
    local_nodes: np.ndarray      # flat global ids, [hubs..., members...]
    local_offsets: np.ndarray    # (T+1,)
    hub_nodes: np.ndarray        # flat attached-hub ids per task
    hub_offsets: np.ndarray      # (T+1,)
    self_loops: bool | None
    #: The (task, row, col) entries, in assembly order until sorted.
    _entries: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    _sorted: bool = field(default=False, repr=False)
    _scan_cache: dict[int, _ScanClasses] = field(
        default_factory=dict, repr=False
    )
    _term_cache: dict[int, _ScanTerms] = field(
        default_factory=dict, repr=False
    )
    _route_cache: dict[tuple[int, int], _Routing] = field(
        default_factory=dict, repr=False
    )

    @property
    def num_tasks(self) -> int:
        """Number of island tasks in the batch."""
        return len(self.num_hubs)

    @cached_property
    def nnz(self) -> np.ndarray:
        """Directed entries per task, ``(T,)``."""
        return np.bincount(
            self._entries[0], minlength=self.num_tasks
        ).astype(np.int64, copy=False)

    @property
    def entry_task(self) -> np.ndarray:
        """Task of every bitmap entry, sorted (task, row, col)-major."""
        return self._sorted_entries()[0]

    @property
    def entry_row(self) -> np.ndarray:
        """Local row of every bitmap entry, in :attr:`entry_task` order."""
        return self._sorted_entries()[1]

    @property
    def entry_col(self) -> np.ndarray:
        """Local column of every bitmap entry, in :attr:`entry_task` order."""
        return self._sorted_entries()[2]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_islands(
        cls, graph, islands, *, add_self_loops: bool, scratch: dict | None = None
    ) -> "TaskBatch":
        """Pack an island table against ``graph``'s CSR.

        ``islands`` is an :class:`~repro.core.types.IslandTable` holding
        any subset of an islandization — in the streamed pipeline it is
        one round's chunk from a
        :class:`~repro.core.types.RoundOutput`, assembled while the
        locator is still producing later rounds.  The table's flat hub
        list and offsets are the batch's own, so nothing is packed.
        Task packing is island-local, so a per-round slice holds
        exactly the entries those tasks have in the monolithic
        full-result batch.

        ``graph`` must be loop-free with sorted, duplicate-free rows:
        :meth:`~repro.graph.csr.CSRGraph.without_self_loops` raises
        :class:`~repro.errors.GraphError` on a malformed row, and a
        graph it would strip raises :class:`SimulationError`.  The
        verdict is stored on the graph, so the check is free after the
        first call.  A node listed as a member twice raises
        :class:`SimulationError` too.

        ``scratch`` (optional) is a dict the caller keeps across calls
        to reuse the two O(num_nodes) member-lookup maps instead of
        allocating them per call — the streamed pipeline passes one
        per inference, so per-round assembly costs O(chunk) rather
        than O(num_nodes) per round.  The maps are restored to their
        clean state (written positions reset) before returning, which
        keeps reuse exact for any island subset.
        """
        if graph.without_self_loops() is not graph:
            raise SimulationError(
                f"graph {graph.name!r} has self-loops; island tasks are "
                "assembled on graph.without_self_loops()"
            )
        num_tasks = len(islands)
        n = graph.num_nodes
        num_hubs = islands.num_hubs
        num_locals = num_hubs + islands.num_members
        local_offsets = _cumsum0(num_locals)
        hub_offsets = islands.hub_offsets
        hubs_flat, members_flat = islands.hubs, islands.members

        # Interleave into the per-task [hubs..., members...] local order.
        local_nodes = np.empty(int(local_offsets[-1]), dtype=np.int64)
        hub_rank = (
            np.arange(len(hubs_flat), dtype=np.int64)
            - np.repeat(hub_offsets[:-1], num_hubs)
        )
        local_nodes[np.repeat(local_offsets[:-1], num_hubs) + hub_rank] = (
            hubs_flat
        )
        member_task, member_row = _member_rows(num_hubs, num_locals)
        local_nodes[local_offsets[member_task] + member_row] = members_flat

        # Members belong to exactly one island: global row maps
        # (allocated fresh, or reused from the caller's scratch dict —
        # kept clean between calls by the reset below).
        if scratch is not None and len(scratch.get("member_task", ())) == n:
            task_of = scratch["member_task"]
            row_of = scratch["member_local"]
        else:
            task_of = np.full(n, -1, dtype=np.int64)
            row_of = np.full(n, -1, dtype=np.int64)
            if scratch is not None:
                scratch["member_task"] = task_of
                scratch["member_local"] = row_of
        task_of[members_flat] = member_task
        row_of[members_flat] = member_row
        # A node listed twice keeps only one (task, row): the other
        # listing reads back another one.
        duplicate = not (
            np.array_equal(task_of[members_flat], member_task)
            and np.array_equal(row_of[members_flat], member_row)
        )

        # Hubs attach to many islands: a sorted (task, hub) → local
        # column table answers every member→hub edge in one join.
        span = max(n, 1)
        pair_keys = (
            np.repeat(np.arange(num_tasks, dtype=np.int64), num_hubs) * span
            + hubs_flat
        )
        key_order = np.argsort(pair_keys)
        blocks = _row_blocks(
            graph, members_flat, member_task, member_row, task_of, row_of,
            pair_keys[key_order], hub_rank[key_order], span,
        )
        if add_self_loops:
            blocks.append((member_task, member_row, member_row))
        if scratch is not None:
            # Restore the clean all(-1) state so the next call starts
            # from scratch regardless of which islands this one held.
            task_of[members_flat] = -1
            row_of[members_flat] = -1
        if duplicate:
            raise SimulationError("a node is listed as a member twice")
        return cls(
            num_hubs=num_hubs, num_locals=num_locals,
            local_nodes=local_nodes, local_offsets=local_offsets,
            hub_nodes=hubs_flat, hub_offsets=hub_offsets,
            self_loops=add_self_loops,
            _entries=tuple(np.concatenate(part) for part in zip(*blocks)),
        )

    @classmethod
    def from_tasks(cls, tasks) -> "TaskBatch":
        """Pack already-built :class:`IslandTask` bitmaps (compat path)."""
        num_tasks = len(tasks)
        num_hubs = np.fromiter(
            (t.num_hubs for t in tasks), dtype=np.int64, count=num_tasks
        )
        num_locals = np.fromiter(
            (t.num_locals for t in tasks), dtype=np.int64, count=num_tasks
        )
        if num_tasks:
            local_nodes = np.concatenate(
                [t.local_nodes for t in tasks]
            ).astype(np.int64, copy=False)
            hub_nodes = np.concatenate(
                [t.hub_nodes for t in tasks]
            ).astype(np.int64, copy=False)
        else:
            local_nodes, hub_nodes = _empty(), _empty()
        # ``np.nonzero`` lists each bitmap's entries row-major, once.
        parts_task, parts_row, parts_col = [_empty()], [_empty()], [_empty()]
        for i, task in enumerate(tasks):
            rows, cols = np.nonzero(task.bitmap)
            parts_task.append(np.full(len(rows), i, dtype=np.int64))
            parts_row.append(rows.astype(np.int64, copy=False))
            parts_col.append(cols.astype(np.int64, copy=False))
        return cls(
            num_hubs=num_hubs, num_locals=num_locals,
            local_nodes=local_nodes, local_offsets=_cumsum0(num_locals),
            hub_nodes=hub_nodes, hub_offsets=_cumsum0(num_hubs),
            self_loops=None,
            _entries=(
                np.concatenate(parts_task), np.concatenate(parts_row),
                np.concatenate(parts_col),
            ),
            _sorted=True,
        )

    def with_self_loops(self, add_self_loops: bool) -> "TaskBatch":
        """This batch with the member diagonal added or dropped.

        Only member diagonals have ``row == col``: the graph is
        loop-free, the hub×hub block is empty and hub rows hold only
        member columns.  Dropping them is one mask, which keeps sorted
        entries sorted; adding them appends the diagonal block, as
        assembly does.  Every other array and the routing cache (which
        reads only ``hub_nodes``) are shared with this batch; window
        classes and scan terms are not, since they depend on the
        entries.
        """
        if self.self_loops is None:
            raise SimulationError(
                "a batch packed from prebuilt bitmaps has no known "
                "self-loop mode"
            )
        if add_self_loops == self.self_loops:
            return self
        task, row, col = self._entries
        if add_self_loops:
            diag_task, diag_row = _member_rows(
                self.num_hubs, self.num_locals
            )
            entries = (
                np.concatenate((task, diag_task)),
                np.concatenate((row, diag_row)),
                np.concatenate((col, diag_row)),
            )
        else:
            keep = row != col
            entries = (task[keep], row[keep], col[keep])
        return TaskBatch(
            num_hubs=self.num_hubs, num_locals=self.num_locals,
            local_nodes=self.local_nodes, local_offsets=self.local_offsets,
            hub_nodes=self.hub_nodes, hub_offsets=self.hub_offsets,
            self_loops=add_self_loops, _entries=entries,
            _sorted=self._sorted and not add_self_loops,
            _route_cache=self._route_cache,
        )

    def _sorted_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries sorted task-major, then by row, then by column.

        The first call sorts one int64 key per entry,
        ``(local_offsets[task] + row) * width + col`` with ``width`` the
        widest task, and replaces the assembly-order arrays with the
        decoded ones.  Rows decode with one division by ``width`` and
        tasks from the per-task counts.
        """
        if self._sorted:
            return self._entries
        width = max(int(self.num_locals.max(initial=0)), 1)
        if int(self.local_offsets[-1]) * width > np.iinfo(np.int64).max:
            raise SimulationError("task batch too large for an int64 entry key")
        nnz = self.nnz
        task, row, col = self._entries
        self._entries = None    # drop the assembly order before sorting
        key = self.local_offsets[task]
        del task
        key += row
        del row
        key *= width
        key += col
        del col
        key.sort()
        rows = key // width
        key -= rows * width     # the columns
        task = np.repeat(np.arange(self.num_tasks, dtype=np.int64), nnz)
        rows -= np.repeat(self.local_offsets[:-1], nnz)
        self._entries = (task, rows, key)
        self._sorted = True
        return self._entries

    # ------------------------------------------------------------------
    # Window classification (shared across layers)
    # ------------------------------------------------------------------
    def scan_classes(self, k: int) -> _ScanClasses:
        """Classify every task's 1×k windows in bulk (cached per ``k``).

        The bitmap and ``k`` fully determine the scan, so every layer
        of an inference reuses one classification — the scalar oracle
        recomputes it per layer and must produce the same counts.
        """
        cached = self._scan_cache.get(k)
        if cached is not None:
            return cached
        num_tasks = self.num_tasks
        groups, group_offsets, group_starts, group_widths = group_layout_batch(
            self.num_hubs, self.num_locals, k
        )
        cells_per_task = groups * self.num_locals
        cell_offsets = _cumsum0(cells_per_task)
        total_cells = int(cell_offsets[-1])

        # Per-window non-zero counts from the COO entries, in whatever
        # order they are held: each entry lands in its column's group;
        # empty windows stay zero.
        z = np.bincount(
            self._entry_cells(k, cell_offsets), minlength=total_cells
        ).astype(np.int64, copy=False)
        group_task = np.repeat(np.arange(num_tasks, dtype=np.int64), groups)
        cell_widths = np.repeat(group_widths, self.num_locals[group_task])
        full, subtract, direct, cost = classify_windows(z, cell_widths)

        counts = ScanCounts(
            baseline_ops=int(z.sum()),
            scan_ops=int(cost.sum()),
            preagg_build_ops=int(np.maximum(group_widths - 1, 0).sum()),
            windows_full=int(full.sum()),
            windows_subtract=int(subtract.sum()),
            windows_direct=int(direct.sum()),
            windows_skipped=int((z == 0).sum()),
        )
        classes = _ScanClasses(
            counts=counts, group_offsets=group_offsets,
            group_starts=group_starts, group_widths=group_widths,
            cell_offsets=cell_offsets, full=full, subtract=subtract,
            direct=direct,
        )
        self._scan_cache[k] = classes
        return classes

    def _entry_cells(self, k: int, cell_offsets: np.ndarray) -> np.ndarray:
        """The (task, group, row) window cell of every held COO entry."""
        task, row, col = self._entries
        hubs = self.num_hubs[task]
        group_of = np.where(
            col < hubs,
            col // k,
            ((self.num_hubs + k - 1) // k)[task] + (col - hubs) // k,
        )
        return cell_offsets[task] + group_of * self.num_locals[task] + row

    # ------------------------------------------------------------------
    # Hub routing (shared across layers and models)
    # ------------------------------------------------------------------
    def routing(self, ring: RingNetwork, task_offset: int) -> _Routing:
        """Ring and DHUB-PRC routing of the batch at ``task_offset``.

        Task ``t`` emits from PE ``(task_offset + t) % ring.num_pes``.
        The routing depends on nothing else, so it is cached per
        ``(task_offset, num_pes)``: every layer, and every model that
        shares the batch through a task memo, routes it once.
        """
        num_pes = ring.num_pes
        key = (task_offset, num_pes)
        cached = self._route_cache.get(key)
        if cached is None:
            pes = (
                task_offset + np.arange(self.num_tasks, dtype=np.int64)
            ) % num_pes
            cached = _Routing(
                pes=pes,
                ring=ring.batch_stats(pes, self.hub_nodes, self.hub_offsets),
                prc_banks=np.bincount(
                    self.hub_nodes % num_pes, minlength=num_pes
                ),
            )
            self._route_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Functional scan terms (shared across layers)
    # ------------------------------------------------------------------
    def scan_terms(self, k: int) -> _ScanTerms:
        """Signed term matrices of every task's 1×k scan (cached per ``k``).

        Built once from :meth:`scan_classes` on the first functional
        layer, in the accumulation order of the module docstring.  A
        local row is ``local_offsets[t] + r``.  Each of the three term
        lists below is sorted by local row, and within a row in its
        fold order, so a term's slot is its row's start, plus the
        row's terms of earlier lists, plus its rank in its own list.
        The seed rows sit between the member rows and the hub rows, so
        both matrices are slices of one set of arrays.
        """
        cached = self._term_cache.get(k)
        if cached is not None:
            return cached
        if self.num_tasks == 0:
            raise SimulationError("a batch without tasks has no scan terms")
        entry_task, entry_row, entry_col = self._sorted_entries()
        classes = self.scan_classes(k)
        locals_n = self.num_locals
        total_rows = int(self.local_offsets[-1])
        span = int(self.local_nodes.max()) + 1
        total_groups = int(classes.group_offsets[-1])

        # 1. Pre-sums of full and subtract windows.  Cells run task,
        # group, row; a stable sort by local row puts each row's
        # windows in group order.
        cells = np.flatnonzero(classes.full | classes.subtract)
        cell_task = np.searchsorted(classes.cell_offsets, cells, side="right") - 1
        group, row = np.divmod(
            cells - classes.cell_offsets[cell_task], locals_n[cell_task]
        )
        order = np.argsort(self.local_offsets[cell_task] + row, kind="stable")
        cells, cell_task = cells[order], cell_task[order]
        pre_row = self.local_offsets[cell_task] + row[order]
        pre_group = classes.group_offsets[cell_task] + group[order]

        # 2. Missing columns of subtract windows: every column of each
        # subtract window, minus the bitmap entries among them.
        is_sub = classes.subtract[cells]
        sub_group = pre_group[is_sub]
        widths = classes.group_widths[sub_group]
        cand_row = np.repeat(pre_row[is_sub], widths)
        cand_col = (
            np.repeat(classes.group_starts[sub_group], widths)
            + np.arange(int(widths.sum()), dtype=np.int64)
            - np.repeat(_cumsum0(widths)[:-1], widths)
        )
        cand_base = np.repeat(self.local_offsets[cell_task[is_sub]], widths)
        entry_row = self.local_offsets[entry_task] + entry_row
        key_span = int(locals_n.max())
        entry_key = entry_row * key_span + entry_col
        cand_key = cand_row * key_span + cand_col
        hit = np.minimum(
            np.searchsorted(entry_key, cand_key), len(entry_key) - 1
        )
        missing = entry_key[hit] != cand_key
        sub_row = cand_row[missing]
        sub_col = self.local_nodes[cand_base[missing] + cand_col[missing]]

        # 3. Present columns of direct windows: the bitmap entries of
        # direct cells, already sorted by row, then column.
        is_dir = classes.direct[self._entry_cells(k, classes.cell_offsets)]
        dir_row = entry_row[is_dir]
        dir_col = self.local_nodes[
            self.local_offsets[entry_task[is_dir]] + entry_col[is_dir]
        ]

        # Rows: every member row (task-major), one seed row per touched
        # hub, then every hub row (the hub_nodes pair order).
        row_task = np.repeat(
            np.arange(self.num_tasks, dtype=np.int64), locals_n
        )
        rank = np.arange(total_rows, dtype=np.int64) - self.local_offsets[row_task]
        is_hub = rank < self.num_hubs[row_task]
        member_rows = np.flatnonzero(~is_hub)
        num_members = len(member_rows)
        num_seeds = len(sorted_unique(self.hub_nodes))
        row_order = np.concatenate((member_rows, np.flatnonzero(is_hub)))
        lists = (
            (pre_row, span + pre_group, 1.0),
            (sub_row, sub_col, -1.0),
            (dir_row, dir_col, 1.0),
        )
        per_list = [np.bincount(rows, minlength=total_rows)
                    for rows, _, _ in lists]
        row_counts = sum(per_list)[row_order]
        indptr = _cumsum0(np.concatenate((
            row_counts[:num_members],
            np.ones(num_seeds, dtype=np.int64),
            row_counts[num_members:],
        )))
        split = int(indptr[num_members])
        row_start = np.empty(total_rows, dtype=np.int64)
        row_start[row_order] = np.concatenate(
            (indptr[:num_members], indptr[num_members + num_seeds:-1])
        )
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        data = np.empty(int(indptr[-1]), dtype=np.float64)
        indices[split:split + num_seeds] = span + total_groups + np.arange(
            num_seeds, dtype=np.int64
        )
        data[split:split + num_seeds] = 1.0
        for (rows, cols, sign), counts in zip(lists, per_list):
            slots = (
                row_start[rows]
                + np.arange(len(rows), dtype=np.int64)
                - _cumsum0(counts)[rows]
            )
            indices[slots] = cols
            data[slots] = sign
            row_start += counts

        width = span + total_groups + num_seeds
        terms = _ScanTerms(
            span=span,
            groups=sparse.csr_matrix(
                (np.ones(total_rows), self.local_nodes,
                 _cumsum0(classes.group_widths)),
                shape=(total_groups, span),
            ),
            members=sparse.csr_matrix(
                (data[:split], indices[:split], indptr[:num_members + 1]),
                shape=(num_members, width),
            ),
            hubs=sparse.csr_matrix(
                (data[split:], indices[split:], indptr[num_members:] - split),
                shape=(num_seeds + total_rows - num_members, width),
            ),
            member_nodes=self.local_nodes[member_rows],
        )
        self._term_cache[k] = terms
        return terms


# ----------------------------------------------------------------------
# Layer execution
# ----------------------------------------------------------------------
def run_island_chunk(
    consumer, state, batch: TaskBatch, meter, *, task_offset: int = 0
) -> None:
    """Island phase over one :class:`TaskBatch` (full batch or slice).

    ``task_offset`` is the global index of the batch's first task, so a
    per-round slice lands on the same PEs (ring sources, DHUB-PRC
    banks) the monolithic batch assigns.  Per-task accounting is
    batched: every counter is additive, so one bulk call per structure
    reproduces the scalar loop's totals, and the cache helpers round
    spills per call — a sequence of chunk calls therefore charges the
    meter byte-identically to one whole-batch call.  The ring and
    DHUB-PRC routing comes from the batch's cache
    (:meth:`TaskBatch.routing`).
    """
    config = consumer.config
    classes = batch.scan_classes(config.preagg_k)
    state.counts.scan.merge(classes.counts)

    state.xw_cache.access_batch(batch.num_hubs, meter)
    if batch.num_tasks:
        routing = batch.routing(consumer.ring, task_offset)
        consumer.ring.send_batches(
            routing.pes, batch.hub_nodes, batch.hub_offsets, routing.ring
        )
        state.prc.update_banked(routing.prc_banks, meter)

    if state.functional and batch.num_tasks:
        _island_scans(state, batch, config.preagg_k)


def run_interhub_batched(state, interhub, meter) -> None:
    """Inter-hub phase of one layer (runs once, after all island chunks).

    Inter-hub validation runs in both modes (the scalar loop's
    functional-only check was a bug: counts mode silently accounted
    ops for plans referencing non-hub targets).  The functional
    contribution order — inter-hub edges, then hub self-loops, after
    every island task — is exactly the scalar loop's sequence.  The
    plan's bank counts are cached on it, so only the first layer
    counts them.  Every source is a hub, so the fold stacks only the
    distinct source rows under the touched accumulators, not the whole
    scaled XW.
    """
    counts = state.counts
    counts.interhub_ops = interhub.num_ops
    interhub.validate_targets(state.hub_pos)

    edge_banks, self_banks = interhub.target_bank_counts(state.prc.num_banks)
    num_edges = len(interhub.directed_edges)
    if num_edges:
        state.xw_cache.access_repeat(num_edges, meter)
        state.prc.update_banked(edge_banks, meter)
    num_self = len(interhub.self_loop_hubs)
    if num_self:
        state.prc.update_banked(self_banks, meter)

    if state.functional and num_edges + num_self:
        targets = np.concatenate(
            (interhub.directed_edges[:, 0], interhub.self_loop_hubs)
        )
        sources = np.concatenate(
            (interhub.directed_edges[:, 1], interhub.self_loop_hubs)
        )
        # np.unique(sources, return_inverse=True) by a node mask, which
        # needs no sort: the distinct rows ascending, and each source's
        # rank among them.
        used = np.zeros(len(state.hub_pos), dtype=bool)
        used[sources] = True
        rows = np.flatnonzero(used)
        sources = (np.cumsum(used) - 1)[sources]
        _ordered_hub_fold(
            state, state.hub_pos[targets], state.xw_scaled[rows], sources
        )


def _island_scans(state, batch: TaskBatch, k: int) -> None:
    """Every island's add-vs-subtract scan, and the hub fold after it.

    Three sparse products scan: the group pre-sums, the member rows
    (written to ``out``) and the hub rows.  The scan operand stacks the
    scaled XW rows, the group pre-sums and the touched hubs'
    accumulators, so the hub product yields each touched hub's
    accumulator (its seed row), then one row per ``batch.hub_nodes``
    pair, and the fold (:func:`_hub_fold`) multiplies that result as it
    is.
    """
    positions = state.hub_pos[batch.hub_nodes]
    if len(positions) and positions.min() < 0:
        raise SimulationError(
            f"island task references unknown hub "
            f"{int(batch.hub_nodes[int(positions.argmin())])}"
        )
    touched, fold = _hub_fold(positions, len(positions))
    terms = batch.scan_terms(k)
    xw_scaled = state.xw_scaled[:terms.span]
    hub_acc = state.hub_acc
    operands = np.vstack(
        (xw_scaled, terms.groups @ xw_scaled, hub_acc[touched])
    )
    state.out[terms.member_nodes] = terms.members @ operands
    hub_rows = terms.hubs @ operands
    del operands    # the fold reads only the hub rows
    hub_acc[touched] = fold @ hub_rows


def _hub_fold(positions: np.ndarray, num_rows: int,
              sources: np.ndarray | None = None
              ) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The ordered fold of contributions into a layer's hub accumulators.

    Contribution ``i`` reads row ``sources[i]`` (row ``i`` without
    ``sources``) of ``num_rows`` and goes to ``hub_acc`` row
    ``positions[i]``.  Returns ``touched``, the rows that receive any,
    ascending, and the fold matrix, with one row per touched hub: the
    hub's seed (column ``j`` for ``touched[j]``), then its
    contributions in arrival order (column ``len(touched) + i`` for
    contribution ``i``; the stable sort keeps each hub's segment in
    arrival order).
    """
    order = np.argsort(positions, kind="stable")
    counts = np.bincount(positions)
    touched = np.flatnonzero(counts)
    indptr = _cumsum0(counts[touched] + 1)
    heads = indptr[:-1]
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    indices[heads] = np.arange(len(touched), dtype=np.int64)
    tail = np.ones(len(indices), dtype=bool)
    tail[heads] = False
    indices[tail] = len(touched) + (order if sources is None else sources[order])
    fold = sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr),
        shape=(len(touched), len(touched) + num_rows),
    )
    return touched, fold


def _ordered_hub_fold(state, positions: np.ndarray, rows: np.ndarray,
                      sources: np.ndarray | None = None) -> None:
    """Accumulate contributions per hub in exact sequential order.

    Contribution ``i`` adds ``rows[sources[i]]`` (``rows[i]`` without
    ``sources``) to hub row ``positions[i]``.  Additions to *different*
    hubs commute; within one hub the float left-fold order matters.
    One CSR product over ``vstack(hub_acc[touched], rows)`` does every
    touched hub at once (:func:`_hub_fold`), which is the scalar loop's
    ``+=`` sequence.
    """
    if len(positions) == 0:
        return
    touched, fold = _hub_fold(positions, len(rows), sources)
    hub_acc = state.hub_acc
    hub_acc[touched] = fold @ np.vstack((hub_acc[touched], rows))
