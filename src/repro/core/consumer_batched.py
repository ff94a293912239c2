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
  island tasks of a batch in bulk.  A window's class depends only on
  its non-zero count and width, so no per-window class is ever stored:
  one ``bincount`` over the COO entries gives every (task, group, row)
  window's count, a second tallies the entries per (count, width)
  pair, and :func:`repro.core.preagg.classify_windows` runs once on
  that small grid.  The resulting counts are cached on the batch so
  later layers skip the scan entirely.  Ring
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


def _window_grid(stride: int, size: int) -> tuple[np.ndarray, tuple]:
    """:func:`classify_windows` over the codes ``z * stride + width``.

    Returns each code's ``z`` below ``size`` and the classes of all of
    them.  A window's class depends only on its non-zero count and
    width, so a batch classifies this small grid once, never a
    per-window array.
    """
    z, width = np.divmod(np.arange(size, dtype=np.int64), stride)
    return z, classify_windows(z, width)


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
    _scan_cache: dict[int, ScanCounts] = field(
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
    def _column_layout(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each task's group count, the flat group widths, and the flat
        group of every local slot ``local_offsets[t] + col``.

        A task's groups tile its columns in order, so the flat groups
        tile the flat slots and group ``j`` starts at slot
        ``cumsum0(widths)[j]``.
        """
        groups, _, _, widths = group_layout_batch(
            self.num_hubs, self.num_locals, k
        )
        slot_group = np.repeat(np.arange(len(widths), dtype=np.int64), widths)
        return groups, widths, slot_group

    def scan_classes(self, k: int) -> ScanCounts:
        """The merged :class:`ScanCounts` of every task's 1×k scan.

        The bitmap and ``k`` fully determine the scan, so every layer
        reuses one result, cached per ``k``; the scalar oracle
        recomputes it per layer and must produce the same counts.

        Window cells run task, group, row, so an entry's cell is its
        column slot's first cell plus its row, and one ``bincount``
        over the entries, in whatever order they are held, gives each
        window's non-zero count ``z``.  A second tallies the entries
        per ``z * stride + width``; a window holds ``z`` entries, so
        dividing by ``z`` gives windows per ``(z, width)``, the grid
        that is classified.  ``stride`` is the widest group plus one:
        the grid is bounded by the batch, never by ``k``.
        """
        cached = self._scan_cache.get(k)
        if cached is not None:
            return cached
        groups, widths, slot_group = self._column_layout(k)
        group_cells = _cumsum0(np.repeat(self.num_locals, groups))
        total_cells = int(group_cells[-1])
        slot_base = group_cells[slot_group]
        slot_width = widths[slot_group]
        del slot_group

        # At most three entry-sized arrays are alive at once.
        task, row, col = self._entries
        slot = self.local_offsets[task]
        slot += col
        code = slot_width[slot]
        cell = slot_base[slot]
        del slot, slot_base, slot_width
        cell += row
        z = np.bincount(cell, minlength=total_cells)
        cell = z[cell]      # each entry's window count
        del z
        stride = int(widths.max(initial=0)) + 1
        cell *= stride
        code += cell
        del cell
        tally = np.bincount(code)
        del code

        z, (full, subtract, direct, cost) = _window_grid(stride, len(tally))
        windows = tally // np.maximum(z, 1)
        counts = ScanCounts(
            baseline_ops=len(task),
            scan_ops=int((windows * cost).sum()),
            preagg_build_ops=int(np.maximum(widths - 1, 0).sum()),
            windows_full=int(windows[full].sum()),
            windows_subtract=int(windows[subtract].sum()),
            windows_direct=int(windows[direct].sum()),
            windows_skipped=total_cells - int(windows.sum()),
        )
        self._scan_cache[k] = counts
        return counts

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

        Built once on the first functional layer, in the accumulation
        order of the module docstring.  A local row is
        ``local_offsets[t] + r``.  In the sorted entries a window is a
        run of equal (local row, group): the run's length is its ``z``,
        and its class comes from the ``(z, width)`` grid.  Each of the
        three term lists below is sorted by local row, and within a row
        in its fold order, so a term's slot is its row's start, plus the
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
        _, widths, slot_group = self._column_layout(k)
        group_slots = _cumsum0(widths)
        total_rows = int(self.local_offsets[-1])
        span = int(self.local_nodes.max()) + 1
        total_groups = len(widths)

        # The windows: runs of equal (local row, group).
        entry_row = self.local_offsets[entry_task] + entry_row
        slot = self.local_offsets[entry_task] + entry_col
        group = slot_group[slot]
        new = np.ones(len(slot), dtype=bool)
        np.not_equal(entry_row[1:], entry_row[:-1], out=new[1:])
        new[1:] |= group[1:] != group[:-1]
        starts = np.flatnonzero(new)
        run_z = np.diff(starts, append=len(slot))
        run_row = entry_row[starts]
        run_group = group[starts]
        del group, starts
        run_width = widths[run_group]
        stride = int(widths.max()) + 1
        code = run_z * stride + run_width
        _, (full, subtract, direct, _) = _window_grid(
            stride, int(code.max(initial=0)) + 1
        )

        # 1. Pre-sums of full and subtract runs, already in row, then
        # group order.
        reused = (full | subtract)[code]
        pre_row = run_row[reused]
        pre_group = run_group[reused]

        # 2. Missing columns of subtract runs: each run's candidate
        # columns, less its present entries, scattered out of a mask.
        # A candidate's position is its slot minus its run's ``shift``.
        is_sub = subtract[code]
        sub_width = run_width[is_sub]
        cand_offsets = _cumsum0(sub_width)
        shift = group_slots[run_group[is_sub]] - cand_offsets[:-1]
        keep = np.ones(int(cand_offsets[-1]), dtype=bool)
        present = np.repeat(is_sub, run_z)
        keep[slot[present] - np.repeat(shift, run_z[is_sub])] = False
        cand_slot = np.arange(len(keep), dtype=np.int64)
        cand_slot += np.repeat(shift, sub_width)
        sub_row = np.repeat(run_row[is_sub], sub_width)[keep]
        sub_col = self.local_nodes[cand_slot[keep]]

        # 3. Present columns of direct runs: their entries, already
        # sorted by row, then column.
        is_dir = np.repeat(direct[code], run_z)
        dir_row = entry_row[is_dir]
        dir_col = self.local_nodes[slot[is_dir]]
        del slot, is_dir, entry_row

        # Rows: every member row (task-major), one seed row per touched
        # hub, then every hub row (the hub_nodes pair order).
        row_task = np.repeat(
            np.arange(self.num_tasks, dtype=np.int64), self.num_locals
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
                (np.ones(total_rows), self.local_nodes, group_slots),
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
    state.counts.scan.merge(batch.scan_classes(config.preagg_k))

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
