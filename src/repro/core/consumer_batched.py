"""Batched Island Consumer backend: vectorized task assembly + execution
(§3.3, Figures 6-7; chunked for the §3.1.1/Fig. 3 streamed pipeline).

The scalar consumer (``repro.core.consumer``) builds one dense bitmap
per island in a per-member Python loop and then walks islands one at a
time per layer.  After the PR-3 locator speedup that loop dominates
every simulated layer.  This module applies the same playbook to the
consumer:

* :class:`TaskBatch` — a packed multi-island task representation:
  concatenated local-node / hub arrays with offsets plus one COO list
  of bitmap entries, assembled in a *single* vectorized pass over the
  global CSR (one adjacency gather for every member row at once, one
  sorted-key join for the member→hub columns) instead of per-member
  ``searchsorted`` calls.
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
  islands.  :func:`_ordered_hub_fold` is one CSR product whose row per
  touched hub holds the running accumulator, then the hub's
  contributions in arrival order — the scalar loop's ``+=`` sequence.
  Seeding with the accumulator costs nothing: ``+0.0 + acc == acc``
  bitwise, since a fold seeded at ``+0.0`` never yields ``-0.0``.

The scipy matrices are built directly from ``(data, indices,
indptr)``: ``tocsr``, ``sum_duplicates`` and ``sort_indices`` would
reorder the entries, and with them the folds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    Columns ``[0, span)`` are global node ids and ``span + j`` is the
    batch's flat group ``j``; ``groups @ xw[:span]`` yields the group
    pre-sums.  ``members`` has one row per member row of every task
    (task-major, writing ``member_nodes``), ``hubs`` one per attached
    hub (in ``hub_nodes`` order).  Each row's entries are stored in the
    accumulation order, never canonicalised.
    """

    span: int
    groups: sparse.csr_matrix    # (G, span) group pre-sum folds
    members: sparse.csr_matrix   # (M, span + G)
    hubs: sparse.csr_matrix      # (H, span + G)
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
    local order; ``entry_task/row/col`` is the COO of every task's
    bitmap (deduplicated, sorted task-major then row-major), from which
    both the window scan and — when functional mode needs them — the
    signed term matrices are derived.  ``nnz`` is precomputed once
    per task (the scalar :class:`~repro.core.bitmap.IslandTask`
    recomputed it per access until it grew a cache).
    """

    num_hubs: np.ndarray         # (T,)
    num_locals: np.ndarray       # (T,)
    local_nodes: np.ndarray      # flat global ids, [hubs..., members...]
    local_offsets: np.ndarray    # (T+1,)
    hub_nodes: np.ndarray        # flat attached-hub ids per task
    hub_offsets: np.ndarray      # (T+1,)
    entry_task: np.ndarray       # COO bitmap entries (local coordinates)
    entry_row: np.ndarray
    entry_col: np.ndarray
    entry_offsets: np.ndarray    # (T+1,) per-task COO slices
    nnz: np.ndarray              # (T,) directed entries per task
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

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_islands(
        cls, graph, islands, *, add_self_loops: bool, scratch: dict | None = None
    ) -> "TaskBatch":
        """Pack an explicit island sequence against ``graph``'s CSR.

        ``islands`` may be any subset of an islandization — in the
        streamed pipeline it is one round's chunk from a
        :class:`~repro.core.types.RoundOutput`, assembled while the
        locator is still producing later rounds.  Task packing is
        island-local, so a per-round slice holds exactly the entries
        those tasks have in the monolithic full-result batch.

        ``scratch`` (optional) is a dict the caller keeps across calls
        to reuse the two O(num_nodes) member-lookup maps instead of
        allocating them per call — the streamed pipeline passes one
        per inference, so per-round assembly costs O(chunk) rather
        than O(num_nodes) per round.  The maps are restored to their
        clean state (written positions reset) before returning, which
        keeps reuse exact for any island subset.
        """
        islands = list(islands)
        num_tasks = len(islands)
        n = graph.num_nodes
        num_hubs = np.fromiter(
            (i.num_hubs for i in islands), dtype=np.int64, count=num_tasks
        )
        num_members = np.fromiter(
            (i.num_members for i in islands), dtype=np.int64, count=num_tasks
        )
        num_locals = num_hubs + num_members
        local_offsets = _cumsum0(num_locals)
        hub_offsets = _cumsum0(num_hubs)
        member_offsets = _cumsum0(num_members)
        total_hubs = int(hub_offsets[-1])
        total_members = int(member_offsets[-1])
        if num_tasks:
            hubs_flat = np.concatenate(
                [i.hubs for i in islands]
            ).astype(np.int64, copy=False)
            members_flat = np.concatenate(
                [i.members for i in islands]
            ).astype(np.int64, copy=False)
        else:
            hubs_flat, members_flat = _empty(), _empty()

        # Interleave into the per-task [hubs..., members...] local order.
        local_nodes = np.empty(int(local_offsets[-1]), dtype=np.int64)
        hub_rank = (
            np.arange(total_hubs, dtype=np.int64)
            - np.repeat(hub_offsets[:-1], num_hubs)
        )
        local_nodes[np.repeat(local_offsets[:-1], num_hubs) + hub_rank] = (
            hubs_flat
        )
        mem_rank = (
            np.arange(total_members, dtype=np.int64)
            - np.repeat(member_offsets[:-1], num_members)
        )
        local_nodes[
            np.repeat(local_offsets[:-1] + num_hubs, num_members) + mem_rank
        ] = members_flat

        # Members belong to exactly one island: global row maps
        # (allocated fresh, or reused from the caller's scratch dict —
        # kept clean between calls by the reset below).
        if scratch is not None and len(scratch.get("member_task", ())) == n:
            member_task = scratch["member_task"]
            member_local = scratch["member_local"]
        else:
            member_task = np.full(n, -1, dtype=np.int64)
            member_local = np.full(n, -1, dtype=np.int64)
            if scratch is not None:
                scratch["member_task"] = member_task
                scratch["member_local"] = member_local
        member_task[members_flat] = np.repeat(
            np.arange(num_tasks, dtype=np.int64), num_members
        )
        member_local[members_flat] = np.repeat(num_hubs, num_members) + mem_rank

        # Hubs attach to many islands: a sorted (task, hub) → local
        # column table answers every member→hub edge in one join.
        span = max(n, 1)
        pair_keys = (
            np.repeat(np.arange(num_tasks, dtype=np.int64), num_hubs) * span
            + hubs_flat
        )
        key_order = np.argsort(pair_keys)
        sorted_keys = pair_keys[key_order]
        sorted_local = hub_rank[key_order]

        # One adjacency gather over every member row of every task.
        flat, deg = csr_gather(
            graph.indptr.astype(np.int64, copy=False), members_flat
        )
        neigh = graph.indices[flat].astype(np.int64, copy=False)
        src_task = np.repeat(member_task[members_flat], deg)
        src_row = np.repeat(member_local[members_flat], deg)

        same = member_task[neigh] == src_task
        parts_task = [src_task[same]]
        parts_row = [src_row[same]]
        parts_col = [member_local[neigh[same]]]
        rest = ~same
        if rest.any() and len(sorted_keys):
            query = src_task[rest] * span + neigh[rest]
            pos = np.searchsorted(sorted_keys, query)
            pos = np.minimum(pos, len(sorted_keys) - 1)
            # Neighbours that are neither members of this island nor
            # attached hubs are dropped, as the scalar builder drops
            # them (a valid islandization produces none).
            hit = sorted_keys[pos] == query
            hub_task = src_task[rest][hit]
            hub_row = src_row[rest][hit]
            hub_col = sorted_local[pos[hit]]
            parts_task += [hub_task, hub_task]
            parts_row += [hub_row, hub_col]     # mirrored L-shape rows
            parts_col += [hub_col, hub_row]
        if add_self_loops and total_members:
            diag_task = member_task[members_flat]
            diag_row = member_local[members_flat]
            parts_task.append(diag_task)
            parts_row.append(diag_row)
            parts_col.append(diag_row)
        entry_task = np.concatenate(parts_task)
        entry_row = np.concatenate(parts_row)
        entry_col = np.concatenate(parts_col)
        if scratch is not None:
            # Restore the clean all(-1) state so the next call starts
            # from scratch regardless of which islands this one held.
            member_task[members_flat] = -1
            member_local[members_flat] = -1
        return cls._from_entries(
            num_hubs, num_locals, local_nodes, local_offsets,
            hubs_flat, hub_offsets, entry_task, entry_row, entry_col,
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
        local_offsets = _cumsum0(num_locals)
        hub_offsets = _cumsum0(num_hubs)
        if num_tasks:
            local_nodes = np.concatenate(
                [t.local_nodes for t in tasks]
            ).astype(np.int64, copy=False)
            hub_nodes = np.concatenate(
                [t.hub_nodes for t in tasks]
            ).astype(np.int64, copy=False)
        else:
            local_nodes, hub_nodes = _empty(), _empty()
        parts_task, parts_row, parts_col = [_empty()], [_empty()], [_empty()]
        for i, task in enumerate(tasks):
            rows, cols = np.nonzero(task.bitmap)
            parts_task.append(np.full(len(rows), i, dtype=np.int64))
            parts_row.append(rows.astype(np.int64, copy=False))
            parts_col.append(cols.astype(np.int64, copy=False))
        return cls._from_entries(
            num_hubs, num_locals, local_nodes, local_offsets,
            hub_nodes, hub_offsets,
            np.concatenate(parts_task), np.concatenate(parts_row),
            np.concatenate(parts_col),
        )

    @classmethod
    def _from_entries(
        cls, num_hubs, num_locals, local_nodes, local_offsets,
        hub_nodes, hub_offsets, entry_task, entry_row, entry_col,
    ) -> "TaskBatch":
        """Canonicalise COO entries (dedup + task/row-major sort)."""
        cell_base = _cumsum0(num_locals * num_locals)
        cell = (
            cell_base[entry_task]
            + entry_row * num_locals[entry_task]
            + entry_col
        )
        cell = sorted_unique(cell)
        entry_task = np.searchsorted(cell_base, cell, side="right") - 1
        remainder = cell - cell_base[entry_task]
        entry_row = remainder // num_locals[entry_task]
        entry_col = remainder % num_locals[entry_task]
        nnz = np.bincount(entry_task, minlength=len(num_locals)).astype(
            np.int64, copy=False
        )
        return cls(
            num_hubs=num_hubs, num_locals=num_locals,
            local_nodes=local_nodes, local_offsets=local_offsets,
            hub_nodes=hub_nodes, hub_offsets=hub_offsets,
            entry_task=entry_task, entry_row=entry_row, entry_col=entry_col,
            entry_offsets=_cumsum0(nnz), nnz=nnz,
        )

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

        # Per-window non-zero counts from the COO entries: each entry
        # lands in its column's group; empty windows stay zero.
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
        """The (task, group, row) window cell of every COO entry."""
        task = self.entry_task
        hub_group_count = (self.num_hubs + k - 1) // k
        in_hub = self.entry_col < self.num_hubs[task]
        group_of = np.where(
            in_hub,
            self.entry_col // k,
            hub_group_count[task] + (self.entry_col - self.num_hubs[task]) // k,
        )
        return (
            cell_offsets[task] + group_of * self.num_locals[task]
            + self.entry_row
        )

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
        """
        cached = self._term_cache.get(k)
        if cached is not None:
            return cached
        if self.num_tasks == 0:
            raise SimulationError("a batch without tasks has no scan terms")
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
        entry_row = self.local_offsets[self.entry_task] + self.entry_row
        key_span = int(locals_n.max())
        entry_key = entry_row * key_span + self.entry_col
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
            self.local_offsets[self.entry_task[is_dir]] + self.entry_col[is_dir]
        ]

        # Rows: every member row (task-major), then every hub row (the
        # hub_nodes pair order).
        row_task = np.repeat(
            np.arange(self.num_tasks, dtype=np.int64), locals_n
        )
        rank = np.arange(total_rows, dtype=np.int64) - self.local_offsets[row_task]
        is_hub = rank < self.num_hubs[row_task]
        member_rows = np.flatnonzero(~is_hub)
        row_order = np.concatenate((member_rows, np.flatnonzero(is_hub)))
        lists = (
            (pre_row, span + pre_group, 1.0),
            (sub_row, sub_col, -1.0),
            (dir_row, dir_col, 1.0),
        )
        per_list = [np.bincount(rows, minlength=total_rows)
                    for rows, _, _ in lists]
        indptr = _cumsum0(sum(per_list)[row_order])
        row_start = np.empty(total_rows, dtype=np.int64)
        row_start[row_order] = indptr[:-1]
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        data = np.empty(int(indptr[-1]), dtype=np.float64)
        for (rows, cols, sign), counts in zip(lists, per_list):
            slots = (
                row_start[rows]
                + np.arange(len(rows), dtype=np.int64)
                - _cumsum0(counts)[rows]
            )
            indices[slots] = cols
            data[slots] = sign
            row_start += counts

        split = int(indptr[len(member_rows)])
        width = span + total_groups
        terms = _ScanTerms(
            span=span,
            groups=sparse.csr_matrix(
                (np.ones(total_rows), self.local_nodes,
                 _cumsum0(classes.group_widths)),
                shape=(total_groups, span),
            ),
            members=sparse.csr_matrix(
                (data[:split], indices[:split],
                 indptr[:len(member_rows) + 1]),
                shape=(len(member_rows), width),
            ),
            hubs=sparse.csr_matrix(
                (data[split:], indices[split:],
                 indptr[len(member_rows):] - split),
                shape=(total_rows - len(member_rows), width),
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
        pair_pos = state.hub_pos[batch.hub_nodes]
        if len(pair_pos) and pair_pos.min() < 0:
            raise SimulationError(
                f"island task references unknown hub "
                f"{int(batch.hub_nodes[int(pair_pos.argmin())])}"
            )
        contrib = _island_scans(state, batch, config.preagg_k)
        _ordered_hub_fold(state, pair_pos, contrib)


def run_interhub_batched(state, interhub, meter) -> None:
    """Inter-hub phase of one layer (runs once, after all island chunks).

    Inter-hub validation runs in both modes (the scalar loop's
    functional-only check was a bug: counts mode silently accounted
    ops for plans referencing non-hub targets).  The functional
    contribution order — inter-hub edges, then hub self-loops, after
    every island task — is exactly the scalar loop's sequence.  The
    plan's bank counts are cached on it, so only the first layer
    counts them.
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
        _ordered_hub_fold(
            state, state.hub_pos[targets], state.xw_scaled, sources
        )


def _island_scans(state, batch: TaskBatch, k: int) -> np.ndarray:
    """Every island's add-vs-subtract scan as three sparse products.

    Member rows land in ``out``; the hub rows are returned, one per
    ``batch.hub_nodes`` pair, for the ordered fold.
    """
    terms = batch.scan_terms(k)
    xw_scaled = state.xw_scaled[:terms.span]
    operands = np.vstack((xw_scaled, terms.groups @ xw_scaled))
    state.out[terms.member_nodes] = terms.members @ operands
    return terms.hubs @ operands


def _ordered_hub_fold(state, positions: np.ndarray, rows: np.ndarray,
                      sources: np.ndarray | None = None) -> None:
    """Accumulate contributions per hub in exact sequential order.

    Contribution ``i`` adds ``rows[sources[i]]`` (``rows[i]`` without
    ``sources``) to hub row ``positions[i]``.  Additions to *different*
    hubs commute; within one hub the float left-fold order matters.
    One CSR product over ``vstack(hub_acc[touched], rows)`` does every
    touched hub at once: its row holds the running accumulator, then
    the hub's contributions in arrival order (the stable sort keeps
    each hub's segment in arrival order), which is the scalar loop's
    ``+=`` sequence.
    """
    total = len(positions)
    if total == 0:
        return
    order = np.argsort(positions, kind="stable")
    counts = np.bincount(positions, minlength=len(state.hub_ids))
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
        shape=(len(touched), len(touched) + len(rows)),
    )
    hub_acc = state.hub_acc
    hub_acc[touched] = fold @ np.vstack((hub_acc[touched], rows))
