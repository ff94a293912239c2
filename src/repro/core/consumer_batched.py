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
  across tasks with per-call rounding parity; functional mode groups
  tasks by bitmap shape and runs the add-vs-subtract scan as stacked
  matmuls.

The contract with the scalar oracle is **exact equality** — identical
:class:`~repro.core.consumer.LayerCounts`,
:class:`~repro.core.preagg.ScanCounts`, DRAM traffic, ring statistics,
DHUB-PRC bank counters, and byte-identical functional outputs.  The
trickiest part is floating-point accumulation order: hub partial sums
receive contributions from many islands, so the fold below replays the
scalar loop's per-hub contribution order exactly (contributions are
ranked by their per-hub occurrence index and applied rank-by-rank,
which is the same left-fold the sequential loop performs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.preagg import ScanCounts, classify_windows, group_layout_batch
from repro.errors import SimulationError
from repro.nputil import cumsum0 as _cumsum0, sorted_unique

__all__ = [
    "TaskBatch",
    "run_island_chunk",
    "run_interhub_batched",
]

#: Bitmap-cell budget per functional shape chunk: caps the dense
#: (stack, L, L) bool stacks and their float64 matmul operands at a few
#: hundred MB regardless of how many same-shape islands a graph has.
_CHUNK_CELLS = 1 << 24

#: Element budget for one hub-fold block: bounds the dense
#: ``(active hubs, ranks + 1, channels)`` cumsum operand to ~16 MB of
#: float64 regardless of how many islands the hottest hub touches.
_FOLD_BLOCK_ELEMS = 1 << 21


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
    groups: np.ndarray           # (T,) windows-per-row of each task
    group_offsets: np.ndarray    # (T+1,)
    group_starts: np.ndarray     # flat per-(task, group) column starts
    group_widths: np.ndarray     # flat per-(task, group) widths
    cell_offsets: np.ndarray     # (T+1,) into the flat cell arrays
    full: np.ndarray             # flat bool per (task, group, row)
    subtract: np.ndarray
    direct: np.ndarray
    sub_tasks: np.ndarray        # (T,) any subtract-class window
    dir_tasks: np.ndarray        # (T,) any direct-class window


@dataclass
class TaskBatch:
    """All island tasks of one islandization, packed for bulk execution.

    ``local_nodes`` concatenates every task's ``[hubs..., members...]``
    local order; ``entry_task/row/col`` is the COO of every task's
    bitmap (deduplicated, sorted task-major then row-major), from which
    both the window scan and — when functional mode needs them — dense
    per-shape bitmap stacks are derived.  ``nnz`` is precomputed once
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
        indptr = graph.indptr.astype(np.int64, copy=False)
        deg = indptr[members_flat + 1] - indptr[members_flat]
        num_edges = int(deg.sum())
        edge_off = _cumsum0(deg)
        flat = (
            np.arange(num_edges, dtype=np.int64)
            - np.repeat(edge_off[:-1], deg)
            + np.repeat(indptr[members_flat], deg)
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
        task = self.entry_task
        hub_group_count = (self.num_hubs + k - 1) // k
        in_hub = self.entry_col < self.num_hubs[task]
        group_of = np.where(
            in_hub,
            self.entry_col // k,
            hub_group_count[task] + (self.entry_col - self.num_hubs[task]) // k,
        )
        cell = (
            cell_offsets[task] + group_of * self.num_locals[task]
            + self.entry_row
        )
        z = np.bincount(cell, minlength=total_cells).astype(np.int64, copy=False)
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
        cell_task = np.repeat(np.arange(num_tasks, dtype=np.int64),
                              cells_per_task)
        sub_tasks = np.bincount(cell_task[subtract], minlength=num_tasks) > 0
        dir_tasks = np.bincount(cell_task[direct], minlength=num_tasks) > 0
        classes = _ScanClasses(
            counts=counts, groups=groups, group_offsets=group_offsets,
            group_starts=group_starts, group_widths=group_widths,
            cell_offsets=cell_offsets, full=full, subtract=subtract,
            direct=direct, sub_tasks=sub_tasks, dir_tasks=dir_tasks,
        )
        self._scan_cache[k] = classes
        return classes


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
    meter byte-identically to one whole-batch call.
    """
    config = consumer.config
    classes = batch.scan_classes(config.preagg_k)
    state.counts.scan.merge(classes.counts)

    state.xw_cache.access_batch(batch.num_hubs, meter)
    if batch.num_tasks:
        pes = (
            task_offset + np.arange(batch.num_tasks, dtype=np.int64)
        ) % config.num_pes
        consumer.ring.send_batches(pes, batch.hub_nodes, batch.hub_offsets)
        state.prc.update_many(batch.hub_nodes, meter)

    if state.functional:
        total_pairs = len(batch.hub_nodes)
        if total_pairs:
            pair_pos = state.hub_pos[batch.hub_nodes]
            if pair_pos.min() < 0:
                raise SimulationError(
                    f"island task references unknown hub "
                    f"{int(batch.hub_nodes[int(pair_pos.argmin())])}"
                )
        else:
            pair_pos = _empty()
        contrib = np.empty(
            (total_pairs, state.xw_scaled.shape[1]), dtype=np.float64
        )
        _island_scans(state, batch, classes, contrib)
        _ordered_hub_fold(state, pair_pos, contrib)


def run_interhub_batched(state, interhub, meter) -> None:
    """Inter-hub phase of one layer (runs once, after all island chunks).

    Inter-hub validation runs in both modes (the scalar loop's
    functional-only check was a bug: counts mode silently accounted
    ops for plans referencing non-hub targets).  The functional
    contribution order — inter-hub edges, then hub self-loops, after
    every island task — is exactly the scalar loop's sequence.
    """
    counts = state.counts
    counts.interhub_ops = interhub.num_ops
    interhub.validate_targets(state.hub_pos)

    num_edges = len(interhub.directed_edges)
    if num_edges:
        state.xw_cache.access_repeat(num_edges, meter)
        state.prc.update_many(interhub.directed_edges[:, 0], meter)
    num_self = len(interhub.self_loop_hubs)
    if num_self:
        state.prc.update_many(interhub.self_loop_hubs, meter)

    if state.functional and num_edges + num_self:
        xw_scaled = state.xw_scaled
        contrib = np.empty(
            (num_edges + num_self, xw_scaled.shape[1]), dtype=np.float64
        )
        positions = np.empty(num_edges + num_self, dtype=np.int64)
        if num_edges:
            positions[:num_edges] = state.hub_pos[interhub.directed_edges[:, 0]]
            contrib[:num_edges] = xw_scaled[interhub.directed_edges[:, 1]]
        if num_self:
            positions[num_edges:] = state.hub_pos[interhub.self_loop_hubs]
            contrib[num_edges:] = xw_scaled[interhub.self_loop_hubs]
        _ordered_hub_fold(state, positions, contrib)


def _island_scans(state, batch: TaskBatch, classes: _ScanClasses,
                  contrib: np.ndarray) -> None:
    """Stacked add-vs-subtract scans, grouped by bitmap shape.

    Tasks sharing (locals, hubs) have identical group layouts, so each
    shape runs as three stacked matmuls — the same three products the
    scalar ``scan_aggregate`` performs per island, whose per-slice
    results NumPy's stacked ``matmul`` reproduces bitwise.  Member rows
    scatter straight into ``out``; hub rows land in ``contrib`` at
    their task's slot for the ordered fold.
    """
    num_tasks = batch.num_tasks
    if num_tasks == 0:
        return
    xw_scaled = state.xw_scaled
    out = state.out
    shape_key = (
        batch.num_locals * (int(batch.num_hubs.max()) + 1) + batch.num_hubs
    )
    # Group same-shape tasks in one sort instead of rescanning the key
    # array per distinct shape; the stable sort keeps each group's task
    # ids ascending, and group order is irrelevant (chunks only scatter
    # to disjoint rows).
    order = np.argsort(shape_key, kind="stable")
    bounds = np.concatenate((
        [0],
        np.flatnonzero(np.diff(shape_key[order])) + 1,
        [num_tasks],
    ))
    for lo_group, hi_group in zip(bounds[:-1], bounds[1:]):
        shape_tids = order[lo_group:hi_group]
        first = int(shape_tids[0])
        locals_n = int(batch.num_locals[first])
        hubs_n = int(batch.num_hubs[first])
        group_n = int(classes.groups[first])
        # Bound the dense temporaries (bitmap stacks and the float64
        # matmul operands scale with stack_n × L²): chunks are
        # per-task-independent, so splitting changes nothing bitwise
        # while the scalar oracle's peak stays the reference point.
        chunk = max(1, _CHUNK_CELLS // (locals_n * locals_n))
        for lo in range(0, len(shape_tids), chunk):
            _scan_shape_chunk(
                batch, classes, xw_scaled, out, contrib,
                shape_tids[lo:lo + chunk], locals_n, hubs_n, group_n,
            )


def _scan_shape_chunk(batch, classes, xw_scaled, out, contrib,
                      tids, locals_n, hubs_n, group_n):
    """Stacked scan of one bounded chunk of same-shape tasks."""
    first = int(tids[0])
    stack_n = len(tids)
    g0 = int(classes.group_offsets[first])
    starts_shape = classes.group_starts[g0:g0 + group_n]
    widths_shape = classes.group_widths[g0:g0 + group_n]

    locs = batch.local_nodes[
        batch.local_offsets[tids][:, None]
        + np.arange(locals_n, dtype=np.int64)
    ]
    xw_stack = xw_scaled[locs]                      # (S, L, C)
    big_starts = (
        (np.arange(stack_n, dtype=np.int64) * locals_n)[:, None]
        + starts_shape
    ).ravel()
    group_sums = np.add.reduceat(
        xw_stack.reshape(stack_n * locals_n, -1), big_starts, axis=0
    ).reshape(stack_n, group_n, -1)

    cell_idx = (
        classes.cell_offsets[tids][:, None]
        + np.arange(group_n * locals_n, dtype=np.int64)
    )
    full_gl = classes.full[cell_idx].reshape(stack_n, group_n, locals_n)
    sub_gl = classes.subtract[cell_idx].reshape(stack_n, group_n, locals_n)
    acc = np.zeros((stack_n, locals_n, xw_stack.shape[2]))
    acc += np.matmul(
        (full_gl | sub_gl).transpose(0, 2, 1).astype(np.float64),
        group_sums,
    )

    need_sub = np.flatnonzero(classes.sub_tasks[tids])
    need_dir = np.flatnonzero(classes.dir_tasks[tids])
    if len(need_sub) or len(need_dir):
        bitmap = np.zeros((stack_n, locals_n, locals_n), dtype=bool)
        per_task = batch.nnz[tids]
        entries = int(per_task.sum())
        if entries:
            inner = _cumsum0(per_task)
            flat_entries = (
                np.repeat(batch.entry_offsets[tids], per_task)
                + np.arange(entries, dtype=np.int64)
                - np.repeat(inner[:-1], per_task)
            )
            slot = np.repeat(
                np.arange(stack_n, dtype=np.int64), per_task
            )
            bitmap[
                slot,
                batch.entry_row[flat_entries],
                batch.entry_col[flat_entries],
            ] = True
        col_group = np.repeat(
            np.arange(group_n, dtype=np.int64), widths_shape
        )
        # Per-task guards mirror the scalar `if sub_cols.any()`:
        # a subtract window always has a missing column and a
        # direct window a present one, so window-class presence is
        # exactly column-mask non-emptiness.
        if len(need_sub):
            sub_cols = (
                sub_gl[need_sub].transpose(0, 2, 1)[:, :, col_group]
                & ~bitmap[need_sub]
            )
            acc[need_sub] -= np.matmul(
                sub_cols.astype(np.float64), xw_stack[need_sub]
            )
        if len(need_dir):
            dir_gl = classes.direct[cell_idx].reshape(
                stack_n, group_n, locals_n
            )
            dir_cols = (
                dir_gl[need_dir].transpose(0, 2, 1)[:, :, col_group]
                & bitmap[need_dir]
            )
            acc[need_dir] += np.matmul(
                dir_cols.astype(np.float64), xw_stack[need_dir]
            )

    out[locs[:, hubs_n:].ravel()] = acc[:, hubs_n:, :].reshape(
        -1, acc.shape[2]
    )
    if hubs_n:
        pair_idx = (
            batch.hub_offsets[tids][:, None]
            + np.arange(hubs_n, dtype=np.int64)
        )
        contrib[pair_idx.ravel()] = acc[:, :hubs_n, :].reshape(
            -1, acc.shape[2]
        )


def _ordered_hub_fold(state, positions: np.ndarray,
                      contrib: np.ndarray) -> None:
    """Accumulate contributions per hub in exact sequential order.

    Additions to *different* hubs commute; within one hub the float
    left-fold order matters.  Contributions are segmented per hub (the
    stable sort keeps each segment in arrival order) and folded a block
    of ranks at a time: the running accumulator seeds row 0 of a dense
    per-hub block and ``cumsum`` — a strict sequential ``accumulate``,
    unlike pairwise ``reduce`` — replays the scalar loop's addition
    sequence bit for bit.  Python-level iterations scale with
    ``max ranks / block width`` instead of ``max ranks``, so a single
    hot hub touching thousands of islands no longer degenerates into
    thousands of one-row scatters.
    """
    total = len(positions)
    if total == 0:
        return
    order = np.argsort(positions, kind="stable")
    counts_all = np.bincount(positions, minlength=len(state.hub_ids))
    hubs = np.flatnonzero(counts_all)
    seg_starts = _cumsum0(counts_all)[hubs]
    remaining = counts_all[hubs]
    done = np.zeros(len(hubs), dtype=np.int64)
    active = np.arange(len(hubs), dtype=np.int64)
    hub_acc = state.hub_acc
    channels = contrib.shape[1]
    while len(active):
        n_act = len(active)
        width = int(min(
            int(remaining[active].max()),
            max(1, _FOLD_BLOCK_ELEMS // (n_act * max(1, channels)) - 1),
        ))
        take = np.minimum(remaining[active], width)
        taken = int(take.sum())
        flat_rows = np.repeat(np.arange(n_act, dtype=np.int64), take)
        inner = (
            np.arange(taken, dtype=np.int64)
            - np.repeat(_cumsum0(take)[:-1], take)
        )
        src = order[
            np.repeat(seg_starts[active] + done[active], take) + inner
        ]
        if width == 1:
            # One rank per hub: a plain scatter-add is the fold.
            hub_acc[hubs[active]] += contrib[src]
        else:
            # Seed row 0 with the running accumulator and cumsum along
            # the rank axis: ``accumulate`` is a strict left fold, so
            # row ``take`` holds exactly the scalar addition sequence.
            # Zero padding sits past each hub's last rank, never read.
            block = np.zeros((n_act, width + 1, channels), dtype=np.float64)
            block[:, 0, :] = hub_acc[hubs[active]]
            block[flat_rows, inner + 1, :] = contrib[src]
            np.cumsum(block, axis=1, out=block)
            hub_acc[hubs[active]] = block[
                np.arange(n_act, dtype=np.int64), take, :
            ]
        done[active] += take
        remaining[active] -= take
        active = active[remaining[active] > 0]
