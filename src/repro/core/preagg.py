"""Pre-aggregation and the 1×k window scan (§3.3.1, Figure 7).

During combination the PE pre-sums the combination results of every
``k`` consecutive local columns (one *group*).  Aggregation then slides
a 1×k window along each bitmap row; for a window with ``z`` non-zeros
out of width ``w`` the PE picks the cheapest of:

* **direct**   — add the ``z`` connected vectors: ``z`` ops;
* **reuse**    — add the group's pre-sum and subtract the ``w - z``
  missing vectors: ``1 + (w - z)`` ops (a full window costs one op).

Every op is a vector add/sub of the feature width, so op counts
translate to MACs by multiplying with ``out_dim``.  The *baseline* (no
islandization) cost of the same row is ``z`` per window — the per-edge
accumulation every other dataflow performs — which is what Figure 10's
pruning rate is measured against.

Segmentation: the island task stores the hub vectors and the island
matrix as separate structures (Figure 3(A)), so pre-aggregation groups
do not straddle the hub/member boundary; ``boundary`` restarts the
group tiling at that column.  This keeps the dense member blocks
aligned with the windows, which is where the reuse lives.

Functional accumulation order (shared with the batched consumer in
``repro.core.consumer_batched``, which must match it bit for bit):
each group pre-sum is a left fold from ``+0.0`` over its columns in
column order.  Row ``r`` is one left fold from ``+0.0`` that

1. adds the pre-sums of its full and subtract windows, in group order;
2. subtracts the missing columns of its subtract windows, in column
   order;
3. adds the present columns of its direct windows, in column order.

The order depends only on the row's own windows, never on the island's
shape, so islands of every shape can run as one sparse product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nputil import cumsum0

__all__ = [
    "ScanCounts",
    "scan_costs",
    "scan_aggregate",
    "group_layout",
    "group_layout_batch",
    "classify_windows",
]


@dataclass
class ScanCounts:
    """Vector-op accounting for one or more island scans."""

    baseline_ops: int = 0        # per-edge adds without reuse (= bitmap nnz)
    scan_ops: int = 0            # adds/subs actually performed
    preagg_build_ops: int = 0    # group pre-sum construction
    windows_full: int = 0        # served by one group add
    windows_subtract: int = 0    # group add + few subtractions
    windows_direct: int = 0      # cheaper to add directly
    windows_skipped: int = 0     # all-zero windows (pipeline-bubble skip)

    @property
    def total_ops(self) -> int:
        """All vector ops including pre-sum construction."""
        return self.scan_ops + self.preagg_build_ops

    @property
    def pruned_ops(self) -> int:
        """Vector ops avoided relative to the per-edge baseline."""
        return self.baseline_ops - self.total_ops

    @property
    def pruning_rate(self) -> float:
        """Fraction of baseline aggregation ops eliminated (Fig 10)."""
        if self.baseline_ops == 0:
            return 0.0
        return self.pruned_ops / self.baseline_ops

    def merge(self, other: "ScanCounts") -> None:
        """Accumulate another scan's counts."""
        self.baseline_ops += other.baseline_ops
        self.scan_ops += other.scan_ops
        self.preagg_build_ops += other.preagg_build_ops
        self.windows_full += other.windows_full
        self.windows_subtract += other.windows_subtract
        self.windows_direct += other.windows_direct
        self.windows_skipped += other.windows_skipped


def group_layout(
    num_cols: int, k: int, *, boundary: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Group (start, width) tiling of the columns.

    Groups tile ``[0, boundary)`` and ``[boundary, num_cols)``
    independently so no window straddles the hub/member split.
    """
    starts: list[int] = []
    widths: list[int] = []
    for lo, hi in ((0, boundary), (boundary, num_cols)):
        pos = lo
        while pos < hi:
            width = min(k, hi - pos)
            starts.append(pos)
            widths.append(width)
            pos += width
    return (
        np.asarray(starts, dtype=np.int64),
        np.asarray(widths, dtype=np.int64),
    )


def group_layout_batch(
    boundaries: np.ndarray, num_cols: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`group_layout` over many bitmaps at once.

    Returns ``(groups_per_task, group_offsets, starts_flat,
    widths_flat)``: task ``t``'s groups occupy
    ``starts_flat[group_offsets[t]:group_offsets[t + 1]]`` and hold
    exactly the values ``group_layout(num_cols[t], k,
    boundary=boundaries[t])`` would produce.
    """
    bound = np.asarray(boundaries, dtype=np.int64)
    cols = np.asarray(num_cols, dtype=np.int64)
    hub_groups = (bound + k - 1) // k
    groups = hub_groups + (cols - bound + k - 1) // k
    offsets = cumsum0(groups)
    total = int(offsets[-1])
    gtask = np.repeat(np.arange(len(bound), dtype=np.int64), groups)
    grank = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], groups)
    in_hub = grank < hub_groups[gtask]
    starts = np.where(
        in_hub, grank * k, bound[gtask] + (grank - hub_groups[gtask]) * k
    )
    ends = np.where(in_hub, bound[gtask], cols[gtask])
    widths = np.minimum(k, ends - starts)
    return groups, offsets, starts, widths


def classify_windows(
    z: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise add-vs-subtract window classification.

    ``z`` holds per-window non-zero counts, ``widths`` the window
    widths (any mutually broadcastable shapes).  Returns ``(full,
    subtract, direct, cost)``: the three masks partition the non-empty
    windows and ``cost`` is each window's op count.  Shared by the
    per-bitmap scans below, which pass every window, and the batched
    multi-island consumer, which passes a grid of every ``(z, width)``
    pair up to its widest group and looks windows up in it, so every
    path classifies identically.
    """
    direct = z
    reuse = 1 + (widths - z)
    single = widths == 1
    cost = np.where(z == 0, 0, np.minimum(direct, reuse))
    cost = np.where(single, direct, cost)

    nonzero = z > 0
    full = nonzero & (z == widths) & ~single
    subtract = nonzero & ~full & (reuse < direct) & ~single
    direct_mask = nonzero & ~full & ~subtract
    return full, subtract, direct_mask, cost


def _window_classes(
    bitmap: np.ndarray, starts: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-(row, group) non-zero counts and add/subtract class masks.

    Shared by the counting and functional scans so their
    :class:`ScanCounts` agree op-for-op.  Returns ``(z, full,
    subtract, direct, cost)`` where the three masks partition the
    non-empty windows and ``cost`` is each window's op count.
    """
    rows, cols = bitmap.shape
    prefix = np.zeros((rows, cols + 1), dtype=np.int64)
    np.cumsum(bitmap, axis=1, out=prefix[:, 1:])
    ends = starts + widths
    z = prefix[:, ends] - prefix[:, starts]
    full, subtract, direct_mask, cost = classify_windows(z, widths[None, :])
    return z, full, subtract, direct_mask, cost


def scan_costs(bitmap: np.ndarray, k: int, *, boundary: int = 0) -> ScanCounts:
    """Count-only window scan of one island bitmap (performance mode)."""
    if bitmap.size == 0:
        return ScanCounts()
    starts, widths = group_layout(bitmap.shape[1], k, boundary=boundary)
    z, full, subtract, direct_mask, cost = _window_classes(bitmap, starts, widths)
    # Pre-sums are built for every multi-column group during combination
    # (width - 1 adds each), as the paper constructs them unconditionally.
    build = int(np.maximum(widths - 1, 0).sum())
    return ScanCounts(
        baseline_ops=int(z.sum()),
        scan_ops=int(cost.sum()),
        preagg_build_ops=build,
        windows_full=int(full.sum()),
        windows_subtract=int(subtract.sum()),
        windows_direct=int(direct_mask.sum()),
        windows_skipped=int((z == 0).sum()),
    )


def scan_aggregate(
    bitmap: np.ndarray,
    k: int,
    xw_local: np.ndarray,
    *,
    boundary: int = 0,
) -> tuple[np.ndarray, ScanCounts]:
    """Functional window scan: returns (row accumulators, op counts).

    ``xw_local`` holds the pre-scaled combination results of the local
    columns, shape (L, C).  The result row ``t`` is
    ``sum_s bitmap[t, s] * xw_local[s]`` computed through the group
    reuse path, so tests can prove the redundancy removal is lossless.
    This is the oracle of the module docstring's accumulation order:
    every fold is written out as a Python loop of vector adds.
    """
    rows, cols = bitmap.shape
    feat = xw_local.shape[1]
    acc = np.zeros((rows, feat), dtype=np.float64)
    if bitmap.size == 0:
        return acc, ScanCounts()

    bmap = bitmap.astype(bool, copy=False)
    xw_local = np.asarray(xw_local, dtype=np.float64)
    starts, widths = group_layout(cols, k, boundary=boundary)
    z, full, subtract, direct_mask, cost = _window_classes(bmap, starts, widths)
    counts = ScanCounts(
        baseline_ops=int(z.sum()),
        scan_ops=int(cost.sum()),
        preagg_build_ops=int(np.maximum(widths - 1, 0).sum()),
        windows_full=int(full.sum()),
        windows_subtract=int(subtract.sum()),
        windows_direct=int(direct_mask.sum()),
        windows_skipped=int((z == 0).sum()),
    )
    # Pre-aggregation: group sums built once per island.
    group_sums = np.zeros((len(starts), feat), dtype=np.float64)
    for g, (start, width) in enumerate(zip(starts.tolist(), widths.tolist())):
        for col in range(start, start + width):
            group_sums[g] += xw_local[col]
    col_group = np.repeat(np.arange(len(starts)), widths)
    reused = full | subtract
    sub_cols = subtract[:, col_group] & ~bmap
    dir_cols = direct_mask[:, col_group] & bmap
    for t in range(rows):
        row = acc[t]
        for g in np.flatnonzero(reused[t]).tolist():
            row += group_sums[g]
        for col in np.flatnonzero(sub_cols[t]).tolist():
            row -= xw_local[col]
        for col in np.flatnonzero(dir_cols[t]).tolist():
            row += xw_local[col]
    return acc, counts
