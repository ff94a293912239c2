"""Small shared NumPy idioms used across the graph store and the kernels.

No paper section of its own: these are the offset, row-gather and
dedup primitives the CSR store (:mod:`repro.graph.csr`), the vectorized
implementations of Algorithm 1's TP-BFS (:mod:`repro.core.tp_bfs_batched`)
and the Island Consumer's task batch (§3.3,
:mod:`repro.core.consumer_batched`) are built from, plus the feature
matrix nonzero count that the dataset store and the consumer's
combination share.  It sits at the package root so that
:mod:`repro.graph` can use it without importing :mod:`repro.core`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csr_gather", "cumsum0", "nonzero_count", "sorted_unique"]


def cumsum0(values) -> np.ndarray:
    """Exclusive-prefix-sum with a leading zero (CSR-style offsets).

    ``cumsum0(counts)[t] .. cumsum0(counts)[t + 1]`` is element ``t``'s
    slice of a flat array partitioned by ``counts`` — the offsets idiom
    every batched kernel (locator, consumer, pre-aggregation layout)
    leans on.
    """
    values = np.asarray(values)
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def csr_gather(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the entries of CSR ``rows``, and each row's count.

    ``indices[flat]`` lists every entry of ``rows[0]``, then of
    ``rows[1]``, and so on, each row in stored order: one vectorized
    gather in place of a per-row slice loop.  ``counts[i]`` is the
    length of row ``rows[i]``, so ``np.repeat(rows, counts)`` names the
    row of each entry.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    prefix = np.cumsum(counts) - counts
    flat = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - prefix, counts
    )
    return flat, counts


def sorted_unique(keys) -> np.ndarray:
    """Sorted distinct values of a 1-D integer key array.

    Equal to ``np.unique(keys)``, but by sort and adjacent-diff: on
    NumPy 2.x ``np.unique`` takes a hash path that is tens of times
    slower on the multi-million int64 key arrays the CSR dedup and the
    consumer task batch feed it.  The input is not modified.
    """
    out = np.sort(keys)
    if len(out) < 2:
        return out
    keep = np.empty(len(out), dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def nonzero_count(x) -> int:
    """Nonzero entries of a dense array or a scipy sparse matrix.

    A sparse matrix counts as its dense array does: stored zeros do
    not count, and duplicate entries are summed first (on a copy, so
    ``x`` is left as it is).
    """
    from scipy import sparse

    if not sparse.issparse(x):
        return int(np.count_nonzero(x))
    csr = x.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return int(np.count_nonzero(csr.data))
