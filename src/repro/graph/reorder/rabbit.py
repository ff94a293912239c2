"""Simplified Rabbit Order (community-clustering reordering).

Rabbit Order (Arai et al., IPDPS'16) is the heaviest of the paper's six
"lightweight" baselines: it performs incremental community aggregation
driven by modularity gain, then assigns contiguous ids within the
resulting community hierarchy.

This is a from-scratch, single-threaded reimplementation of the core
idea (docs/architecture.md#rabbit-order-substitute records the
substitution):

1. *Incremental aggregation* — scan edges from low-degree endpoints
   upward; merge the endpoint communities (union-find) whenever the
   merge has positive modularity gain
   ``ΔQ ∝ w_uv / (2m) - (vol_u * vol_v) / (2m)^2``.
2. *Ordering* — communities are laid out contiguously (largest first),
   preserving original id order inside each community.

That reproduces the behaviour Figure 12/13 needs: a preprocessing pass
noticeably more expensive than the degree-based schemes that produces
clearly block-clustered adjacency — yet still leaves outlying non-zeros
that islandization does not.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.reorder.base import Reordering, register

__all__ = ["RabbitReordering"]


class _UnionFind:
    """Union-find with community volume (total degree) bookkeeping."""

    def __init__(self, degrees: np.ndarray) -> None:
        self.parent = np.arange(len(degrees), dtype=np.int64)
        self.volume = degrees.astype(np.float64).copy()

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = int(self.parent[root])
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, int(self.parent[x])
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.volume[ra] < self.volume[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.volume[ra] += self.volume[rb]
        return ra


@register
class RabbitReordering(Reordering):
    """Community-aggregation reordering (simplified Rabbit Order)."""

    name = "rabbit"

    def compute(self, graph: CSRGraph) -> np.ndarray:
        n = graph.num_nodes
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        degrees = graph.degrees.astype(np.float64)
        two_m = max(float(graph.num_edges), 1.0)
        uf = _UnionFind(degrees)

        # Visit nodes from low to high degree (rabbit's incremental
        # aggregation order) and try to merge each with its best
        # neighbour by modularity gain.
        for u in np.argsort(degrees, kind="stable"):
            u = int(u)
            best_gain = 0.0
            best_root = -1
            ru = uf.find(u)
            for v in graph.neighbors(u):
                rv = uf.find(int(v))
                if rv == ru:
                    continue
                gain = 1.0 / two_m - (uf.volume[ru] * uf.volume[rv]) / (two_m * two_m)
                if gain > best_gain:
                    best_gain = gain
                    best_root = rv
            if best_root >= 0:
                uf.union(ru, best_root)

        roots = np.fromiter((uf.find(i) for i in range(n)), dtype=np.int64, count=n)
        # Lay out communities contiguously, largest first; stable sort
        # preserves original order within each community.
        sizes = np.bincount(roots, minlength=n)
        order = np.lexsort((np.arange(n), roots, -sizes[roots]))
        perm = np.empty(n, dtype=np.int64)
        perm[order] = np.arange(n, dtype=np.int64)
        return perm
