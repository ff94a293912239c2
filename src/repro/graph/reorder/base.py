"""Reordering framework.

A *reordering* is a permutation ``perm`` with ``perm[old_id] = new_id``
intended to improve the locality of the adjacency matrix.  The paper's
§4.5 compares I-GCN against six lightweight reordering algorithms
(rabbit, dbg, hubsort, hubcluster, dbg-hubsort, dbg-hubcluster) run as a
*preprocessing* step for AWB-GCN; this subpackage reimplements all six
from scratch.

Each algorithm is a subclass of :class:`Reordering`; the registry lets
the benchmarks iterate over them by name.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = ["Reordering", "ReorderResult", "register", "get_reordering", "reordering_names"]


@dataclass(frozen=True)
class ReorderResult:
    """Outcome of running one reordering on one graph.

    ``seconds`` is the wall-clock preprocessing cost — the quantity the
    paper's Figure 12 charges against the reordering baselines.
    """

    name: str
    permutation: np.ndarray
    seconds: float

    def apply(self, graph: CSRGraph) -> CSRGraph:
        """Materialise the reordered graph."""
        return graph.permute(self.permutation)


class Reordering(ABC):
    """Base class for node-reordering algorithms."""

    #: Registry key; subclasses must override.
    name: str = "base"

    @abstractmethod
    def compute(self, graph: CSRGraph) -> np.ndarray:
        """Return ``perm`` with ``perm[old] = new``."""

    def run(self, graph: CSRGraph) -> ReorderResult:
        """Compute the permutation, timing it, and validate the result."""
        start = time.perf_counter()
        perm = self.compute(graph)
        elapsed = time.perf_counter() - start
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (graph.num_nodes,):
            raise GraphError(f"{self.name}: permutation has wrong length")
        seen = np.zeros(graph.num_nodes, dtype=bool)
        seen[perm] = True
        if not seen.all():
            raise GraphError(f"{self.name}: output is not a permutation")
        return ReorderResult(name=self.name, permutation=perm, seconds=elapsed)


_REGISTRY: dict[str, type[Reordering]] = {}


def register(cls: type[Reordering]) -> type[Reordering]:
    """Class decorator adding a reordering to the registry."""
    if cls.name in _REGISTRY:
        raise GraphError(f"duplicate reordering name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_reordering(name: str) -> Reordering:
    """Instantiate a registered reordering by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise GraphError(
            f"unknown reordering {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def reordering_names() -> list[str]:
    """All registered reordering names (paper order where possible)."""
    preferred = ["rabbit", "dbg", "hubsort", "hubcluster", "dbg-hubsort", "dbg-hubcluster"]
    names = [n for n in preferred if n in _REGISTRY]
    names.extend(sorted(set(_REGISTRY) - set(names)))
    return names

