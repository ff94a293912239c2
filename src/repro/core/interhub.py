"""Inter-hub aggregation tasks (§3.3.2).

Hub-hub connections are not part of any island task; the Island
Collector keeps an inter-hub edge map (filled in by the TP-BFS engines
when a BFS seed turns out to be a hub) and issues push-outer-product
tasks over it: each directed entry (target ← source) adds the source
hub's cached XW row into the target hub's partial result.

When the model's normalisation includes self-loops, hub diagonals are
also carried here (member diagonals live in the island bitmaps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.types import IslandizationResult
from repro.errors import SimulationError

__all__ = ["InterHubPlan", "build_interhub_plan"]


@dataclass(frozen=True)
class InterHubPlan:
    """Directed hub-hub work list."""

    directed_edges: np.ndarray   # (E, 2) rows of (target, source)
    self_loop_hubs: np.ndarray   # hub ids receiving a diagonal term
    _bank_cache: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def num_ops(self) -> int:
        """Vector accumulations this plan performs."""
        return len(self.directed_edges) + len(self.self_loop_hubs)

    def macs(self, out_dim: int) -> int:
        """MACs at a given feature width."""
        return self.num_ops * out_dim

    def target_bank_counts(self, num_banks: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-bank update counts of the edge targets and self-loop hubs.

        Bank ``b`` counts the ids with ``id % num_banks == b`` (the
        DHUB-PRC home bank), for the edge targets and the self-loop
        hubs separately.  The plan is fixed, so each ``num_banks`` is
        counted once and every later layer reads the cache.
        """
        cached = self._bank_cache.get(num_banks)
        if cached is None:
            cached = tuple(
                np.bincount(
                    np.asarray(ids, dtype=np.int64) % num_banks,
                    minlength=num_banks,
                )
                for ids in (self.directed_edges[:, 0], self.self_loop_hubs)
            )
            self._bank_cache[num_banks] = cached
        return cached

    def validate_targets(self, hub_pos: np.ndarray) -> None:
        """Raise unless every aggregation target of this plan is a hub.

        ``hub_pos`` maps node id → hub row index (-1 for non-hubs).
        The consumer runs this in *both* counting and functional mode:
        a malformed plan used to be caught only when features were
        supplied, while counts mode silently accounted ops for it.
        Out-of-range ids (negative or ≥ num_nodes) are rejected too —
        a raw ``hub_pos[-1]`` gather would silently wrap to the last
        node instead.
        """
        if len(self.directed_edges):
            self._check_hubs(self.directed_edges[:, 0], hub_pos, "target")
        if len(self.self_loop_hubs):
            self._check_hubs(self.self_loop_hubs, hub_pos, "self-loop node")

    @staticmethod
    def _check_hubs(ids: np.ndarray, hub_pos: np.ndarray, what: str) -> None:
        n = len(hub_pos)
        # One bounds test and one gather; only a failure pays for
        # finding the first offending id.
        if ids.min() >= 0 and ids.max() < n and hub_pos[ids].min() >= 0:
            return
        bad = (ids < 0) | (ids >= n)
        bad[~bad] = hub_pos[ids[~bad]] < 0
        raise SimulationError(
            f"inter-hub plan references a node outside hub_ids: "
            f"{what} {int(ids[int(bad.argmax())])} is not a hub"
        )


def build_interhub_plan(
    result: IslandizationResult,
    *,
    add_self_loops: bool,
) -> InterHubPlan:
    """Expand the canonical inter-hub edge map into directed tasks.

    Each pair ``(u, v)`` is followed by its mirror ``(v, u)``; a
    diagonal pair is emitted once.  The order is part of the contract:
    the PRC update stream and the floating-point accumulation of the
    hub fold both consume it.
    """
    edges = np.asarray(result.interhub_edges, dtype=np.int64).reshape(-1, 2)
    # Pairs on the even rows, mirrors on the odd ones.
    directed = np.empty((2 * len(edges), 2), dtype=np.int64)
    directed[0::2] = edges
    directed[1::2] = edges[:, ::-1]
    diagonal = edges[:, 0] == edges[:, 1]
    if diagonal.any():
        keep = np.ones(len(directed), dtype=bool)
        keep[1::2] = ~diagonal
        directed = directed[keep]
    self_hubs = (
        result.hub_ids.copy() if add_self_loops else np.zeros(0, dtype=np.int64)
    )
    return InterHubPlan(directed_edges=directed, self_loop_hubs=self_hubs)
