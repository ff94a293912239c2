"""Hub detection (Algorithm 2).

The hardware sweeps node degrees through P1 loop-back FIFOs each round;
nodes already classified are filtered out (Island Node Filter checking
the previous-round island table), the rest are compared against the
current threshold and popped to the hub buffer when they qualify.

Functionally this is one vectorised mask; the returned ``detect_items``
(degree entries swept) feeds the locator cycle model, which divides the
sweep across the P1 FIFOs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HubDetection", "detect_new_hubs"]


@dataclass(frozen=True)
class HubDetection:
    """Result of one round's hub sweep."""

    new_hubs: np.ndarray        # node ids, ascending (FIFO order)
    isolated: np.ndarray        # degree-0 leftovers -> singleton islands
    detect_items: int           # degree entries swept this round


def detect_new_hubs(
    degrees: np.ndarray,
    classified: np.ndarray,
    threshold: int,
) -> HubDetection:
    """Sweep unclassified nodes; split out hubs and isolated nodes.

    Parameters
    ----------
    degrees:
        Static structural degrees (loaded into the degree FIFOs once).
    classified:
        Boolean mask of nodes already classified (hub or islanded).
    threshold:
        Current round threshold ``TH_tmp``.

    Notes
    -----
    Degree-0 nodes can never be reached by TP-BFS (no hub will ever
    list them as a neighbour) nor pass any threshold, so the sweep
    classifies them directly as singleton islands; this is the
    termination guard discussed in
    docs/architecture.md#locator-termination-guard.
    """
    remaining = ~classified
    new_hubs = np.flatnonzero(remaining & (degrees >= threshold))
    isolated = np.flatnonzero(remaining & (degrees == 0))
    return HubDetection(
        new_hubs=new_hubs.astype(np.int64),
        isolated=isolated.astype(np.int64),
        detect_items=int(remaining.sum()),
    )
