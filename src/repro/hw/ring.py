"""Ring network with in-network reduction (§3.3.2).

PEs sit on a unidirectional ring; each owns one bank of the distributed
HUB partial-result cache (DHUB-PRC).  When a PE finishes an island it
emits the hubs' partial sums toward their home banks.  Each ring entry
switch compares the hub id arriving from its left neighbour with the
one injected locally and *reduces in the network* when they match, so
hot hubs do not multiply ring traffic.

This model routes messages hop-by-hop (so hop counts and reduction
opportunities are exact for a given emission order) without modelling
per-cycle contention; ``cycles_estimate`` converts hop counts into an
approximate cycle cost assuming all links transfer in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nputil import sorted_unique

__all__ = ["RingStats", "RingNetwork"]


@dataclass
class RingStats:
    """Counters of ring activity."""

    messages_injected: int = 0
    hops_travelled: int = 0
    in_network_reductions: int = 0
    bank_updates: int = 0

    def merge(self, other: "RingStats") -> None:
        """Add another run's counters to these."""
        self.messages_injected += other.messages_injected
        self.hops_travelled += other.hops_travelled
        self.in_network_reductions += other.in_network_reductions
        self.bank_updates += other.bank_updates

    def cycles_estimate(self, num_pes: int) -> float:
        """Approximate cycles: hops divided across the parallel links."""
        if num_pes <= 0:
            return 0.0
        return self.hops_travelled / num_pes


@dataclass
class RingNetwork:
    """Hub partial-result routing with per-entry reduction."""

    num_pes: int
    stats: RingStats = field(default_factory=RingStats)
    # Per-link in-flight hub ids from the previous batch, used to find
    # reduction opportunities between consecutive injections.
    _in_flight: dict[int, set[int]] = field(default_factory=dict)

    def home_bank(self, hub_id: int) -> int:
        """DHUB-PRC bank owning ``hub_id`` (fixed at first appearance)."""
        return hub_id % self.num_pes

    def send(self, src_pe: int, hub_id: int) -> int:
        """Route one partial result from ``src_pe`` to the hub's bank.

        Returns the number of hops travelled.  A message that overtakes
        another in-flight update for the *same hub* on its first link is
        merged there (in-network reduction) and travels no further.
        """
        if not 0 <= src_pe < self.num_pes:
            raise ValueError(f"src_pe {src_pe} out of range")
        dst = self.home_bank(hub_id)
        self.stats.messages_injected += 1
        link = src_pe
        in_flight_here = self._in_flight.setdefault(link, set())
        if hub_id in in_flight_here:
            self.stats.in_network_reductions += 1
            return 0
        in_flight_here.add(hub_id)  # stays pending until drain()
        hops = (dst - src_pe) % self.num_pes
        if hops == 0:
            # Local bank: no ring traversal.
            self.stats.bank_updates += 1
            return 0
        self.stats.hops_travelled += hops
        self.stats.bank_updates += 1
        return hops

    def send_many(self, src_pe: int, hub_ids) -> int:
        """Route a batch of partial results from one PE, vectorized.

        Counter-equivalent to calling :meth:`send` once per id in
        order: duplicates (within the batch or against updates already
        in flight on this link) reduce in the network, the rest travel
        ``(home - src) % num_pes`` hops.  Returns total hops.
        """
        if not 0 <= src_pe < self.num_pes:
            raise ValueError(f"src_pe {src_pe} out of range")
        ids = np.asarray(hub_ids, dtype=np.int64)
        self.stats.messages_injected += len(ids)
        in_flight_here = self._in_flight.setdefault(src_pe, set())
        first = np.zeros(len(ids), dtype=bool)
        first[np.unique(ids, return_index=True)[1]] = True
        if in_flight_here:
            first &= ~np.isin(ids, np.fromiter(in_flight_here, dtype=np.int64))
        new_ids = ids[first]
        self.stats.in_network_reductions += len(ids) - len(new_ids)
        in_flight_here.update(new_ids.tolist())
        hops = (new_ids % self.num_pes - src_pe) % self.num_pes
        total_hops = int(hops.sum())
        self.stats.hops_travelled += total_hops
        self.stats.bank_updates += len(new_ids)
        return total_hops

    def send_batches(self, src_pes, hub_ids, offsets, counted: RingStats) -> int:
        """Route many per-PE batches, each followed by a drain, in bulk.

        Counter-equivalent to ``send_many(src_pes[b],
        hub_ids[offsets[b]:offsets[b+1]]); drain()`` for every batch
        ``b`` in order: duplicates *within* a batch reduce in the
        network, nothing carries over between batches, and the final
        in-flight state is empty (post-drain).  Returns total hops.

        ``counted`` is :meth:`batch_stats` of the same batches, which a
        caller that routes them every layer counts once.  The bulk path
        adds it; it requires an empty in-flight state (the invariant
        the per-island consumer loop maintains).  Live in-flight
        entries fall back to the sequential calls so the first batch
        interacts with them exactly.
        """
        if self._in_flight:
            hub_ids = np.asarray(hub_ids, dtype=np.int64)
            total = 0
            for b in range(len(src_pes)):
                total += self.send_many(
                    int(src_pes[b]), hub_ids[offsets[b]:offsets[b + 1]]
                )
                self.drain()
            return total
        self.stats.merge(counted)
        return counted.hops_travelled

    def batch_stats(self, src_pes, hub_ids, offsets) -> RingStats:
        """Counters :meth:`send_batches` adds from an empty in-flight state.

        Pure: the ring is left untouched, so a caller that routes the
        same batches again (every layer of an inference) counts them
        once and passes the result to each :meth:`send_batches`.
        """
        src_pes = np.asarray(src_pes, dtype=np.int64)
        hub_ids = np.asarray(hub_ids, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(src_pes) and not (
            (0 <= src_pes).all() and (src_pes < self.num_pes).all()
        ):
            bad = src_pes[(src_pes < 0) | (src_pes >= self.num_pes)][0]
            raise ValueError(f"src_pe {int(bad)} out of range")
        m = len(hub_ids)
        if m == 0:
            return RingStats()
        counts = np.diff(offsets)
        batch_of = np.repeat(np.arange(len(src_pes), dtype=np.int64), counts)
        span = int(hub_ids.max()) + 1
        uniq = sorted_unique(batch_of * span + hub_ids)
        src = src_pes[uniq // span]
        hops = (uniq % span % self.num_pes - src) % self.num_pes
        return RingStats(
            messages_injected=m,
            hops_travelled=int(hops.sum()),
            in_network_reductions=m - len(uniq),
            bank_updates=len(uniq),
        )

    def drain(self) -> None:
        """Clear in-flight state between islands/batches."""
        self._in_flight.clear()
