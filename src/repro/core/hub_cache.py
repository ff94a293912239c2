"""Hub-side on-chip storage: HUB XW cache and DHUB-PRC (§3.3.2).

* **HUB XW cache** — combination results of hub nodes, computed at the
  hub's first appearance and reused by every later island/inter-hub
  task that references the hub.
* **DHUB-PRC** — the distributed HUB Partial-Result Cache: one bank per
  PE, holding running aggregation sums of hubs until all their islands
  and inter-hub tasks complete.  A hub's bank assignment is fixed at
  first appearance (modelled as ``hub_id % num_banks``).

Both wrap the capacity/miss model from ``repro.hw.memory``: while the
hubs' rows fit on-chip their reuse is free, otherwise the uncovered
fraction of accesses spills to DRAM — the paper's "even if the hubs'
associated data is too large to fit ... our method still reduces
off-chip data movement".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.memory import CacheModel, TrafficMeter

__all__ = ["HubXWCache", "HubPartialResultCache"]


@dataclass
class HubXWCache:
    """Combination-result cache for hub nodes."""

    capacity_bytes: int
    row_bytes: int
    num_hubs: int
    _cache: CacheModel = field(init=False)

    def __post_init__(self) -> None:
        self._cache = CacheModel("hub-xw-cache", self.capacity_bytes)
        self._cache.fit(self.num_hubs * self.row_bytes)

    @property
    def miss_ratio(self) -> float:
        """Spill fraction of hub XW reuse accesses."""
        return self._cache.miss_ratio

    def access(self, count: int, meter: TrafficMeter) -> float:
        """Record ``count`` hub-row reuse reads; spills charge the meter."""
        return self._cache.access(
            count,
            bytes_per_access=self.row_bytes,
            meter=meter,
            category="hub-xw-spill",
        )

    def access_batch(self, counts, meter: TrafficMeter) -> float:
        """Record one :meth:`access` per entry of ``counts``, vectorized.

        Counter- and byte-identical to the sequential loop (per-call
        spill rounding included — see ``CacheModel.access_batch``).
        """
        return self._cache.access_batch(
            counts,
            bytes_per_access=self.row_bytes,
            meter=meter,
            category="hub-xw-spill",
        )

    def access_repeat(self, num_calls: int, meter: TrafficMeter) -> float:
        """``num_calls`` single-row reuse reads, in O(1) (loop-identical)."""
        return self._cache.access_uniform(
            num_calls,
            bytes_per_access=self.row_bytes,
            meter=meter,
            category="hub-xw-spill",
        )

    @property
    def accesses(self) -> int:
        """Total reuse accesses recorded."""
        return self._cache.accesses


@dataclass
class HubPartialResultCache:
    """DHUB-PRC: banked partial sums of hub aggregation results."""

    capacity_bytes: int
    row_bytes: int
    num_hubs: int
    num_banks: int
    _cache: CacheModel = field(init=False)
    bank_updates: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self._cache = CacheModel("dhub-prc", self.capacity_bytes)
        self._cache.fit(self.num_hubs * self.row_bytes)
        self.bank_updates = [0] * self.num_banks

    def home_bank(self, hub_id: int) -> int:
        """Bank owning this hub (fixed at first appearance)."""
        return hub_id % self.num_banks

    @property
    def miss_ratio(self) -> float:
        """Spill fraction of partial-sum updates."""
        return self._cache.miss_ratio

    def update(self, hub_id: int, meter: TrafficMeter) -> float:
        """Record one read-modify-write of a hub's partial sum."""
        self.bank_updates[self.home_bank(hub_id)] += 1
        # An update touches the row twice (read + write) when it spills.
        return self._cache.access(
            1,
            bytes_per_access=2 * self.row_bytes,
            meter=meter,
            category="dhub-prc-spill",
        )

    def update_many(self, hub_ids, meter: TrafficMeter) -> float:
        """Record a batch of partial-sum updates, vectorized.

        Counter- and byte-equivalent to one :meth:`update` per id: bank
        counts come from one ``bincount``, and — since every update is
        a single access — each spills exactly ``round(miss_ratio * 2 *
        row_bytes)`` bytes, so the spilling case multiplies that
        per-call rounding instead of looping.
        """
        ids = np.asarray(hub_ids, dtype=np.int64)
        if len(ids) == 0:
            return 0.0
        return self.update_banked(
            np.bincount(ids % self.num_banks, minlength=self.num_banks), meter
        )

    def update_banked(self, per_bank, meter: TrafficMeter) -> float:
        """Record one batch of updates given its per-bank counts.

        ``per_bank[b]`` is the number of updated ids whose home bank is
        ``b``.  Counter- and byte-identical to :meth:`update_many` on
        those ids, so a caller that routes a fixed id list every layer
        counts its banks once and replays them here.
        """
        per_bank = np.asarray(per_bank, dtype=np.int64)
        if per_bank.shape != (self.num_banks,):
            raise ValueError(
                f"per_bank must hold {self.num_banks} counts, got shape "
                f"{per_bank.shape}"
            )
        total = int(per_bank.sum())
        if total == 0:
            return 0.0
        for bank in np.flatnonzero(per_bank):
            self.bank_updates[bank] += int(per_bank[bank])
        return self._cache.access_uniform(
            total,
            bytes_per_access=2 * self.row_bytes,
            meter=meter,
            category="dhub-prc-spill",
        )

    @property
    def updates(self) -> int:
        """Total partial-sum updates."""
        return self._cache.accesses

    @property
    def bank_imbalance(self) -> float:
        """max/mean updates across banks (1.0 = perfectly balanced)."""
        total = sum(self.bank_updates)
        if total == 0:
            return 1.0
        mean = total / self.num_banks
        return max(self.bank_updates) / mean if mean else 1.0
