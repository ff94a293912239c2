"""The ``repro bench`` suite table.

One entry per suite: its runner, its full tier ladder, the suite-only
``repro bench`` flags it takes (argparse destinations), and the
``table``, ``gate`` and ``headline`` of its record.  ``repro bench``
dispatches through this table, and the tests apply each ``gate`` to
the committed ``BENCH_<suite>.json``.  The suite modules do not import
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.eval import (
    bench_consumer,
    bench_event,
    bench_incremental,
    bench_locator,
    bench_partition,
    bench_pincr,
)
from repro.eval.harness import largest_tier_headline

__all__ = ["SUITES", "Suite"]


@dataclass(frozen=True)
class Suite:
    """How ``repro bench`` runs, prints and gates one suite."""

    run: Callable[..., dict]
    ladder: tuple[str, ...]
    flags: tuple[str, ...]
    table: Callable[[dict], str]
    gate: Callable[[dict], list[str]]
    headline: Callable[[dict], str] = largest_tier_headline


_FLEET = ("partitions", "workers", "partition_strategy", "graph_dir")

SUITES: dict[str, Suite] = {
    "locator": Suite(
        bench_locator.run_locator_bench, tuple(bench_locator.BENCH_TIERS),
        (), bench_locator.table, bench_locator.gate,
    ),
    "consumer": Suite(
        bench_consumer.run_consumer_bench, tuple(bench_locator.BENCH_TIERS),
        ("preagg_k",), bench_locator.table, bench_locator.gate,
    ),
    "event": Suite(
        bench_event.run_event_bench, tuple(bench_locator.BENCH_TIERS),
        ("preagg_k",), bench_event.table, bench_event.gate,
    ),
    "partition": Suite(
        bench_partition.run_partition_bench,
        tuple(bench_partition.PARTITION_TIERS),
        (*_FLEET, "max_edges"), bench_partition.table, bench_partition.gate,
    ),
    "incremental": Suite(
        bench_incremental.run_incremental_bench,
        tuple(bench_incremental.DELTA_TIERS),
        ("max_edges", "delta_seed"), bench_incremental.table,
        bench_incremental.gate, bench_incremental.headline,
    ),
    "pincr": Suite(
        bench_pincr.run_pincr_bench, tuple(bench_pincr.PINCR_DELTA_TIERS),
        (*_FLEET, "max_edges", "delta_seed"), bench_pincr.table,
        bench_pincr.gate, bench_pincr.headline,
    ),
}
