"""What the ``repro bench`` suites share: the timer, the full-ladder
predicate and the record's table and headline.

Each suite keeps its own tier loop (partition runs every repeat in a
fresh subprocess, pincr holds one warm shard fleet, incremental and
pincr ladder delta sizes on one fixed graph) and its own
``gate(record) -> list[str]``, the only place its thresholds live.
The suite table that ``repro bench`` dispatches through is
:mod:`repro.eval.suites`.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence, TypeVar

from repro.errors import ConfigError
from repro.eval.tables import render_table

__all__ = [
    "best_of",
    "false_flags",
    "full_ladder",
    "largest_tier_headline",
    "render_record",
]

T = TypeVar("T")


def best_of(fn: Callable[[], T], repeats: int) -> tuple[float, T]:
    """Best wall time of ``repeats`` calls of ``fn``, and the last result."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1 (got {repeats})")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def full_ladder(record: dict, ladder: Sequence[str]) -> bool:
    """Whether ``record`` ran every tier of ``ladder``, in order, uncapped.

    Only such a record carries a suite's headline claim, and only such
    a run may replace a committed ``BENCH_<suite>.json``.
    """
    return (
        [row["tier"] for row in record["tiers"]] == list(ladder)
        and record["config"].get("max_edges") is None
    )


def false_flags(record: dict, *flags: str) -> list[str]:
    """One gate failure per tier and verdict flag that is not ``True``."""
    return [
        f"{row['tier']}: {flag} is {row[flag]}"
        for row in record["tiers"]
        for flag in flags
        if row[flag] is not True
    ]


def render_record(
    record: dict,
    title: str,
    columns: Sequence[str | tuple[str, str | Callable[[dict], object]]],
) -> str:
    """``record``'s tier rows as a table of the declared ``columns``.

    A column is a row key, or a ``(header, row key)`` or ``(header,
    function of the row)`` pair.
    """
    pairs = [(col, col) if isinstance(col, str) else col for col in columns]
    rows = [
        {head: get(row) if callable(get) else row[get] for head, get in pairs}
        for row in record["tiers"]
    ]
    return render_table(rows, title=title)


def largest_tier_headline(record: dict) -> str:
    """The headline of a record ranked by its largest tier."""
    return (
        f"largest tier {record['largest_tier']} "
        f"speedup {record['largest_speedup']}x"
    )
