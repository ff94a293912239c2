"""Alternating parent/change benchmark pairs, with one verdict per metric.

Runs the repo benchmark (``BENCHMARK.json``'s command, by default
``python3 perfbench/run.py``) in two checkouts, pair by pair, and
judges every end-to-end metric by the pairs rule of the
choosing-metrics guide (section 8)::

    python tools/perfpairs.py --parent DIR --change DIR --workload NAME \\
        [--pairs 10] [--seed 7] [--trace]

Each checkout runs its own benchmark files, in its own directory.  The
side that runs first alternates: the parent in even pairs, the change
in odd ones.  A run's result is the JSON object on its last stdout
line.  For each metric the tool prints both sides' medians and
quartiles, how many pairs the change won, and a verdict:

* ``gain`` — the change is better in at least 9/10 of the pairs (ties
  count for neither side) and the medians differ by more than the
  parent's quartile spread;
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound, a fraction of the parent's median;
* ``unresolved`` — the parent's quartile spread, as a fraction of its
  median, is wider than the bound, and not every change run beats
  every parent run;
* ``no regression`` — otherwise.

With ``--trace``, each side then runs once more with ``--trace 1``, and
the tool prints every ``per_layer`` metric of ``BENCHMARK.json`` side
by side, so a reader sees which stage a saving came from.  A metric in
a count unit (``count``) is exact, so one that differs between the
sides is marked ``DIFFERS``: the change altered what the program does,
not how fast.  One traced run per side judges no timing; it only
locates one.

Exit code 1 when the change has more failed ops or more incorrect runs
than the parent in the pairs (a run that prints no result counts as
incorrect), 2 on bad arguments, 0 otherwise.  The verdicts and the
traced runs never fail the command: a reader decides what a
``regression``, ``unresolved`` or ``DIFFERS`` row means for the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Share of pairs the change must win before a gain is claimed.
GAIN_SHARE = 0.9
#: Per-layer units that count events: equal on both sides unless the
#: change altered what the program does.
EXACT_UNITS = ("count",)


@dataclass
class Side:
    """Every run of one checkout, in run order."""

    values: dict[str, list[float]] = field(default_factory=dict)
    failed_ops: int = 0
    attempted_ops: int = 0
    incorrect_runs: int = 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated inside the sample's range."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], *, better: str,
            bound: float) -> tuple[str, int]:
    """Judge one metric over aligned pairs → ``(verdict, change wins)``.

    ``parent[i]`` and ``change[i]`` are pair ``i``'s two runs;
    ``better`` is ``"lower"`` or ``"higher"`` and ``bound`` the
    fraction of the parent's median by which the metric may worsen.
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need the same positive number of runs per side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    spread = p_q3 - p_q1
    if wins >= GAIN_SHARE * len(parent) and sign * (p_med - c_med) > spread:
        return "gain", wins
    scale = abs(p_med)
    if sign * (c_med - p_med) > bound * scale:
        return "regression", wins
    if better == "lower":
        beats_all = max(change) < min(parent)
    else:
        beats_all = min(change) > max(parent)
    if spread > bound * scale and not beats_all:
        return "unresolved", wins
    return "no regression", wins


def run_once(checkout: Path, command: list[str], workload: str,
             seed: int, *extra: str) -> dict | None:
    """One benchmark run in ``checkout``: its result JSON, or ``None``."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), *extra],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0:
        # An incorrect run still prints its result (and exits 1).
        sys.stderr.write(
            f"perfpairs: {checkout} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-500:]}\n"
        )
    return result if isinstance(result, dict) else None


def complete(result: dict | None, metrics: list[str]) -> bool:
    """True when ``result`` reports every metric in ``metrics``."""
    return result is not None and all(
        name in result.get("metrics", {}) for name in metrics
    )


def tally(side: Side, result: dict | None) -> None:
    """Count one run's failed ops and correctness into ``side``."""
    if result is None:
        side.incorrect_runs += 1
        return
    side.failed_ops += int(result.get("failed", 0))
    side.attempted_ops += int(result.get("attempted", 0))
    if not result.get("correct", False):
        side.incorrect_runs += 1


def report(spec: list[dict], parent: Side, change: Side) -> list[str]:
    """One line per end-to-end metric, then the failure counts."""
    lines = []
    for metric in spec:
        name = metric["name"]
        p, c = parent.values.get(name, []), change.values.get(name, [])
        if not p:
            lines.append(f"{name}: no complete pair")
            continue
        result, wins = verdict(p, c, better=metric["better"],
                               bound=float(metric["bound"]))
        p_q1, p_med, p_q3 = quartiles(p)
        c_q1, c_med, c_q3 = quartiles(c)
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better, bound "
            f"{metric['bound']}): parent {p_med:.4g} [{p_q1:.4g}-{p_q3:.4g}]"
            f" -> change {c_med:.4g} [{c_q1:.4g}-{c_q3:.4g}], change better "
            f"in {wins}/{len(p)} pairs: {result}"
        )
    for label, side in (("parent", parent), ("change", change)):
        lines.append(
            f"{label}: {side.failed_ops}/{side.attempted_ops} ops failed, "
            f"{side.incorrect_runs} incorrect runs"
        )
    return lines


def trace_report(spec: list[dict], parent: dict | None,
                 change: dict | None) -> list[str]:
    """One line per per-layer metric: the two traced runs side by side."""
    lines = [
        f"{label}: the traced run printed no result"
        for label, result in (("parent", parent), ("change", change))
        if result is None
    ]
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        exact = unit in EXACT_UNITS
        values = [
            (result or {}).get("metrics", {}).get(name, {}).get("value")
            for result in (parent, change)
        ]
        p, c = (
            "-" if v is None else repr(v) if exact else f"{v:.4g}"
            for v in values
        )
        mark = "  DIFFERS" if exact and values[0] != values[1] else ""
        lines.append(f"{name} ({unit}): parent {p} -> change {c}{mark}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Alternating parent/change benchmark pairs."
    )
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--trace", action="store_true",
        help="after the pairs, run each side once with --trace 1 and "
             "print the per-layer metrics side by side",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec_path = args.change / "BENCHMARK.json"
    if not spec_path.is_file():
        parser.error(f"no BENCHMARK.json in {args.change}")
    bench = json.loads(spec_path.read_text())
    spec = bench["end_to_end"]
    metrics = [metric["name"] for metric in spec]
    sides = {"parent": Side(), "change": Side()}
    dirs = {"parent": args.parent, "change": args.change}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {
            label: run_once(dirs[label], bench["command"], args.workload,
                            args.seed)
            for label in order
        }
        for label, result in results.items():
            tally(sides[label], result)
        # A pair counts for the metrics only when both of its runs do.
        if all(complete(result, metrics) for result in results.values()):
            for label, result in results.items():
                for name in metrics:
                    sides[label].values.setdefault(name, []).append(
                        float(result["metrics"][name]["value"])
                    )
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr, flush=True)
    for line in report(spec, sides["parent"], sides["change"]):
        print(line)
    if args.trace:
        traced = {
            label: run_once(dirs[label], bench["command"], args.workload,
                            args.seed, "--trace", "1")
            for label in ("parent", "change")
        }
        print("per-layer metrics, one --trace 1 run per side:")
        for line in trace_report(bench.get("per_layer", []),
                                 traced["parent"], traced["change"]):
            print(line)
    parent, change = sides["parent"], sides["change"]
    worse = (change.failed_ops > parent.failed_ops
             or change.incorrect_runs > parent.incorrect_runs)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
