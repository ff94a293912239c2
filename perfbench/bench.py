"""One benchmark run of one workload (the child ``run.py`` starts).

A single-process closed loop: set up the inputs ``SETUP_REPEATS``
times (the median is ``setup_s``), run one untimed warm-up op, then
timed ops back to back for ``--seconds`` (the next op starts only if
it should end in time), with ``gc.collect()`` before each.  Every op,
warm-up included, is checked: against the stored expectations on the
default seed, and against the run's first op on every seed.  A failed
check or an exception fails that op, records why, and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics from the
traced ones (see ``layertrace.py``); it also writes the spans as Chrome
trace-event JSON under ``.perfbench/``.  The last stdout line is the
result JSON; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import layertrace
import workloads
from run import THREAD_VARS

IMPORTED_NS = time.monotonic_ns()

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 7
SETUP_REPEATS = 3

#: Per-layer metrics: self seconds per op, call counts per op, then the
#: simulated counts and the trace's own residual and overhead.
TIMED_LAYERS = {
    "graph.csr.clean_s": "graph.csr.clean",
    "models.reference.norm_s": "models.reference.norm",
    "core.islandizer.locate_s": "core.islandizer.locate",
    "core.consumer.assemble_s": "core.consumer.assemble",
    "core.consumer.layer_s": "core.consumer.layer",
    "core.interhub.plan_s": "core.interhub.plan",
    "core.pipeline.schedule_s": "core.pipeline.schedule",
    "runtime.store.get_s": "runtime.store.get",
    "runtime.store.put_s": "runtime.store.put",
    "runtime.engine.self_s": "runtime.engine",
    "baselines.simulate_s": "baselines.simulate",
}
CALL_COUNTS = {
    "graph.csr.clean_calls": "graph.csr.clean",
    "runtime.store.get_calls": "runtime.store.get",
    "runtime.store.put_calls": "runtime.store.put",
}
SETUP_TIMED = {
    "graph.generators.generate_s": "graph.generators.generate",
    "graph.datasets.load_s": "graph.datasets.load",
}
COUNT_UNITS = {"core.consumer.prune_agg": "ratio", "hw.memory.dram_bytes": "bytes"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Run:
    """State of one run: ops done, failures, the first op's stats."""

    def __init__(self, workload: workloads.Workload, seed: int, tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.state = None
        self.expected = None
        self.first = None
        self.attempted = 0
        self.failed = 0
        #: Why ops failed, and run-level problems (a span that never fired).
        self.failures: list[str] = []
        self.observed: list = []
        # Per timed op: (wall s, traced root index or None).
        self.timed: list[tuple[float, int | None]] = []
        self.counts: list[dict] = []

    def op(self, label: str, *, traced: bool = False, timed: bool = True) -> None:
        wl = self.workload
        self.attempted += 1
        self.observed.clear()
        wl.before_op(self.state)
        gc.collect()
        root = None
        try:
            if traced:
                with self.tracer.patched(), self.tracer.root("op") as root:
                    wall, cpu, result = self._timed_op()
            else:
                wall, cpu, result = self._timed_op()
        except Exception as exc:  # a failed op is recorded, the run goes on
            log(f"  {label:<8} FAILED: {type(exc).__name__}: {exc}")
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        stats = wl.stats(result)
        reason = (
            workloads.mismatch(self.expected, stats) if self.expected is not None else None
        ) or (
            workloads.mismatch(self.first, stats) if self.first is not None else None
        ) or wl.check(self.state, result)
        if self.first is None:
            self.first = stats
        tag = "traced" if traced else "untraced"
        log(f"  {label:<8} wall {wall:9.4f} s  cpu {cpu:9.4f} s  {tag}  "
            f"{'ok' if reason is None else 'FAILED: ' + reason}")
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{label}: {reason}")
            return
        if timed:
            self.timed.append((wall, root))
            if traced:
                self.counts.append({
                    **workloads.report_counts(wl.reports(result, list(self.observed))),
                    **wl.engine_counts(result),
                })

    def _timed_op(self):
        t0, c0 = time.perf_counter(), time.process_time()
        result = self.workload.op(self.state)
        return time.perf_counter() - t0, time.process_time() - c0, result


def setup(run: Run, workdir: Path) -> float:
    """Set up ``SETUP_REPEATS`` times; returns the median seconds."""
    seconds = []
    previous = None
    for rep in range(SETUP_REPEATS):
        if previous is not None:
            run.workload.discard(previous)
            previous = None
            run.state = None
        gc.collect()
        t0 = time.perf_counter()
        if run.tracer is not None:
            with run.tracer.patched(), run.tracer.root("setup"):
                previous = run.workload.setup(run.seed, workdir / f"rep{rep}")
        else:
            previous = run.workload.setup(run.seed, workdir / f"rep{rep}")
        seconds.append(time.perf_counter() - t0)
        run.state = previous
    log(f"  setup    {' '.join(f'{s:.4f}' for s in seconds)} s")
    return statistics.median(seconds)


def _self_times(tracer, roots: list[int]) -> tuple[dict[str, float], list[dict], float]:
    """Summed self seconds per layer, calls per layer per root, unattributed s."""
    self_s: dict[str, float] = {}
    calls = []
    unattributed = 0.0
    for root in roots:
        root_self, root_calls, rest = tracer.breakdown(root)
        for name, value in root_self.items():
            self_s[name] = self_s.get(name, 0.0) + value
        calls.append(root_calls)
        unattributed += rest
    return self_s, calls, unattributed


def layer_metrics(run: Run, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer metrics from the traced ops and the set-up repetitions.

    Times are self seconds per traced op (per set-up repetition for
    the set-up layers); counts must repeat exactly in every traced op.
    """
    tracer = run.tracer
    roots = [root for _, root in run.timed if root is not None]
    self_s, op_calls, unattributed = _self_times(tracer, roots)
    setup_roots = [i for i, span in enumerate(tracer.spans) if span[0] == "setup"]
    setup_self, setup_calls, _ = _self_times(tracer, setup_roots)
    for layer in run.workload.op_layers:
        if not all(calls.get(layer) for calls in op_calls):
            run.failures.append(f"span {layer} never fired in a traced op")
    for layer in run.workload.setup_layers:
        if not all(calls.get(layer) for calls in setup_calls):
            run.failures.append(f"span {layer} never fired in set-up")

    n = max(1, len(roots))
    metrics = {name: {"value": self_s.get(layer, 0.0) / n, "unit": "s"}
               for name, layer in TIMED_LAYERS.items()}
    for name, layer in SETUP_TIMED.items():
        metrics[name] = {"value": setup_self.get(layer, 0.0) / SETUP_REPEATS, "unit": "s"}
    per_op = [
        {**counts, **{name: calls.get(layer, 0) for name, layer in CALL_COUNTS.items()}}
        for counts, calls in zip(run.counts, op_calls)
    ]
    if not per_op:
        run.failures.append("no traced op succeeded")
    for name in per_op[0] if per_op else ():
        values = [counts[name] for counts in per_op]
        if any(value != values[0] for value in values):
            run.failures.append(f"{name} differs between traced ops: {values}")
        metrics[name] = {"value": values[0], "unit": COUNT_UNITS.get(name, "count")}
    overhead = (
        statistics.median(traced) / statistics.median(untraced)
        if traced and untraced else None
    )
    metrics["trace.unattributed_s"] = {"value": unattributed / n, "unit": "s"}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    if traced:
        log(f"  trace    unattributed {unattributed / n / statistics.median(traced):.3%} "
            f"of traced op_s, overhead {overhead:.4f}")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, default=None,
                        help="monotonic ns at which the launcher started this process")
    parser.add_argument("--record-expected", action="store_true",
                        help="store one op's stats as the default seed's expectations")
    return parser.parse_args(argv)


def record_expected(run: Run, workdir: Path) -> int:
    """Store one op's stats as this workload's default-seed expectations."""
    if run.seed != DEFAULT_SEED:
        log(f"expectations are recorded on the default seed {DEFAULT_SEED} only")
        return 2
    run.state = run.workload.setup(run.seed, workdir / "rep0")
    run.workload.before_op(run.state)
    stats = run.workload.stats(run.workload.op(run.state))
    stored = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    stored[run.workload.name] = stats
    EXPECTED_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    log(f"recorded {run.workload.name} expectations in {EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spawned = args.spawned_ns if args.spawned_ns is not None else IMPORTED_NS
    import_s = (IMPORTED_NS - spawned) / 1e9
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')} "
        + " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS))
    log(f"  imports  {import_s:.4f} s")
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer(on_return={
            "Engine.simulate": lambda report: (
                run.observed.append(report)
                if isinstance(report, workloads.IGCNReport) else None
            ),
        })
    run = Run(workload, args.seed, tracer)
    try:
        if args.record_expected:
            return record_expected(run, workdir)
        if args.seed == DEFAULT_SEED:
            run.expected = json.loads(EXPECTED_PATH.read_text())[workload.name]
        setup_s = import_s + setup(run, workdir)
        workload.prepare_checks(run.state)
        run.op("warm-up", timed=False)
        # Closed loop: start the next op (or untraced + traced pair) only
        # if it should end within --seconds, judging by the last one.
        start = last = time.perf_counter()
        index = 0
        while True:
            index += 1
            run.op(f"op {index}")
            if args.trace:
                run.op(f"op {index}", traced=True)
            now = time.perf_counter()
            if now + (now - last) - start > args.seconds:
                break
            last = now
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [wall for wall, root in run.timed if root is None]
    traced = [wall for wall, root in run.timed if root is not None]
    note = workload.note(run.state)
    if note:
        log(f"  {note}")
    if args.trace:
        metrics = layer_metrics(run, untraced, traced)
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(trace_path)
        log(f"  spans    {len(tracer.spans)} written to {trace_path}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_s": {"value": statistics.median(untraced) if untraced else None, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for failure in run.failures:
        log(f"  FAILURE  {failure}")
    correct = not run.failures and bool(untraced)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
