"""Run one perfbench workload: ``python3 perfbench/run.py --workload NAME``.

Options (parsed by ``bench.py``): ``--seed N`` (default 7), ``--seconds
S`` of timed ops, ``--trace 0|1`` (end-to-end or per-layer metrics).
Run it from anywhere; it works on the checkout that holds it.

This launcher pins down the noise sources before any timed code runs:
it compiles the sources to bytecode, takes a lock so two runs never
overlap, and starts ``bench.py`` in a fresh process with a fixed
``PYTHONHASHSEED`` and BLAS/OpenMP pools of one thread each.  It waits
for that process (killing it past ``CHILD_TIMEOUT_S``) and exits with
its code.  The child prints the result JSON as its last stdout line.
"""

from __future__ import annotations

import compileall
import fcntl
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: One thread per pool: at most nproc, and free of pool start-up noise.
THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    with open(workdir / "run.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("perfbench: another run is in progress", file=sys.stderr)
            return 3
        if not all(compileall.compile_dir(str(d), quiet=1) for d in (src, HERE)):
            print("perfbench: compiling the sources failed", file=sys.stderr)
            return 2
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)
        env.update({var: THREADS for var in THREAD_VARS})
        env.update(PYTHONHASHSEED="0", PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, str(HERE / "bench.py"), *argv,
               "--spawned-ns", str(time.monotonic_ns())]
        child = subprocess.Popen(cmd, env=env, cwd=ROOT)
        try:
            return child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 4
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
