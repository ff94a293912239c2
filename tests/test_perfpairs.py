"""The benchmark pairs runner: its verdict rule and its bookkeeping.

``tools/perfpairs.py`` judges a performance claim by the pairs rule of
the choosing-metrics guide.  These tests pin that rule on hand-made
samples, then drive the whole command against two stand-in checkouts
whose benchmark prints fixed results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import perfpairs  # noqa: E402  (path set up above)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]


def test_clear_gain():
    change = [value * 0.8 for value in PARENT]
    assert perfpairs.verdict(PARENT, change, better="lower", bound=0.25) == ("gain", 10)


def test_nine_of_ten_is_enough_and_ties_count_for_neither():
    change = [value * 0.8 for value in PARENT]
    change[3] = PARENT[3]                 # a tie: no win for either side
    assert perfpairs.verdict(PARENT, change, better="lower", bound=0.25) == ("gain", 9)
    change[5] = PARENT[5]
    result, wins = perfpairs.verdict(PARENT, change, better="lower", bound=0.25)
    assert (result, wins) == ("no regression", 8)


def test_small_gap_inside_the_parent_spread_is_no_gain():
    # Wins every pair, but by less than the parent's quartile spread.
    change = [value - 0.001 for value in PARENT]
    assert perfpairs.verdict(PARENT, change, better="lower", bound=0.25) == (
        "no regression", 10,
    )


def test_regression_beyond_the_bound():
    change = [value * 1.3 for value in PARENT]
    assert perfpairs.verdict(PARENT, change, better="lower", bound=0.25)[0] == "regression"
    within = [value * 1.2 for value in PARENT]
    assert perfpairs.verdict(PARENT, within, better="lower", bound=0.25)[0] == "no regression"


def test_wide_parent_spread_is_unresolved_unless_every_run_wins():
    parent = [1.0, 1.6, 0.7, 1.3, 0.9, 1.5, 0.8, 1.2, 1.1, 1.4]
    slower = [value * 1.05 for value in parent]
    assert perfpairs.verdict(parent, slower, better="lower", bound=0.25)[0] == "unresolved"
    # Every change run reads better than every parent run, but the
    # medians differ by less than the parent's spread: resolved as no
    # regression, not claimed as a gain.
    parent = [1.0] * 5 + [2.0] * 5
    change = [0.99] * 10
    assert perfpairs.verdict(parent, change, better="lower", bound=0.25) == (
        "no regression", 10,
    )


def test_higher_is_better_mirrors_the_rule():
    change = [value * 1.2 for value in PARENT]
    assert perfpairs.verdict(PARENT, change, better="higher", bound=0.1)[0] == "gain"
    worse = [value * 0.8 for value in PARENT]
    assert perfpairs.verdict(PARENT, worse, better="higher", bound=0.1)[0] == "regression"


def test_rejects_unaligned_samples():
    with pytest.raises(ValueError):
        perfpairs.verdict([1.0, 2.0], [1.0], better="lower", bound=0.1)


def _fake_checkout(root: Path, op_s: float, *, failed: int = 0,
                   assemble_s: float = 0.1, clean_calls: int = 2) -> Path:
    """A checkout whose benchmark prints one fixed result and logs its runs.

    With ``--trace`` it prints two per-layer metrics instead, a time and
    a count.
    """
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "end_to_end": [
            {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25},
        ],
        "per_layer": [
            {"name": "core.consumer.assemble_s", "unit": "s", "better": "lower"},
            {"name": "graph.csr.clean_calls", "unit": "count", "better": "lower"},
            {"name": "runtime.store.get_calls", "unit": "count", "better": "lower"},
        ],
    }))
    result = {
        "correct": failed == 0, "attempted": 5, "failed": failed,
        "metrics": {"op_s": {"value": op_s, "unit": "s"}},
    }
    traced = {
        "correct": True, "attempted": 2, "failed": 0,
        "metrics": {
            "core.consumer.assemble_s": {"value": assemble_s, "unit": "s"},
            "graph.csr.clean_calls": {"value": clean_calls, "unit": "count"},
            "runtime.store.get_calls": {"value": 0, "unit": "count"},
        },
    }
    (root / "perfbench" / "run.py").write_text(
        "import json, sys, pathlib\n"
        "log = pathlib.Path(__file__).parent.parent.parent / 'order.log'\n"
        f"log.open('a').write({root.name!r} + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
        "if '--trace' in sys.argv:\n"
        f"    print(json.dumps({traced!r}))\n"
        "    sys.exit(0)\n"
        f"print('warming up')\nprint(json.dumps({result!r}))\n"
        f"sys.exit({1 if failed else 0})\n"
    )
    return root


def test_command_alternates_and_reports(tmp_path, capsys):
    parent = _fake_checkout(tmp_path / "parent", 1.0)
    change = _fake_checkout(tmp_path / "change", 0.8)
    code = perfpairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "w", "--pairs", "3", "--seed", "3",
    ])
    assert code == 0
    runs = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in runs] == [
        "parent", "change", "change", "parent", "parent", "change",
    ]
    assert all(line.split()[1:] == ["--workload", "w", "--seed", "3"] for line in runs)
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("op_s (s, lower is better, bound 0.25): parent 1 [1-1]")
    assert out[0].endswith("change better in 3/3 pairs: gain")
    assert out[1:] == [
        "parent: 0/15 ops failed, 0 incorrect runs",
        "change: 0/15 ops failed, 0 incorrect runs",
    ]


def test_command_fails_when_the_change_fails_more_ops(tmp_path, capsys):
    parent = _fake_checkout(tmp_path / "parent", 1.0)
    change = _fake_checkout(tmp_path / "change", 0.8, failed=2)
    code = perfpairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "w", "--pairs", "1",
    ])
    assert code == 1
    assert "change: 2/5 ops failed, 1 incorrect runs" in capsys.readouterr().out


def test_trace_prints_per_layer_metrics_side_by_side(tmp_path, capsys):
    parent = _fake_checkout(tmp_path / "parent", 1.0, assemble_s=0.137)
    change = _fake_checkout(tmp_path / "change", 0.8, assemble_s=0.068,
                            clean_calls=3)
    code = perfpairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "w", "--pairs", "2", "--trace",
    ])
    assert code == 0
    runs = (tmp_path / "order.log").read_text().splitlines()
    # The pairs first, then one traced run per side.
    assert [line.split()[0] for line in runs] == [
        "parent", "change", "change", "parent", "parent", "change",
    ]
    assert all("--trace" not in line for line in runs[:4])
    assert all(line.split()[-2:] == ["--trace", "1"] for line in runs[4:])
    out = capsys.readouterr().out.splitlines()
    start = out.index("per-layer metrics, one --trace 1 run per side:")
    assert out[start + 1:] == [
        "core.consumer.assemble_s (s): parent 0.137 -> change 0.068",
        "graph.csr.clean_calls (count): parent 2 -> change 3  DIFFERS",
        "runtime.store.get_calls (count): parent 0 -> change 0",
    ]


def test_trace_keeps_the_exit_code_of_the_pairs(tmp_path, capsys):
    parent = _fake_checkout(tmp_path / "parent", 1.0)
    change = _fake_checkout(tmp_path / "change", 0.8, failed=2, clean_calls=5)
    code = perfpairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "w", "--pairs", "1", "--trace",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "change: 2/5 ops failed, 1 incorrect runs" in out
    assert "graph.csr.clean_calls (count): parent 2 -> change 5  DIFFERS" in out


def test_trace_report_marks_a_missing_count():
    lines = perfpairs.trace_report(
        [{"name": "graph.csr.clean_calls", "unit": "count"},
         {"name": "core.consumer.layer_s", "unit": "s"}],
        {"metrics": {"graph.csr.clean_calls": {"value": 2},
                     "core.consumer.layer_s": {"value": 0.05}}},
        None,
    )
    assert lines == [
        "change: the traced run printed no result",
        "graph.csr.clean_calls (count): parent 2 -> change -  DIFFERS",
        "core.consumer.layer_s (s): parent 0.05 -> change -",
    ]
