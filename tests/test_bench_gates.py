"""The ``repro bench`` gates, applied to the committed records.

Every ``BENCH_<suite>.json`` at the repository root must pass its
suite's ``gate`` and cover the suite's full, uncapped ladder.  Each
gate clause is then broken alone, in a copy of the committed record,
and must produce exactly one failure that names the broken field.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.eval.bench_incremental import run_incremental_bench
from repro.eval.bench_locator import run_locator_bench
from repro.eval.bench_partition import run_partition_bench
from repro.eval.harness import full_ladder
from repro.eval.suites import SUITES

ROOT = Path(__file__).resolve().parent.parent


def committed(suite: str) -> dict:
    return json.loads((ROOT / f"BENCH_{suite}.json").read_text())


def _row(index: int, **fields):
    """Set ``fields`` on tier row ``index``."""
    return lambda record: record["tiers"][index].update(fields)


def _top(**fields):
    """Set top-level ``fields``."""
    return lambda record: record.update(fields)


def _capped(**fields):
    """Cap the record's edge count, then set top-level ``fields``."""
    def mutate(record):
        record["config"]["max_edges"] = 60_000
        record.update(fields)
    return mutate


def _batched_slower(record):
    last = record["tiers"][-1]
    last["batched_s"] = last["scalar_s"] + 1


def _flat_speedup(record):
    record["tiers"][-1]["speedup"] = record["tiers"][0]["speedup"]


def _streamed_above_event(record):
    first = record["tiers"][0]
    first["streamed_cycles"] = first["event_cycles"] + 1


def _event_above_staged(record):
    first = record["tiers"][0]
    first["event_cycles"] = first["staged_cycles"] + 1


def _no_overlap(record):
    last = record["tiers"][-1]
    last["event_cycles"] = last["staged_cycles"] = last["streamed_cycles"]


def _bad_quality(record):
    record["tiers"][1]["quality_delta"]["classified_edge_ratio"] = -0.31


def _partitioned_slower(record):
    last = record["tiers"][-1]
    last["part_s"] = last["mono_s"] + 1


def _update_slower(record):
    last = record["tiers"][-1]
    last["update_s"] = last["rerecord_s"] + 1


def _p1_diverged(record):
    record["config"]["p1_identical"] = False


CLAUSES = [
    *(
        pytest.param(suite, field, mutate, id=f"{suite}-{field}")
        for suite in ("locator", "consumer")
        for field, mutate in (
            ("equal", _row(1, equal=False)),
            ("batched_s", _batched_slower),
            ("speedup", _flat_speedup),
        )
    ),
    pytest.param("consumer", "reference_rel_err",
                 _row(2, reference_rel_err=2e-9),
                 id="consumer-reference_rel_err"),
    pytest.param("event", "sandwich", _row(0, sandwich=False),
                 id="event-sandwich"),
    pytest.param("event", "deterministic", _row(1, deterministic=False),
                 id="event-deterministic"),
    pytest.param("event", "equal", _row(2, equal=False), id="event-equal"),
    pytest.param("event", "streamed_cycles", _streamed_above_event,
                 id="event-streamed-above-event"),
    pytest.param("event", "event_cycles", _event_above_staged,
                 id="event-event-above-staged"),
    pytest.param("event", "staged_cycles", _no_overlap,
                 id="event-streamed-below-staged"),
    pytest.param("event", "overlap_win", _row(-1, overlap_win=1.0),
                 id="event-overlap_win"),
    pytest.param("event", "p99_us", _row(-1, p99_us=None),
                 id="event-p99_us"),
    pytest.param("event", "streamed_s", _row(-1, streamed_s=2.6),
                 id="event-streamed_s"),
    pytest.param("event", "generate_s", _row(-1, generate_s=1.1),
                 id="event-generate_s"),
    pytest.param("event", "generate_s", _row(0, generate_s=None),
                 id="event-generate_s-missing"),
    pytest.param("partition", "equal_p1", _row(0, equal_p1=False),
                 id="partition-equal_p1"),
    pytest.param("partition", "classified_edge_ratio", _bad_quality,
                 id="partition-classified_edge_ratio"),
    pytest.param("partition", "part_s", _partitioned_slower,
                 id="partition-part_s"),
    pytest.param("incremental", "equal", _row(0, equal=False),
                 id="incremental-equal"),
    pytest.param("incremental", "headline_speedup",
                 _top(headline_speedup=4.99),
                 id="incremental-headline_speedup"),
    pytest.param("pincr", "p1_identical", _p1_diverged,
                 id="pincr-p1_identical"),
    pytest.param("pincr", "equal", _row(1, equal=False), id="pincr-equal"),
    pytest.param("pincr", "update_s", _update_slower, id="pincr-update_s"),
    pytest.param("pincr", "headline_tier", _top(headline_tier="1e1"),
                 id="pincr-headline_tier"),
    pytest.param("pincr", "headline_speedup", _top(headline_speedup=2.99),
                 id="pincr-headline_speedup"),
]


@pytest.mark.parametrize("suite", list(SUITES))
def test_committed_record_passes_its_gate(suite):
    record = committed(suite)
    assert SUITES[suite].gate(record) == []
    assert full_ladder(record, SUITES[suite].ladder)


@pytest.mark.parametrize("suite, field, mutate", CLAUSES)
def test_each_clause_fails_alone(suite, field, mutate):
    record = copy.deepcopy(committed(suite))
    mutate(record)
    failures = SUITES[suite].gate(record)
    assert len(failures) == 1, failures
    assert field in failures[0]


def _event_partial(record):
    del record["tiers"][0]
    record["tiers"][-1].update(
        overlap_win=1.0, p99_us=None, streamed_s=9.0, generate_s=9.0
    )


def _partition_capped_slower(record):
    _capped()(record)
    _partitioned_slower(record)


def _locator_1e4_slower(record):
    record["tiers"] = record["tiers"][1:2]
    _batched_slower(record)


@pytest.mark.parametrize("suite, mutate", [
    # Headline clauses bind only a full, uncapped ladder: a capped
    # smoke record with a smoke-sized headline passes.
    pytest.param("incremental", _capped(headline_speedup=3.02),
                 id="incremental-capped"),
    pytest.param("pincr", _capped(headline_tier="1e1", headline_speedup=1.5),
                 id="pincr-capped"),
    pytest.param("partition", _partition_capped_slower,
                 id="partition-capped"),
    pytest.param("event", _event_partial, id="event-partial"),
    # Wall clock binds the scaling suites only from a 1e5 largest tier,
    # and speedup growth only across two or more tiers.
    pytest.param("locator", _locator_1e4_slower, id="locator-1e4-only"),
])
def test_partial_runs_skip_headline_and_small_tier_clock(suite, mutate):
    record = copy.deepcopy(committed(suite))
    mutate(record)
    assert not full_ladder(record, SUITES[suite].ladder)
    assert SUITES[suite].gate(record) == []


def test_cli_writes_the_record_then_exits_1_on_a_failed_gate(
    tmp_path, capsys, monkeypatch
):
    record = committed("locator")
    record["tiers"][2]["equal"] = False
    monkeypatch.setitem(SUITES, "locator", dataclasses.replace(
        SUITES["locator"], run=lambda **kwargs: record
    ))
    out = tmp_path / "locator.json"
    assert main(["bench", "locator", "--output", str(out)]) == 1
    assert json.loads(out.read_text()) == record
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {out}: 1e5: equal is False"]


@pytest.mark.parametrize("run, kwargs", [
    (run_locator_bench, {"tiers": ("1e3",)}),
    (run_partition_bench, {"tiers": ("2e5",), "max_edges": 2_000}),
    (run_incremental_bench, {"tiers": ("1e1",), "max_edges": 2_000}),
])
def test_zero_repeats_rejected(run, kwargs):
    with pytest.raises(ConfigError, match="repeats must be >= 1"):
        run(repeats=0, **kwargs)
