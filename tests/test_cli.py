"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "cora"
        assert args.model == "gcn"
        assert args.preagg_k == 6

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_islandize_args(self):
        args = build_parser().parse_args(
            ["islandize", "--dataset", "citeseer", "--cmax", "32"]
        )
        assert args.cmax == 32

    def test_experiments_only_choices(self):
        args = build_parser().parse_args(["experiments", "--only", "fig11"])
        assert args.only == "fig11"

    def test_locator_backend_defaults_batched(self):
        for command in (["run"], ["islandize"], ["compare"], ["sweep"]):
            assert build_parser().parse_args(command).locator_backend == "batched"

    def test_locator_backend_choices(self):
        args = build_parser().parse_args(
            ["islandize", "--locator-backend", "scalar"]
        )
        assert args.locator_backend == "scalar"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--locator-backend", "simd"])

    def test_consumer_backend_defaults_batched(self):
        for command in (["run"], ["compare"], ["sweep"]):
            assert (
                build_parser().parse_args(command).consumer_backend
                == "batched"
            )

    def test_consumer_backend_choices(self):
        args = build_parser().parse_args(
            ["run", "--consumer-backend", "scalar"]
        )
        assert args.consumer_backend == "scalar"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--consumer-backend", "simd"])

    def test_pipeline_defaults_streamed(self):
        for command in (["run"], ["compare"], ["sweep"]):
            assert build_parser().parse_args(command).pipeline == "streamed"

    def test_pipeline_choices(self):
        args = build_parser().parse_args(["run", "--pipeline", "staged"])
        assert args.pipeline == "staged"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--pipeline", "overlapped"])

    def test_islandize_has_no_pipeline_flag(self):
        # islandize stops at the locator: there is no consumer to
        # overlap with.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["islandize", "--pipeline", "staged"])

    def test_docs_defaults(self):
        args = build_parser().parse_args(["docs", "cli"])
        assert args.target == "cli"
        assert args.output == "docs/cli.md"
        assert args.check is False

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "locator"])
        assert args.suite == "locator"
        assert args.output is None  # resolved to BENCH_locator.json
        assert args.tiers is None  # resolved to the suite's own ladder

    def test_bench_partition_suite_flags(self):
        args = build_parser().parse_args(
            ["bench", "partition", "--partitions", "8", "--workers", "2",
             "--max-edges", "50000"]
        )
        assert args.suite == "partition"
        assert args.partitions == 8
        assert args.workers == 2
        assert args.max_edges == 50000

    def test_run_partition_flags(self):
        args = build_parser().parse_args(
            ["run", "--partitions", "4", "--partition-strategy", "range"]
        )
        assert args.partitions == 4
        assert args.partition_strategy == "range"

    def test_bench_consumer_suite(self):
        args = build_parser().parse_args(["bench", "consumer"])
        assert args.suite == "consumer"
        assert args.preagg_k == 6

    def test_islandize_has_no_consumer_backend_flag(self):
        # islandize stops at the locator; accepting the flag would be a
        # silent no-op.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["islandize", "--consumer-backend", "scalar"]
            )

    def test_bench_locator_rejects_preagg_k(self, capsys):
        code = main(["bench", "locator", "--tiers", "1e3", "--repeats", "1",
                     "--preagg-k", "12"])
        assert code == 2
        assert "consumer and event suites" in capsys.readouterr().err


class TestCommands:
    def test_run_small(self, capsys):
        code = main(["run", "--dataset", "cora", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "I-GCN on cora" in out
        assert "prune_agg" in out

    def test_run_functional(self, capsys):
        code = main(["run", "--dataset", "cora", "--scale", "0.05",
                     "--functional"])
        out = capsys.readouterr().out
        assert code == 0
        assert "islandized - reference" in out

    def test_run_functional_fails_on_reference_mismatch(
        self, capsys, monkeypatch
    ):
        import repro.models

        exact = repro.models.reference_forward
        monkeypatch.setattr(
            repro.models, "reference_forward",
            lambda *args, **kwargs: exact(*args, **kwargs) * (1 + 1e-6),
        )
        code = main(["run", "--dataset", "cora", "--scale", "0.05",
                     "--functional"])
        assert code == 2
        assert "differs from the reference" in capsys.readouterr().err

    def test_islandize(self, capsys):
        code = main(["islandize", "--dataset", "cora", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "edge coverage validated" in out

    def test_islandize_scalar_backend_same_output(self, capsys):
        main(["islandize", "--dataset", "cora", "--scale", "0.1"])
        batched = capsys.readouterr().out
        main(["islandize", "--dataset", "cora", "--scale", "0.1",
              "--locator-backend", "scalar"])
        scalar = capsys.readouterr().out
        assert scalar == batched

    def test_run_scalar_consumer_backend_same_output(self, capsys):
        main(["run", "--dataset", "cora", "--scale", "0.1"])
        batched = capsys.readouterr().out
        main(["run", "--dataset", "cora", "--scale", "0.1",
              "--consumer-backend", "scalar"])
        scalar = capsys.readouterr().out
        assert scalar == batched

    def test_bench_consumer_writes_record(self, capsys, tmp_path):
        out_file = tmp_path / "bench.json"
        code = main(["bench", "consumer", "--tiers", "1e3", "--repeats", "1",
                     "--output", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "consumer backend scaling" in out
        import json

        record = json.loads(out_file.read_text())
        assert record["benchmark"] == "consumer-scale"
        assert record["tiers"][0]["tier"] == "1e3"
        assert record["tiers"][0]["equal"] is True
        assert record["tiers"][0]["functional_verified"] is True
        assert record["tiers"][0]["reference_rel_err"] <= 1e-9

    def test_run_staged_pipeline_same_counts(self, capsys):
        # Only the latency column may differ between pipeline modes.
        main(["run", "--dataset", "cora", "--scale", "0.1"])
        streamed = capsys.readouterr().out
        main(["run", "--dataset", "cora", "--scale", "0.1",
              "--pipeline", "staged"])
        staged = capsys.readouterr().out
        assert "pipeline" in streamed
        assert streamed != staged  # latency/pipeline columns differ
        for token in ("prune_agg", "rounds"):
            assert token in streamed and token in staged

    def test_bench_event_writes_record(self, capsys, tmp_path):
        out_file = tmp_path / "bench.json"
        code = main(["bench", "event", "--tiers", "1e3", "--repeats", "1",
                     "--output", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "event pipeline" in out
        import json

        record = json.loads(out_file.read_text())
        assert record["benchmark"] == "event-pipeline"
        row = record["tiers"][0]
        assert row["sandwich"] is True
        assert row["deterministic"] is True
        assert row["equal"] is True
        assert row["streamed_cycles"] < row["staged_cycles"]
        assert record["largest_speedup"] > 1.0

    def test_docs_cli_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "cli.md"
        code = main(["docs", "cli", "--output", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "# CLI reference" in text
        assert "## `repro bench`" in text
        assert "--pipeline" in text
        capsys.readouterr()
        assert main(["docs", "cli", "--output", str(out_file),
                     "--check"]) == 0
        out_file.write_text(text + "drift\n")
        assert main(["docs", "cli", "--output", str(out_file),
                     "--check"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_committed_cli_docs_fresh(self):
        # The committed docs/cli.md must match the live parser — the
        # same check CI's docs-check job runs.
        from repro.cli import render_cli_docs

        committed = (
            __import__("pathlib").Path(__file__).resolve().parent.parent
            / "docs" / "cli.md"
        )
        assert committed.read_text() == render_cli_docs()

    def test_bench_locator_writes_record(self, capsys, tmp_path):
        out_file = tmp_path / "bench.json"
        code = main(["bench", "locator", "--tiers", "1e3", "--repeats", "1",
                     "--output", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "locator backend scaling" in out
        import json

        record = json.loads(out_file.read_text())
        assert record["benchmark"] == "locator-scale"
        assert record["tiers"][0]["tier"] == "1e3"
        assert record["tiers"][0]["equal"] is True
        assert record["largest_tier"] == "1e3"

    def test_bench_default_output_refuses_to_shrink_record(
        self, capsys, tmp_path, monkeypatch
    ):
        # A partial or capped smoke run without --output must not
        # clobber a committed record, and must stop before it runs.
        monkeypatch.chdir(tmp_path)
        import json

        for suite, tiers, argv in (
            ("locator", ("1e3", "1e4", "1e5"), ["--tiers", "1e3"]),
            ("incremental", ("1e1", "1e3", "1e5"), ["--max-edges", "60000"]),
        ):
            path = tmp_path / f"BENCH_{suite}.json"
            path.write_text(json.dumps(
                {"benchmark": suite, "tiers": [{"tier": t} for t in tiers]}
            ))
            before = path.read_bytes()
            code = main(["bench", suite, "--repeats", "1", *argv])
            captured = capsys.readouterr()
            assert code == 2
            assert "pass --output" in captured.err
            assert captured.out == ""
            assert path.read_bytes() == before

    def test_sweep_reports_task_chunk_reuse(self, capsys, monkeypatch):
        # gcn and graphsage aggregate over A+I and share one assembly;
        # gin aggregates over A and derives its chunks from it.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(["sweep", "--datasets", "cora", "--scale", "0.1",
                     "--models", "gcn", "graphsage", "gin",
                     "--platforms", "igcn"])
        out = capsys.readouterr().out
        assert code == 0
        assert "summary rows reused 0 of 3; task chunks assembled 1, reused 2" in out

    def test_compare(self, capsys):
        code = main(["compare", "--dataset", "cora", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "awb-gcn" in out
        assert "pyg-cpu" in out

    def test_spy(self, capsys):
        code = main(["spy", "--dataset", "cora", "--scale", "0.1",
                     "--resolution", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "original" in out
        assert "islandized" in out

    def test_experiments_single(self, capsys):
        code = main(["experiments", "--only", "fig11"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 11" in out
