"""Tests for the end-to-end serve-replay harness (and its CLI wiring)."""

import dataclasses

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.serve import serve_replay
from repro.serve.registry import ModelRegistry


@pytest.fixture(scope="module")
def replayed(tiny_trace, tiny_context, tmp_path_factory):
    """One shared replay of the tiny trace through the online path."""
    root = tmp_path_factory.mktemp("registry")
    report = serve_replay(
        tiny_trace,
        root,
        splits=tiny_context.preset_splits(),
        split="DS1",
        model="gbdt",
        batch_size=64,
        fast=True,
    )
    return report, root


class TestOnlineMatchesBatch:
    def test_online_agrees_with_batch_oracle_exactly(self, replayed):
        report, _ = replayed
        assert report.agreement == 1.0
        assert report.max_abs_score_diff == 0.0
        # The acceptance bound is |dF1| <= 0.01; bit-parity makes it 0.
        assert report.f1_delta == 0.0
        assert report.online_report == report.batch_report

    def test_every_test_sample_was_alerted_once(self, replayed):
        report, _ = replayed
        assert report.rows_test > 0
        keys = {(a.run_idx, a.node_id) for a in report.alerts}
        assert len(keys) == len(report.alerts) == report.rows_test
        assert report.counters.rows_scored == report.rows_test
        assert report.rows_streamed > report.rows_test  # full trace streamed

    def test_registry_holds_the_served_model(self, replayed, tiny_trace):
        report, root = replayed
        assert report.registry_versions == [1]
        entry = ModelRegistry(root).latest()
        assert entry.metadata["split"] == "DS1"
        assert entry.metadata["model"] == "gbdt"

    def test_counters_populated(self, replayed):
        report, _ = replayed
        c = report.counters
        assert c.batches > 0
        assert c.max_queue_depth <= 64
        assert c.rows_per_second > 0.0
        assert c.size_flushes + c.deadline_flushes + c.final_flushes == c.batches
        assert report.wall_seconds > 0.0

    def test_report_prints_end_to_end_throughput(self, replayed):
        report, _ = replayed
        rate = report.end_to_end_rows_per_second
        assert rate == report.rows_streamed / report.wall_seconds
        # The whole run includes features and fit, so it is slower than
        # the scoring-only figure.
        assert 0.0 < rate < report.counters.rows_per_second
        assert f"end-to-end         {rate:,.0f} rows/s" in str(report)


class TestScoringCounters:
    def test_every_scored_batch_is_counted(self, tiny_trace, tiny_context, tmp_path):
        with use_registry(MetricsRegistry(mode="on")) as registry:
            report = serve_replay(
                tiny_trace,
                tmp_path,
                splits=tiny_context.preset_splits(),
                split="DS1",
                model="gbdt",
                batch_size=64,
                fast=True,
            )
        kernel_batches = registry.counter("repro_serve_kernel_batches_total")
        assert kernel_batches.value() == report.counters.batches > 0
        seconds = registry.counter("repro_serve_scoring_seconds_total", wall=True)
        assert seconds.value() > 0.0


class TestDeterminism:
    def test_digest_is_stable_across_invocations(
        self, replayed, tiny_trace, tiny_context, tmp_path
    ):
        report, _ = replayed
        again = serve_replay(
            tiny_trace,
            tmp_path / "other-registry",  # fresh root: version ids differ
            splits=tiny_context.preset_splits(),
            split="DS1",
            model="gbdt",
            batch_size=64,
            fast=True,
        )
        assert again.digest() == report.digest()
        assert len(again.alerts) == len(report.alerts)

    def test_digest_sensitive_to_scores(self, replayed):
        report, _ = replayed
        bumped = dataclasses.replace(report.alerts[0], score=report.alerts[0].score + 1)
        tampered = dataclasses.replace(
            report, alerts=[bumped] + report.alerts[1:]
        )
        assert tampered.digest() != report.digest()


class TestRetrainLoop:
    def test_periodic_retrain_publishes_new_versions(
        self, tiny_trace, tiny_context, tmp_path
    ):
        report = serve_replay(
            tiny_trace,
            tmp_path / "registry",
            splits=tiny_context.preset_splits(),
            split="DS1",
            model="lr",
            batch_size=64,
            retrain_every_days=1.0,
            fast=True,
        )
        assert report.retrains >= 1
        assert len(report.registry_versions) == report.retrains + 1
        versions = ModelRegistry(tmp_path / "registry").list_versions()
        assert [v.version for v in versions] == report.registry_versions
        retrained = [v for v in versions if "retrained_at_minute" in v.metadata]
        assert len(retrained) == report.retrains
        # Online still covers every batch test sample.
        assert len(report.alerts) == report.rows_test
        # After a hot swap the online path may legitimately diverge.
        assert 0.0 <= report.agreement <= 1.0


class TestCli:
    def test_serve_replay_subcommand(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = main(
            [
                "--preset",
                "tiny",
                "serve-replay",
                "--registry",
                str(tmp_path / "registry"),
                "--fast",
                "--batch-size",
                "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve-replay [DS1]" in out
        assert "agreement          1.000000" in out
        assert (tmp_path / "registry" / "twostage" / "v0001").is_dir()

    def test_registry_flag_is_required(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-replay"])


class TestStrictMode:
    """`--strict` turns degraded-data self-heals into typed errors."""

    @pytest.fixture(scope="class")
    def faulty_trace(self, tiny_trace):
        from repro.faults import FaultSpec, inject_faults

        faulty, log = inject_faults(
            tiny_trace, FaultSpec(intensity=0.25, seed=7)
        )
        assert len(log) > 0
        return faulty

    def test_strict_escalates_sanitizer_repairs(
        self, faulty_trace, tiny_context, tmp_path
    ):
        from repro.utils.errors import DegradedDataError

        with pytest.raises(DegradedDataError, match="repaired"):
            serve_replay(
                faulty_trace,
                tmp_path / "registry",
                splits=tiny_context.preset_splits(),
                batch_size=64,
                fast=True,
                sanitize=True,
                strict=True,
            )

    def test_non_strict_heals_and_notes_the_repair(
        self, faulty_trace, tiny_context, tmp_path
    ):
        import warnings

        from repro.utils.errors import DegradedDataWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            report = serve_replay(
                faulty_trace,
                tmp_path / "registry",
                splits=tiny_context.preset_splits(),
                batch_size=64,
                fast=True,
                sanitize=True,
            )
        assert any("sanitized input trace" in note for note in report.notes)
        assert report.num_events > 0

    def test_strict_escalates_whole_trace_quarantine(
        self, tiny_trace, tiny_context, tmp_path, monkeypatch
    ):
        from repro.utils.errors import DegradedDataError, TelemetryFaultError

        def quarantine_everything(trace):
            raise TelemetryFaultError("all rows quarantined")

        monkeypatch.setattr(
            "repro.faults.sanitize_trace", quarantine_everything
        )
        with pytest.raises(DegradedDataError, match="quarantined the whole"):
            serve_replay(
                tiny_trace,
                tmp_path / "registry",
                splits=tiny_context.preset_splits(),
                batch_size=64,
                fast=True,
                sanitize=True,
                strict=True,
            )
        # Without strict the same quarantine heals to a well-formed
        # empty report instead of crashing.
        report = serve_replay(
            tiny_trace,
            tmp_path / "registry2",
            splits=tiny_context.preset_splits(),
            batch_size=64,
            fast=True,
            sanitize=True,
        )
        assert report.num_events == 0
        assert any("quarantined the whole trace" in n for n in report.notes)

    def test_cli_wires_top_level_strict_into_serve_replay(
        self, monkeypatch, tmp_path
    ):
        import repro.serve
        from repro.cli import main
        from repro.serve.replay import _empty_report

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        seen = {}

        def fake_serve_replay(trace, registry_root, **kwargs):
            seen.update(kwargs)
            return _empty_report(
                split=kwargs["split"],
                model=kwargs["model"],
                registry_name="twostage",
                chaos=None,
                wall_seconds=0.0,
                notes=[],
            )

        monkeypatch.setattr(repro.serve, "serve_replay", fake_serve_replay)
        assert (
            main(["--preset", "tiny", "--strict", "serve-replay",
                  "--registry", "/tmp/unused", "--fast"])
            == 0
        )
        assert seen["strict"] is True
        seen.clear()
        assert (
            main(["--preset", "tiny", "serve-replay",
                  "--registry", "/tmp/unused", "--fast"])
            == 0
        )
        assert seen["strict"] is False
