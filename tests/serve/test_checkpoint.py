"""Tests for replay checkpointing and kill-and-resume recovery."""

import pytest

from repro.serve import serve_replay
from repro.serve.checkpoint import CheckpointManager
from repro.serve.resilience import ChaosPlan
from repro.utils.errors import (
    DegradedDataWarning,
    SimulatedCrashError,
    ValidationError,
)


class TestCheckpointManager:
    def test_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        state = {"cursor": 42, "payload": list(range(10))}
        info = manager.save(100, state, key="k1")
        assert info.events_done == 100
        events, loaded = manager.load_latest(expected_key="k1")
        assert events == 100
        assert loaded == state

    def test_latest_wins(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k")
        manager.save(300, {"n": 3}, key="k")
        manager.save(200, {"n": 2}, key="k")
        events, state = manager.load_latest(expected_key="k")
        assert (events, state["n"]) == (300, 3)

    def test_corrupt_manifest_skipped_with_warning(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k")
        manager.save(200, {"n": 2}, key="k")
        (tmp_path / "ckpt-00000200.json").write_text("{not json")
        with pytest.warns(DegradedDataWarning, match="corrupt checkpoint"):
            events, state = manager.load_latest(expected_key="k")
        assert (events, state["n"]) == (100, 1)

    def test_missing_payload_skipped_with_warning(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k")
        manager.save(200, {"n": 2}, key="k")
        (tmp_path / "ckpt-00000200.pkl").unlink()
        with pytest.warns(DegradedDataWarning, match="payload missing"):
            events, _ = manager.load_latest(expected_key="k")
        assert events == 100

    def test_format_2_checkpoint_skipped_never_resumed(self, tmp_path):
        # Format 2 pickled the engine's pre-merge history index; its
        # state must not be loaded into the current engine.
        import json

        from repro.serve.checkpoint import CHECKPOINT_FORMAT

        assert CHECKPOINT_FORMAT == 3
        manager = CheckpointManager(tmp_path)
        manager.save(200, {"n": 2}, key="k")
        manifest = tmp_path / "ckpt-00000200.json"
        old = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**old, "format": 2}))
        with pytest.warns(DegradedDataWarning, match="incompatible checkpoint"):
            with pytest.raises(ValidationError, match="nothing to resume"):
                manager.load_latest(expected_key="k")
        manager.save(100, {"n": 1}, key="k")
        with pytest.warns(DegradedDataWarning, match=r"\(format 2\)"):
            events, state = manager.load_latest(expected_key="k")
        assert (events, state["n"]) == (100, 1)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        from repro.utils.errors import TraceIOError

        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k")
        payload = tmp_path / "ckpt-00000100.pkl"
        payload.write_bytes(payload.read_bytes() + b"x")
        with pytest.raises(TraceIOError, match="checksum"):
            manager.load_latest(expected_key="k")

    def test_key_mismatch_refuses_resume(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k1")
        with pytest.raises(ValidationError, match="incompatible"):
            manager.load_latest(expected_key="k2")

    def test_empty_store_refuses_resume(self, tmp_path):
        with pytest.raises(ValidationError, match="nothing to resume"):
            CheckpointManager(tmp_path / "none").load_latest(expected_key="k")


def _replay(trace, context, root, **kwargs):
    return serve_replay(
        trace,
        root,
        splits=context.preset_splits(),
        split="DS1",
        model="lr",
        batch_size=64,
        fast=True,
        **kwargs,
    )


class TestKillAndResume:
    def test_resume_is_bit_identical_without_chaos(
        self, tiny_trace, tiny_context, tmp_path
    ):
        baseline = _replay(tiny_trace, tiny_context, tmp_path / "r1")
        with pytest.raises(SimulatedCrashError):
            _replay(
                tiny_trace,
                tiny_context,
                tmp_path / "r2",
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every_events=150,
                crash_after_events=700,
            )
        resumed = _replay(
            tiny_trace,
            tiny_context,
            tmp_path / "r2",
            checkpoint_dir=tmp_path / "ckpt",
            resume=True,
        )
        assert resumed.resumed_from == 600
        assert resumed.digest() == baseline.digest()
        assert resumed.online_report == baseline.online_report
        assert resumed.agreement == baseline.agreement == 1.0

    def test_resume_is_bit_identical_under_chaos_with_retrain(
        self, tiny_trace, tiny_context, tmp_path
    ):
        plan = ChaosPlan(intensity=0.25, seed=7)
        baseline = _replay(
            tiny_trace,
            tiny_context,
            tmp_path / "r1",
            chaos=plan,
            retrain_every_days=4.0,
        )
        with pytest.raises(SimulatedCrashError):
            _replay(
                tiny_trace,
                tiny_context,
                tmp_path / "r2",
                chaos=plan,
                retrain_every_days=4.0,
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every_events=200,
                crash_after_events=900,
            )
        resumed = _replay(
            tiny_trace,
            tiny_context,
            tmp_path / "r2",
            chaos=plan,
            retrain_every_days=4.0,
            checkpoint_dir=tmp_path / "ckpt",
            resume=True,
        )
        assert resumed.resumed_from == 800
        assert resumed.digest() == baseline.digest()

    def test_resume_requires_checkpoint_dir(self, tiny_trace, tiny_context, tmp_path):
        with pytest.raises(ValidationError, match="checkpoint directory"):
            _replay(tiny_trace, tiny_context, tmp_path / "r", resume=True)

    def test_resume_rejects_incompatible_configuration(
        self, tiny_trace, tiny_context, tmp_path
    ):
        with pytest.raises(SimulatedCrashError):
            _replay(
                tiny_trace,
                tiny_context,
                tmp_path / "r",
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every_events=150,
                crash_after_events=400,
            )
        with pytest.raises(ValidationError, match="incompatible"):
            serve_replay(
                tiny_trace,
                tmp_path / "r",
                splits=tiny_context.preset_splits(),
                split="DS1",
                model="lr",
                batch_size=32,  # differs from the checkpointed run
                fast=True,
                checkpoint_dir=tmp_path / "ckpt",
                resume=True,
            )
