"""Tests for the versioned model registry."""

import json

import numpy as np
import pytest

from repro.core.twostage import TwoStagePredictor
from repro.serve.registry import ARTIFACT_FORMAT, ModelRegistry
from repro.utils.errors import (
    DegradedDataWarning,
    ModelRegistryError,
    NotFittedError,
    ReproError,
)


@pytest.fixture(scope="module")
def fitted(tiny_context):
    """A fitted fast predictor plus its train/test matrices."""
    train, test = tiny_context.pipeline.train_test("DS1")
    predictor = TwoStagePredictor("lr", random_state=0, fast=True)
    predictor.fit(train)
    return predictor, train, test


class TestSaveLoadRoundTrip:
    def test_round_trip_reproduces_predictions_exactly(self, fitted, tmp_path):
        predictor, _, test = fitted
        registry = ModelRegistry(tmp_path)
        entry = registry.save_model(predictor, metadata={"split": "DS1"})
        loaded, loaded_entry = registry.load_model()
        assert loaded_entry.version == entry.version == 1
        np.testing.assert_array_equal(loaded.predict(test), predictor.predict(test))
        np.testing.assert_array_equal(
            loaded.decision_scores(test), predictor.decision_scores(test)
        )
        np.testing.assert_array_equal(
            loaded.offender_nodes, predictor.offender_nodes
        )
        assert loaded.feature_names == predictor.feature_names

    def test_manifest_records_schema_and_metadata(self, fitted, tmp_path):
        predictor, _, _ = fitted
        entry = ModelRegistry(tmp_path).save_model(
            predictor, metadata={"split": "DS1", "seed": 0}
        )
        assert entry.model_name == "lr"
        assert entry.feature_names == predictor.feature_names
        assert entry.metadata == {"split": "DS1", "seed": 0}
        assert entry.manifest["num_offender_nodes"] == predictor.offender_nodes.size

    def test_versions_increment_and_list_in_order(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        v1 = registry.save_model(predictor)
        v2 = registry.save_model(predictor)
        assert (v1.version, v2.version) == (1, 2)
        assert [v.version for v in registry.list_versions()] == [1, 2]
        assert registry.latest().version == 2
        _, entry = registry.load_model(version=1)
        assert entry.version == 1

    def test_unfitted_predictor_is_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            ModelRegistry(tmp_path).save_model(TwoStagePredictor("lr", fast=True))


class TestFailureModes:
    def test_empty_registry(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.list_versions() == []
        with pytest.raises(ModelRegistryError):
            registry.latest()

    def test_missing_version(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        with pytest.raises(ModelRegistryError):
            registry.load_model(version=42)

    def test_corrupt_payload_detected_by_checksum(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        entry = registry.save_model(predictor)
        payload = entry.path / "predictor.pkl"
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))
        with pytest.raises(ModelRegistryError, match="checksum"):
            registry.load_model()

    def test_checksum_error_is_a_repro_error(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        entry = registry.save_model(predictor)
        (entry.path / "predictor.pkl").write_bytes(b"not a pickle")
        with pytest.raises(ReproError):
            registry.load_model()

    def test_unsupported_format_is_rejected(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        entry = registry.save_model(predictor)
        manifest_path = entry.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = ARTIFACT_FORMAT + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ModelRegistryError, match="format"):
            registry.load_model()

    def test_schema_incompatible_artifact_is_rejected(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        wrong = list(predictor.feature_names)
        wrong[0] = "definitely_not_a_feature"
        with pytest.raises(ModelRegistryError, match="schema-incompatible"):
            registry.load_model(expect_feature_names=wrong)
        with pytest.raises(ModelRegistryError, match="schema-incompatible"):
            registry.load_model(
                expect_feature_names=predictor.feature_names + ["extra"]
            )
        # The exact expected schema loads fine.
        registry.load_model(expect_feature_names=predictor.feature_names)

    def test_uncommitted_version_dir_is_invisible(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        # A crashed writer: payload staged, manifest never committed.
        stale = tmp_path / "twostage" / "v0002"
        stale.mkdir(parents=True)
        (stale / "predictor.pkl").write_bytes(b"half written")
        with pytest.warns(DegradedDataWarning, match="uncommitted"):
            assert [v.version for v in registry.list_versions()] == [1]
        _, entry = registry.load_model()
        assert entry.version == 1
        # But the next save never reuses the stale slot.
        assert registry.save_model(predictor).version == 3

    def test_manifest_without_payload_is_skipped_with_warning(
        self, fitted, tmp_path
    ):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        torn = registry.save_model(predictor)
        (torn.path / "predictor.pkl").unlink()
        with pytest.warns(DegradedDataWarning, match="payload missing"):
            assert [v.version for v in registry.list_versions()] == [1]
        # The head still points at the torn v2: latest() degrades to the
        # newest committed version with a dangling-head warning.
        with pytest.warns(DegradedDataWarning, match="uncommitted version"):
            assert registry.latest().version == 1

    def test_next_version_follows_max_existing(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        v2 = registry.save_model(predictor)
        import shutil

        shutil.rmtree(v2.path)
        assert registry.save_model(predictor).version == 2


class TestVerify:
    def test_reports_per_version_checksum_status(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        ok = registry.save_model(predictor)
        corrupt = registry.save_model(predictor)
        missing = registry.save_model(predictor)
        bad_manifest = registry.save_model(predictor)

        data = bytearray((corrupt.path / "predictor.pkl").read_bytes())
        data[len(data) // 2] ^= 0xFF
        (corrupt.path / "predictor.pkl").write_bytes(bytes(data))
        (missing.path / "predictor.pkl").unlink()
        (bad_manifest.path / "manifest.json").write_text("{torn")

        assert registry.verify() == [
            (ok.version, "ok"),
            (corrupt.version, "corrupt-payload"),
            (missing.version, "missing-payload"),
            (bad_manifest.version, "bad-manifest"),
        ]

    def test_bad_format_reported(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        entry = registry.save_model(predictor)
        manifest_path = entry.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = ARTIFACT_FORMAT + 1
        manifest_path.write_text(json.dumps(manifest))
        assert registry.verify() == [(1, "bad-format")]

    def test_unknown_name_raises(self, tmp_path):
        with pytest.raises(ModelRegistryError, match="no registry directory"):
            ModelRegistry(tmp_path).verify("ghost")

    def test_cli_registry_verify(self, fitted, tmp_path, capsys):
        from repro.cli import main

        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        code = main(
            ["registry", "verify", "--registry", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "twostage/v0001  ok" in out
        assert "1 ok, 0 broken" in out

    def test_cli_registry_verify_flags_corruption(self, fitted, tmp_path, capsys):
        from repro.cli import main

        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        entry = registry.save_model(predictor)
        data = bytearray((entry.path / "predictor.pkl").read_bytes())
        data[0] ^= 0xFF
        (entry.path / "predictor.pkl").write_bytes(bytes(data))
        code = main(["registry", "verify", "--registry", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "corrupt-payload" in out

    def test_cli_registry_verify_missing_root_is_one_line_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        code = main(
            ["registry", "verify", "--registry", str(tmp_path / "nope")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("repro: error:")
        assert "Traceback" not in captured.err


class TestRollback:
    def test_head_follows_saves_and_rollback_pins_it(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        registry.save_model(predictor)
        assert registry.head_version() == 2
        entry = registry.rollback("twostage", 1)
        assert entry.version == 1
        assert registry.head_version() == 1
        assert registry.latest().version == 1  # rollback sticks

    def test_next_save_advances_head_past_a_rollback(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        registry.save_model(predictor)
        registry.rollback("twostage", 1)
        assert registry.save_model(predictor).version == 3
        assert registry.head_version() == 3
        assert registry.latest().version == 3

    def test_rollback_refuses_corrupt_target_in_one_line(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        target = registry.save_model(predictor)
        registry.save_model(predictor)
        data = bytearray((target.path / "predictor.pkl").read_bytes())
        data[len(data) // 2] ^= 0xFF
        (target.path / "predictor.pkl").write_bytes(bytes(data))
        with pytest.raises(
            ModelRegistryError, match="refusing rollback.*corrupt-payload"
        ):
            registry.rollback("twostage", 1)
        assert registry.head_version() == 2  # head untouched

    def test_rollback_refuses_missing_target(self, fitted, tmp_path):
        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        with pytest.raises(ModelRegistryError, match="target is missing"):
            registry.rollback("twostage", 42)

    def test_dangling_head_degrades_with_warning(self, fitted, tmp_path):
        import shutil

        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        v2 = registry.save_model(predictor)
        registry.rollback("twostage", 2)
        registry.save_model(predictor)  # v3; head -> 3
        registry.rollback("twostage", 2)
        shutil.rmtree(v2.path)
        with pytest.warns(DegradedDataWarning, match="uncommitted version"):
            assert registry.latest().version == 3

    def test_cli_registry_rollback(self, fitted, tmp_path, capsys):
        from repro.cli import main

        predictor, _, _ = fitted
        registry = ModelRegistry(tmp_path)
        registry.save_model(predictor)
        registry.save_model(predictor)
        code = main(
            ["registry", "rollback", "--registry", str(tmp_path), "--to", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "head -> v0001" in out
        assert registry.head_version() == 1

    def test_cli_registry_rollback_requires_to(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["registry", "rollback", "--registry", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "requires --to" in captured.err
        assert "Traceback" not in captured.err

    def test_cli_registry_rollback_refusal_is_one_line(
        self, fitted, tmp_path, capsys
    ):
        from repro.cli import main

        predictor, _, _ = fitted
        ModelRegistry(tmp_path).save_model(predictor)
        code = main(
            ["registry", "rollback", "--registry", str(tmp_path), "--to", "9"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "refusing rollback" in captured.err
        assert "Traceback" not in captured.err
