"""Tests for the pipeline, evaluation helpers, ECC policy, and registry."""

import numpy as np
import pytest

from repro.core.ecc import EccPolicySimulator
from repro.core.evaluation import (
    cabinet_prediction_error,
    prediction_cdfs,
    runtime_class_report,
    severity_level_report,
)
from repro.core.pipeline import PredictionPipeline
from repro.core.registry import MODEL_NAMES, make_model, needs_scaling
from repro.features.splits import make_paper_splits
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def pipeline(tiny_features):
    from repro.experiments.presets import split_plan

    plan = split_plan("tiny")
    splits = make_paper_splits(
        train_days=plan["train_days"],
        test_days=plan["test_days"],
        offsets_days=tuple(plan["offsets"]),
    )
    return PredictionPipeline(tiny_features, splits)


@pytest.fixture(scope="module")
def gbdt_result(pipeline):
    return pipeline.evaluate_twostage("DS1", "gbdt", fast=True)


class TestRegistry:
    def test_all_models_constructible(self):
        for name in MODEL_NAMES:
            model = make_model(name, random_state=0, fast=True)
            assert hasattr(model, "fit")

    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            make_model("xgboost")
        with pytest.raises(ValidationError):
            needs_scaling("xgboost")

    def test_scaling_flags(self):
        assert needs_scaling("lr") and needs_scaling("svm") and needs_scaling("nn")
        assert not needs_scaling("gbdt")


class TestPipeline:
    def test_split_lookup(self, pipeline):
        assert pipeline.split("DS1").name == "DS1"
        with pytest.raises(ValidationError):
            pipeline.split("DS9")

    def test_train_test_windows_disjoint(self, pipeline):
        train, test = pipeline.train_test("DS1")
        assert train.meta["start_minute"].max() < test.meta["start_minute"].min() + 1e9
        assert train.num_samples > test.num_samples

    def test_evaluate_basic_all_schemes(self, pipeline):
        for scheme in PredictionPipeline.BASIC_SCHEMES:
            result = pipeline.evaluate_basic("DS1", scheme)
            assert 0.0 <= result.f1 <= 1.0
            assert result.test_features is not None

    def test_unknown_scheme(self, pipeline):
        with pytest.raises(ValidationError):
            pipeline.evaluate_basic("DS1", "basic_z")

    def test_twostage_result_fields(self, gbdt_result):
        assert gbdt_result.split == "DS1"
        assert gbdt_result.predictor == "twostage-gbdt"
        assert gbdt_result.train_seconds > 0
        assert gbdt_result.y_true.shape == gbdt_result.y_pred.shape
        assert 0.0 <= gbdt_result.f1 <= 1.0

    def test_from_trace_constructor(self, tiny_trace):
        pipe = PredictionPipeline.from_trace(tiny_trace)
        assert pipe.features.num_samples == tiny_trace.num_samples


class TestEvaluationHelpers:
    def test_cabinet_error_shape_and_conservation(self, gbdt_result, tiny_trace):
        machine = tiny_trace.machine
        grid = cabinet_prediction_error(gbdt_result, machine)
        assert grid.shape == (machine.config.grid_y, machine.config.grid_x)
        total = gbdt_result.y_true.sum() - gbdt_result.y_pred.sum()
        assert grid.sum() == pytest.approx(total)

    def test_prediction_cdfs(self, gbdt_result, tiny_trace):
        cdfs = prediction_cdfs(gbdt_result, tiny_trace.machine)
        assert set(cdfs) == {"ground_truth", "prediction", "true_positives"}
        # True positives can never exceed either series, cabinet-wise.
        assert np.all(cdfs["true_positives"] <= cdfs["ground_truth"] + 1e-9)
        assert np.all(cdfs["true_positives"] <= cdfs["prediction"] + 1e-9)

    def test_runtime_classes(self, gbdt_result):
        report = runtime_class_report(gbdt_result)
        assert set(report) == {"all", "short", "long"}
        for metrics in report.values():
            assert 0.0 <= metrics["f1"] <= 1.0

    def test_severity_levels(self, gbdt_result):
        report = severity_level_report(gbdt_result)
        assert set(report) == {"light", "moderate", "severe", "extreme"}
        for value in report.values():
            assert 0.0 <= value <= 1.0

    def test_severity_requires_positives(self, gbdt_result):
        import dataclasses

        empty = dataclasses.replace(
            gbdt_result, y_true=np.zeros_like(gbdt_result.y_true)
        )
        with pytest.raises(ValidationError):
            severity_level_report(empty)


class TestEccPolicy:
    def test_always_on_saves_nothing(self, gbdt_result):
        report = EccPolicySimulator().replay(gbdt_result, policy="always_on")
        assert report.ecc_off_fraction == 0.0
        assert report.net_saved_core_hours == 0.0
        assert report.exposed_sbe_samples == 0

    def test_always_off_exposes_all_positives(self, gbdt_result):
        report = EccPolicySimulator().replay(gbdt_result, policy="always_off")
        assert report.exposed_sbe_samples == int(gbdt_result.y_true.sum())
        assert report.ecc_off_fraction == 1.0

    def test_predictive_beats_always_off_on_exposure(self, gbdt_result):
        sim = EccPolicySimulator()
        predictive = sim.replay(gbdt_result, policy="predictive")
        always_off = sim.replay(gbdt_result, policy="always_off")
        assert predictive.exposed_sbe_samples < always_off.exposed_sbe_samples

    def test_compare_policies(self, gbdt_result):
        reports = EccPolicySimulator().compare_policies(gbdt_result)
        assert [r.policy for r in reports] == ["always_on", "predictive", "always_off"]

    def test_unknown_policy(self, gbdt_result):
        with pytest.raises(ValidationError):
            EccPolicySimulator().replay(gbdt_result, policy="sometimes")
