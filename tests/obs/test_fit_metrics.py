"""Model fits report their count, rows and wall time through ``repro.obs``."""

import pickle

import numpy as np
import pytest

from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.linear import LogisticRegression
from repro.obs import MetricsRegistry, digest_view, use_registry

FIT_METRICS = (
    "repro_ml_fit_rows_total",
    "repro_ml_fit_seconds_total",
    "repro_ml_fits_total",
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(240, 5))
    y = (X[:, 0] + 0.5 * rng.normal(size=240) > 0).astype(int)
    return X, y


def _fit_metrics(registry):
    return {
        metric["name"]: metric
        for metric in registry.snapshot()["metrics"]
        if metric["name"] in FIT_METRICS
    }


def _gbdt():
    return GradientBoostingClassifier(n_estimators=5, random_state=0)


class TestFitMetrics:
    def test_snapshot_shows_one_series_per_model_class(self, data):
        X, y = data
        with use_registry(MetricsRegistry()) as registry:
            _gbdt().fit(X, y)
            _gbdt().fit(X[:100], y[:100])
            LogisticRegression().fit(X, y)
            metrics = _fit_metrics(registry)
        assert sorted(metrics) == list(FIT_METRICS)

        def values(name):
            return {
                sample["labels"]["model"]: sample["value"]
                for sample in metrics[name]["samples"]
            }

        assert values("repro_ml_fits_total") == {
            "GradientBoostingClassifier": 2.0,
            "LogisticRegression": 1.0,
        }
        assert values("repro_ml_fit_rows_total") == {
            "GradientBoostingClassifier": 340.0,
            "LogisticRegression": 240.0,
        }
        seconds = values("repro_ml_fit_seconds_total")
        assert set(seconds) == {"GradientBoostingClassifier", "LogisticRegression"}
        assert all(value > 0 for value in seconds.values())
        assert metrics["repro_ml_fit_seconds_total"]["wall"] is True
        assert metrics["repro_ml_fits_total"]["wall"] is False

    def test_snapshot_digest_is_seed_stable(self, data):
        X, y = data
        digests = []
        for _ in range(2):
            with use_registry(MetricsRegistry()) as registry:
                _gbdt().fit(X, y)
                digests.append(registry.snapshot_digest())
                names = {m["name"] for m in digest_view(registry.snapshot())["metrics"]}
        assert digests[0] == digests[1]
        assert "repro_ml_fit_seconds_total" not in names
        assert "repro_ml_fits_total" in names

    def test_nothing_recorded_when_obs_is_off(self, data):
        X, y = data
        with use_registry(MetricsRegistry(mode="off")) as registry:
            _gbdt().fit(X, y)
            assert _fit_metrics(registry) == {}

    def test_fitted_model_holds_no_registry(self, data):
        X, y = data
        with use_registry(MetricsRegistry()):
            model = _gbdt().fit(X, y)
        assert b"MetricsRegistry" not in pickle.dumps(model)
