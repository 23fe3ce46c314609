"""Tests for k-means, resampling, and the AR forecaster."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.cluster import KMeans
from repro.ml.sampling import KMeansUnderSampler, RandomUnderSampler, SMOTE
from repro.ml.timeseries import ARForecaster
from repro.utils.errors import NotFittedError, ValidationError


def imbalanced(seed=0, n=400, pos=40):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = np.zeros(n, dtype=int)
    y[:pos] = 1
    X[:pos] += 2.5
    return X, y


class TestKMeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        centers = np.array([[-5.0, 0.0], [5.0, 0.0], [0.0, 8.0]])
        X = np.vstack([rng.normal(c, 0.3, (50, 2)) for c in centers])
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        labels = km.predict(X)
        # Each true cluster maps to one predicted cluster.
        for i in range(3):
            block = labels[i * 50 : (i + 1) * 50]
            assert np.unique(block).size == 1
        assert km.inertia_ < 100.0

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            KMeans(n_clusters=5).fit(np.ones((3, 2)))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KMeans().predict(np.ones((2, 2)))

    def test_fit_predict_matches_labels(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 2))
        km = KMeans(n_clusters=4, random_state=0)
        labels = km.fit_predict(X)
        assert np.array_equal(labels, km.labels_)


class TestRandomUnderSampler:
    def test_balances(self):
        X, y = imbalanced()
        Xr, yr = RandomUnderSampler(random_state=0).fit_resample(X, y)
        counts = np.bincount(yr)
        assert counts[0] == counts[1] == 40

    def test_ratio(self):
        X, y = imbalanced()
        Xr, yr = RandomUnderSampler(ratio=2.0, random_state=0).fit_resample(X, y)
        counts = np.bincount(yr)
        assert counts[0] == 80 and counts[1] == 40

    def test_requires_both_classes(self):
        X = np.ones((10, 2))
        with pytest.raises(ValidationError):
            RandomUnderSampler().fit_resample(X, np.zeros(10, dtype=int))


class TestSMOTE:
    def test_balances_upward(self):
        X, y = imbalanced()
        Xs, ys = SMOTE(random_state=0).fit_resample(X, y)
        counts = np.bincount(ys)
        assert counts[1] == counts[0] == 360

    def test_synthetic_points_in_minority_hull(self):
        X, y = imbalanced()
        Xs, ys = SMOTE(random_state=0).fit_resample(X, y)
        new = Xs[X.shape[0] :]
        minority = X[y == 1]
        assert new.min() >= minority.min() - 1e-9
        assert new.max() <= minority.max() + 1e-9

    def test_noop_when_balanced(self):
        X, y = imbalanced(pos=200)
        Xs, ys = SMOTE(random_state=0).fit_resample(X, y)
        assert Xs.shape == X.shape

    def test_needs_two_minority_samples(self):
        X, y = imbalanced(pos=1)
        with pytest.raises(ValidationError):
            SMOTE(random_state=0).fit_resample(X, y)


class TestKMeansUnderSampler:
    def test_target_size(self):
        X, y = imbalanced(n=200, pos=20)
        Xr, yr = KMeansUnderSampler(random_state=0).fit_resample(X, y)
        counts = np.bincount(yr)
        assert counts[1] == 20
        assert counts[0] <= 20


class TestARForecaster:
    def test_constant_series(self):
        model = ARForecaster(order=2).fit(np.full(50, 7.0))
        assert model.forecast(5) == pytest.approx(np.full(5, 7.0), abs=0.1)

    def test_linear_trend_with_differencing(self):
        series = 2.0 * np.arange(60.0) + 5.0
        model = ARForecaster(order=2, diff=1).fit(series)
        forecast = model.forecast(3)
        expected = 2.0 * np.arange(60, 63) + 5.0
        assert forecast == pytest.approx(expected, rel=0.05)

    def test_ar1_recovery(self):
        rng = np.random.default_rng(0)
        x = np.zeros(500)
        for t in range(1, 500):
            x[t] = 0.8 * x[t - 1] + rng.normal(0, 0.1)
        model = ARForecaster(order=1).fit(x)
        assert model.coef_[0] == pytest.approx(0.8, abs=0.1)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            ARForecaster(order=5).fit(np.arange(4.0))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            ARForecaster().forecast(2)

    def test_forecast_with_external_history(self):
        model = ARForecaster(order=2).fit(np.sin(np.arange(100) / 5) + 10)
        out = model.forecast(4, history=np.full(10, 10.0))
        assert out.shape == (4,)

    def test_residuals_shape(self):
        series = np.sin(np.arange(50) / 3)
        model = ARForecaster(order=3).fit(series)
        assert model.fitted_residuals().shape == (47,)

    @given(st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_forecast_length(self, steps):
        model = ARForecaster(order=2).fit(np.arange(30.0))
        assert model.forecast(steps).shape == (steps,)
