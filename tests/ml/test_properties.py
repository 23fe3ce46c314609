"""Property-based invariants of the ML substrate (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.base import sigmoid
from repro.ml.metrics import accuracy_score, confusion_matrix, precision_recall_f1
from repro.ml.preprocessing import StandardScaler
from repro.ml.sampling import RandomUnderSampler, SMOTE
from repro.ml.tree import FeatureBinner

labels = st.lists(st.integers(0, 1), min_size=4, max_size=50)


class TestMetricInvariants:
    @given(labels)
    @settings(max_examples=40, deadline=None)
    def test_perfect_prediction_is_perfect(self, ys):
        y = np.asarray(ys)
        if y.sum() == 0 or y.sum() == y.size:
            return
        p, r, f1 = precision_recall_f1(y, y)
        assert (p, r, f1) == (1.0, 1.0, 1.0)
        assert accuracy_score(y, y) == 1.0

    @given(labels, labels)
    @settings(max_examples=40, deadline=None)
    def test_confusion_marginals(self, ys, ps):
        n = min(len(ys), len(ps))
        y, p = np.asarray(ys[:n]), np.asarray(ps[:n])
        matrix = confusion_matrix(y, p)
        assert matrix[1].sum() == y.sum()
        assert matrix[:, 1].sum() == p.sum()

    @given(labels, labels)
    @settings(max_examples=40, deadline=None)
    def test_swapping_classes_swaps_metrics(self, ys, ps):
        n = min(len(ys), len(ps))
        y, p = np.asarray(ys[:n]), np.asarray(ps[:n])
        pos = precision_recall_f1(y, p, positive_label=1)
        neg = precision_recall_f1(1 - y, 1 - p, positive_label=0)
        assert pos == pytest.approx(neg)


class TestScalerProperties:
    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_double_transform_is_identity_composed(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 4) + rng.uniform(-3, 3)
        scaler = StandardScaler().fit(X)
        Z = scaler.transform(X)
        assert np.allclose(Z * scaler.scale_ + scaler.mean_, X, atol=1e-8)


class TestBinnerProperties:
    @given(st.integers(2, 32), st.integers(10, 200), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_binning_is_monotone(self, bins, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 1))
        codes = FeatureBinner(bins).fit_transform(X)[:, 0].astype(int)
        order = np.argsort(X[:, 0])
        assert np.all(np.diff(codes[order]) >= 0)
        assert codes.max() < bins


class TestResamplerProperties:
    @given(st.integers(6, 60), st.integers(2, 5), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_undersampler_preserves_minority(self, n_major, n_minor, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_major + n_minor, 3))
        y = np.array([0] * n_major + [1] * n_minor)
        Xr, yr = RandomUnderSampler(random_state=seed).fit_resample(X, y)
        assert yr.sum() == n_minor
        assert (yr == 0).sum() <= n_major

    @given(st.integers(10, 60), st.integers(3, 8), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_smote_only_adds_minority(self, n_major, n_minor, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_major + n_minor, 2))
        y = np.array([0] * n_major + [1] * n_minor)
        Xr, yr = SMOTE(random_state=seed).fit_resample(X, y)
        assert (yr == 0).sum() == n_major
        assert yr.sum() >= n_minor
        assert Xr.shape[0] == yr.size


class TestSigmoidInvariants:
    @given(st.floats(-700, 700, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_range(self, z):
        out = float(sigmoid(np.array([z]))[0])
        assert 0.0 <= out <= 1.0
