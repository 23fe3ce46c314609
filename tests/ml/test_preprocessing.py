"""Tests for the column scaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.preprocessing import StandardScaler
from repro.utils.errors import NotFittedError, ValidationError


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_unscaled(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z[:, 0], 0.0)
        assert np.isfinite(Z).all()

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3)) * 7 + 2
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.transform(X) * scaler.scale_ + scaler.mean_, X)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_column_mismatch(self):
        scaler = StandardScaler().fit(np.ones((4, 3)))
        with pytest.raises(ValidationError):
            scaler.transform(np.ones((4, 2)))

    @given(st.integers(1, 5), st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_transform_is_affine(self, d, n):
        rng = np.random.default_rng(d * 100 + n)
        X = rng.normal(size=(n, d))
        scaler = StandardScaler().fit(X)
        a, b = X[:1], X[1:2] if n > 1 else X[:1]
        mid = (a + b) / 2
        z_mid = scaler.transform(mid)
        expected = (scaler.transform(a) + scaler.transform(b)) / 2
        assert np.allclose(z_mid, expected)
