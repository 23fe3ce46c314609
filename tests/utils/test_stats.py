"""Tests for the rank-correlation helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import spearman

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, x**3) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_constant_input_is_nan(self):
        assert np.isnan(spearman(np.ones(5), np.arange(5)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            spearman(np.arange(3), np.arange(4))

    def test_matches_scipy(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        y = x + rng.normal(size=40)
        expected = spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-10)

    def test_ties_match_scipy(self):
        from scipy.stats import spearmanr

        x = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 0.0])
        y = np.array([4.0, 4.0, 4.0, 1.0, 2.0, 2.0])
        assert spearman(x, y) == pytest.approx(spearmanr(x, y).statistic, abs=1e-10)

    @given(st.lists(finite_floats, min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, xs):
        x = np.asarray(xs)
        y = np.asarray(xs)[::-1].copy()
        r = spearman(x, y)
        assert np.isnan(r) or -1.0 - 1e-9 <= r <= 1.0 + 1e-9
