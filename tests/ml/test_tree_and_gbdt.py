"""Tests for histogram trees and gradient boosting."""

import numpy as np
import pytest

from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import FeatureBinner, GradHessTree
from repro.utils.errors import NotFittedError, ValidationError
from tests.ml._data import random_split


def fit_regression_tree(X, y, *, max_depth, min_samples_leaf=5, n_bins=64):
    """Least-squares tree: ``g = -y``, ``h = 1``, no leaf shrinkage."""
    binner = FeatureBinner(n_bins)
    binned = binner.fit_transform(X)
    tree = GradHessTree(
        max_depth=max_depth, min_samples_leaf=min_samples_leaf, reg_lambda=0.0
    )
    tree.fit(binned, -y, np.ones_like(y), n_bins=n_bins)
    return lambda X_new: tree.predict_binned(binner.transform(X_new))


class TestFeatureBinner:
    def test_bins_are_monotone(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 2))
        binner = FeatureBinner(16)
        codes = binner.fit_transform(X)
        assert codes.dtype == np.uint8
        order = np.argsort(X[:, 0])
        assert np.all(np.diff(codes[order, 0].astype(int)) >= 0)

    def test_invalid_bins(self):
        with pytest.raises(ValidationError):
            FeatureBinner(1)
        with pytest.raises(ValidationError):
            FeatureBinner(300)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            FeatureBinner().transform(np.ones((2, 2)))

    def test_transform_column_mismatch(self):
        binner = FeatureBinner(8).fit(np.random.default_rng(0).normal(size=(50, 3)))
        with pytest.raises(ValidationError):
            binner.transform(np.ones((5, 2)))

    def test_constant_column(self):
        X = np.column_stack([np.ones(100), np.arange(100.0)])
        codes = FeatureBinner(8).fit_transform(X)
        assert np.unique(codes[:, 0]).size == 1


class TestGradHessTree:
    def test_requires_uint8(self):
        tree = GradHessTree()
        with pytest.raises(ValidationError):
            tree.fit(np.zeros((4, 1)), np.zeros(4), np.ones(4), n_bins=8)

    def test_rejects_codes_outside_n_bins(self):
        binned = np.array([[0, 1], [7, 8]], dtype=np.uint8)
        with pytest.raises(ValidationError, match="n_bins=8"):
            GradHessTree().fit(binned, np.zeros(2), np.ones(2), n_bins=8)
        GradHessTree(min_samples_leaf=1).fit(binned, np.zeros(2), np.ones(2), n_bins=9)

    @pytest.mark.parametrize(
        "grad, hess",
        [
            (np.zeros((4, 1)), np.ones(4)),  # grad not 1-D
            (np.zeros(3), np.ones(4)),  # grad too short
            (np.zeros(4), np.ones((2, 2))),  # hess not 1-D
            (np.zeros(4), np.ones(5)),  # hess too long
        ],
    )
    def test_rejects_grad_hess_that_do_not_match_rows(self, grad, hess):
        binned = np.zeros((4, 2), dtype=np.uint8)
        with pytest.raises(ValidationError):
            GradHessTree().fit(binned, grad, hess, n_bins=8)

    def test_pure_split_recovery(self):
        """A single informative feature should be split on exactly."""
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        pred = fit_regression_tree(X, y, max_depth=2)(X)
        assert np.abs(pred - y).mean() < 0.05

    def test_not_fitted_predict(self):
        with pytest.raises(NotFittedError):
            GradHessTree().predict_binned(np.zeros((2, 1), dtype=np.uint8))

    def test_reduces_to_mean_with_depth_limits(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.zeros((4, 1))
        pred = fit_regression_tree(X, y, max_depth=1, min_samples_leaf=1)(X)
        assert pred == pytest.approx(np.full(4, y.mean()))

    def test_fits_step_function(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, size=(600, 2))
        y = np.where(X[:, 0] > 0, 3.0, -1.0) + rng.normal(0, 0.05, 600)
        pred = fit_regression_tree(X, y, max_depth=3)(X)
        assert np.corrcoef(pred, y)[0, 1] > 0.98

    def test_fits_class_interaction(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        pred = fit_regression_tree(X, y.astype(float), max_depth=6)(X)
        assert ((pred > 0.5) == y).mean() > 0.9


class TestGradientBoosting:
    def test_improves_with_rounds(self, binary_dataset):
        X, y = binary_dataset
        small = GradientBoostingClassifier(
            n_estimators=5, max_depth=3, random_state=0, subsample=1.0
        ).fit(X, y)
        large = GradientBoostingClassifier(
            n_estimators=80, max_depth=3, random_state=0, subsample=1.0
        ).fit(X, y)
        from repro.ml.metrics import f1_score

        assert f1_score(y, large.predict(X)) >= f1_score(y, small.predict(X))

    def test_early_stopping_limits_trees(self, binary_dataset):
        X, y = binary_dataset
        model = GradientBoostingClassifier(
            n_estimators=300,
            early_stopping_fraction=0.2,
            early_stopping_rounds=5,
            random_state=0,
        ).fit(X, y)
        assert model.n_estimators_ <= 300

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(class_weight="bogus")

    def test_nonlinear_advantage_over_linear(self, binary_dataset):
        """GBDT must beat LR on an interaction-heavy problem (the paper's
        core modelling claim)."""
        from repro.ml import LogisticRegression, f1_score

        X, y = binary_dataset
        Xtr, Xte, ytr, yte = random_split(X, y, test_fraction=0.3, seed=1)
        gbdt = GradientBoostingClassifier(n_estimators=80, random_state=0).fit(Xtr, ytr)
        lr = LogisticRegression(epochs=60, random_state=0).fit(Xtr, ytr)
        assert f1_score(yte, gbdt.predict(Xte)) > f1_score(yte, lr.predict(Xte))
