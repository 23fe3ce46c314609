"""Cross-cutting tests over the four stage-2 classifiers."""

import numpy as np
import pytest

from repro.ml import (
    GradientBoostingClassifier,
    LogisticRegression,
    MLPClassifier,
    SVC,
    accuracy_score,
    f1_score,
)
from repro.ml.base import sigmoid
from repro.utils.errors import NotFittedError, ValidationError
from tests.ml._data import random_split


def make_models(fast=True):
    return {
        "lr": LogisticRegression(epochs=30, class_weight="balanced", random_state=0),
        "gbdt": GradientBoostingClassifier(
            n_estimators=60, max_depth=3, random_state=0
        ),
        "svm": SVC(max_train_size=600, max_iter=15, random_state=0),
        "nn": MLPClassifier(hidden_layers=(16,), epochs=25, random_state=0),
    }


@pytest.fixture(scope="module")
def dataset(binary_dataset):
    X, y = binary_dataset
    return random_split(X, y, test_fraction=0.25, seed=0)


class TestSigmoid:
    def test_extremes_are_stable(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0)
        assert np.isfinite(out).all()


@pytest.mark.parametrize("name", ["lr", "gbdt", "svm", "nn"])
class TestAllClassifiers:
    def test_learns_better_than_chance(self, name, dataset):
        Xtr, Xte, ytr, yte = dataset
        model = make_models()[name]
        model.fit(Xtr, ytr)
        acc = accuracy_score(yte, model.predict(Xte))
        base = max(yte.mean(), 1 - yte.mean())
        assert acc > 0.55
        assert f1_score(yte, model.predict(Xte)) > 0.5

    def test_predict_proba_in_unit_interval(self, name, dataset):
        Xtr, Xte, ytr, yte = dataset
        model = make_models()[name].fit(Xtr, ytr)
        proba = model.predict_proba(Xte)
        assert proba.shape == (Xte.shape[0],)
        assert np.all(proba >= 0.0) and np.all(proba <= 1.0)

    def test_predict_matches_threshold(self, name, dataset):
        Xtr, Xte, ytr, yte = dataset
        model = make_models()[name].fit(Xtr, ytr)
        proba = model.predict_proba(Xte)
        assert np.array_equal(model.predict(Xte), (proba >= 0.5).astype(int))

    def test_not_fitted_raises(self, name, dataset):
        _, Xte, _, _ = dataset
        with pytest.raises(NotFittedError):
            make_models()[name].predict(Xte)

    def test_single_class_raises(self, name, dataset):
        Xtr, _, _, _ = dataset
        with pytest.raises(ValidationError):
            make_models()[name].fit(Xtr[:50], np.zeros(50, dtype=int))

    def test_feature_count_mismatch(self, name, dataset):
        Xtr, Xte, ytr, _ = dataset
        model = make_models()[name].fit(Xtr, ytr)
        with pytest.raises(ValidationError):
            model.predict(Xte[:, :3])

    def test_rejects_nan(self, name, dataset):
        Xtr, _, ytr, _ = dataset
        bad = Xtr.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            make_models()[name].fit(bad, ytr)

    def test_deterministic_with_seed(self, name, dataset):
        Xtr, Xte, ytr, _ = dataset
        a = make_models()[name].fit(Xtr, ytr).predict_proba(Xte)
        b = make_models()[name].fit(Xtr, ytr).predict_proba(Xte)
        assert np.allclose(a, b)


class TestImbalancedBehaviour:
    def test_balanced_weights_raise_minority_recall(self):
        rng = np.random.default_rng(3)
        n = 4000
        X = rng.normal(size=(n, 4))
        logits = X[:, 0] + 0.5 * X[:, 1] - 3.2
        y = (rng.random(n) < sigmoid(logits)).astype(int)
        assert 0.01 < y.mean() < 0.2
        unweighted = LogisticRegression(epochs=40, random_state=0)
        weighted = LogisticRegression(
            epochs=40, class_weight="balanced", random_state=0
        )
        unweighted.fit(X, y)
        weighted.fit(X, y)
        from repro.ml.metrics import recall_score

        assert recall_score(y, weighted.predict(X)) > recall_score(
            y, unweighted.predict(X)
        )
