"""Estimator base classes and input validation helpers."""

from __future__ import annotations

import time

import numpy as np

from repro.obs import get_registry
from repro.utils.errors import NotFittedError, ValidationError

__all__ = ["check_array", "check_X_y", "BaseClassifier"]


def check_array(X: np.ndarray, *, name: str = "X") -> np.ndarray:
    """Coerce ``X`` to a 2-D float array with finite values."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={X.ndim}")
    if X.shape[0] == 0:
        raise ValidationError(f"{name} must have at least one row")
    if not np.isfinite(X).all():
        raise ValidationError(f"{name} contains NaN or infinity")
    return X


def check_X_y(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and a binary {0, 1} label vector."""
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValidationError(f"y must be 1-D, got ndim={y.ndim}")
    if y.shape[0] != X.shape[0]:
        raise ValidationError(
            f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}"
        )
    y = y.astype(int)
    labels = np.unique(y)
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError(f"y must be binary {{0, 1}}, got labels {labels}")
    return X, y


class BaseClassifier:
    """Shared plumbing for the binary classifiers in this package.

    Subclasses implement ``_fit(X, y)`` and ``_decision_function(X)``; this
    base provides validated ``fit``, probability output via the logistic
    link, thresholded ``predict``, and fitted-state checks.
    """

    #: Decision threshold applied to ``predict_proba`` by ``predict``.
    threshold: float = 0.5

    def __init__(self) -> None:
        self._fitted = False
        self._n_features: int | None = None

    # ------------------------------------------------------------------
    # Template methods
    # ------------------------------------------------------------------
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _decision_function(self, X: np.ndarray) -> np.ndarray:
        """Real-valued score; larger means more likely class 1."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        """Fit the classifier on ``X`` (n x d) and binary labels ``y``."""
        started = time.perf_counter()
        X, y = check_X_y(X, y)
        if np.unique(y).size < 2:
            raise ValidationError(
                "training data must contain both classes; got a single class"
            )
        self._n_features = X.shape[1]
        self._fit(X, y)
        self._fitted = True
        _record_fit_metrics(type(self).__name__, X.shape[0], time.perf_counter() - started)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw decision scores for each row of ``X``."""
        self._check_fitted()
        X = self._check_shape(check_array(X))
        return self._decision_function(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of class 1 for each row of ``X`` (shape ``(n,)``)."""
        scores = self.decision_function(X)
        return sigmoid(scores)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels in {0, 1} for each row of ``X``."""
        return (self.predict_proba(X) >= self.threshold).astype(int)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        """Ranking scores in ``[0, 1]``; larger means more likely class 1.

        The uniform accessor the serving layer uses to rank alerts: every
        classifier returns its class-1 probability (a monotone transform
        of the raw margin), so scores are comparable across thresholds and
        a sort by ``decision_scores`` is a sort by model confidence.
        """
        return self.predict_proba(X)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before prediction"
            )

    def _check_shape(self, X: np.ndarray) -> np.ndarray:
        if self._n_features is not None and X.shape[1] != self._n_features:
            raise ValidationError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        return X


def _record_fit_metrics(model: str, rows: int, seconds: float) -> None:
    # Looked up per fit, never stored: fitted models are pickled into the
    # serving registry and must not carry the process's metrics with them.
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "repro_ml_fits_total", "Classifier fits completed, per model class."
    ).inc(model=model)
    registry.counter(
        "repro_ml_fit_rows_total", "Training rows fitted, per model class."
    ).inc(rows, model=model)
    registry.counter(
        "repro_ml_fit_seconds_total",
        "Wall time spent fitting classifiers.",
        wall=True,
    ).inc(seconds, model=model)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out
