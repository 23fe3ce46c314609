"""Feature preprocessing: column standardization."""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array
from repro.utils.errors import NotFittedError, ValidationError

__all__ = ["StandardScaler"]


class StandardScaler:
    """Standardize columns to zero mean and unit variance.

    Constant columns are left centred but unscaled (their std is treated
    as 1) so downstream models never see division-by-zero artefacts.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        """Learn per-column mean and scale from ``X``."""
        X = check_array(X)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the learned standardization to ``X``."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler is not fitted")
        X = check_array(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValidationError(
                f"expected {self.mean_.shape[0]} columns, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return the transformed matrix."""
        return self.fit(X).transform(X)
