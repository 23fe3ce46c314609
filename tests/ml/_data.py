"""Shared test data helpers for the ``repro.ml`` tests."""

import numpy as np


def random_split(X, y, *, test_fraction, seed):
    """Seeded random ``(X_train, X_test, y_train, y_test)`` split."""
    n = X.shape[0]
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = np.random.default_rng(seed).choice(n, size=min(n_test, n - 1), replace=False)
    test = np.zeros(n, dtype=bool)
    test[test_idx] = True
    return X[~test], X[test], y[~test], y[test]
