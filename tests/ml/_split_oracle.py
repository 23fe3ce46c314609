"""Per-feature split search: the reference the vectorized search must match.

This is the loop :meth:`repro.ml.tree.GradHessTree._best_split` ran before
it searched blocks of features at once.  It makes three ``bincount`` and
three ``cumsum`` calls per feature and keeps the first feature, first bin
of the largest gain.  The differential tests in ``test_split_search.py``
check that the vectorized search returns exactly what this loop returns.
"""

from __future__ import annotations

import numpy as np


def per_feature_best_split(
    tree,
    binned: np.ndarray,
    indices: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    g_sum: float,
    h_sum: float,
) -> tuple[int, int] | None:
    """Best ``(feature, bin)`` split of ``tree``'s node, one feature at a time.

    Has the signature of ``GradHessTree._best_split`` with ``tree`` in the
    place of ``self``, so tests can patch it in as the method.
    """
    lam = tree.reg_lambda
    parent_score = g_sum**2 / (h_sum + lam)
    best_gain = tree.min_gain
    best: tuple[int, int] | None = None
    rows = binned[indices]
    for feature in range(binned.shape[1]):
        codes = rows[:, feature]
        g_hist = np.bincount(codes, weights=g, minlength=tree._n_bins)
        h_hist = np.bincount(codes, weights=h, minlength=tree._n_bins)
        n_hist = np.bincount(codes, minlength=tree._n_bins)
        gl = np.cumsum(g_hist)[:-1]
        hl = np.cumsum(h_hist)[:-1]
        nl = np.cumsum(n_hist)[:-1]
        gr = g_sum - gl
        hr = h_sum - hl
        nr = indices.size - nl
        valid = (nl >= tree.min_samples_leaf) & (nr >= tree.min_samples_leaf)
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent_score
        gains[~valid | ~np.isfinite(gains)] = -np.inf
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best = (feature, k)
    return best
