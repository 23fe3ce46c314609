"""Small distribution helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["spearman"]


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation coefficient of two equal-length arrays.

    Implemented as Pearson correlation of midranks (ties averaged), which
    is the textbook definition and avoids importing scipy into low-level
    modules.  Returns NaN for degenerate inputs (length < 2 or a constant
    array).
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        return float("nan")
    rx = _midrank(x)
    ry = _midrank(y)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def _midrank(values: np.ndarray) -> np.ndarray:
    """Midranks (1-based, ties get the average of their rank span)."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.arange(1, values.size + 1, dtype=float)
    # Average ranks over groups of tied values.
    sorted_vals = values[order]
    i = 0
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = ranks[order[i : j + 1]].mean()
        i = j + 1
    return ranks
