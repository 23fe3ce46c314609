"""Histogram-based gradient/hessian CART trees.

These trees are the weak learners inside
:class:`repro.ml.gbdt.GradientBoostingClassifier`.  Following the design of
modern boosting libraries, features are quantized into a small number of
bins once, and each split is found by accumulating gradient/hessian
histograms per feature — O(n_bins) candidate splits per feature instead of
O(n) — which keeps from-scratch boosting fast enough for the paper's
datasets.

The split objective is the second-order (XGBoost-style) gain

    gain = GL^2/(HL + lam) + GR^2/(HR + lam) - G^2/(H + lam)

with leaf value ``-G / (H + lam)``.  Plain squared-error regression is the
special case ``g = -y, h = 1, lam = 0``.

The split search is vectorized over features but exact: it returns the
same ``(feature, bin)`` as a per-feature loop, bit for bit.  Offsetting
each code by ``feature * n_bins`` lets one ``bincount`` per statistic fill
every feature's histogram, and each bin still sums its rows' weights in
ascending row order; ``cumsum(axis=1)`` accumulates each feature's bins
sequentially, so the prefix sums and element-wise gains are the same
floats; and the first maximum of a row-major ``argmax`` is the first
feature, first bin tie-break.  LightGBM's histogram subtraction (a
child's histogram as parent minus sibling) is deliberately not used: the
difference of two sums is not the sum over the child's rows in floating
point, so it would change trees and every pinned digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import check_array
from repro.utils.errors import NotFittedError, ValidationError
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["FeatureBinner", "GradHessTree"]

#: Most (row, feature) histogram-index elements one pass of the split
#: search handles; bounds the flat index and the tiled weights to a few
#: MiB however many rows a node holds.
_BLOCK_ELEMENTS = 1 << 18


class FeatureBinner:
    """Quantile-based feature quantizer shared by trees in one ensemble."""

    def __init__(self, n_bins: int = 64) -> None:
        if not 2 <= n_bins <= 256:
            raise ValidationError(f"n_bins must be in [2, 256], got {n_bins}")
        self.n_bins = int(n_bins)
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "FeatureBinner":
        """Compute per-feature bin edges from (a subsample of) ``X``."""
        X = check_array(X)
        sample = X
        if X.shape[0] > 100_000:
            step = X.shape[0] // 100_000 + 1
            sample = X[::step]
        quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        edges = []
        for j in range(X.shape[1]):
            col_edges = np.unique(np.quantile(sample[:, j], quantiles))
            edges.append(col_edges)
        self.edges_ = edges
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map ``X`` to uint8 bin codes, one column per feature."""
        if self.edges_ is None:
            raise NotFittedError("FeatureBinner is not fitted")
        X = check_array(X)
        if X.shape[1] != len(self.edges_):
            raise ValidationError(
                f"expected {len(self.edges_)} features, got {X.shape[1]}"
            )
        codes = np.empty(X.shape, dtype=np.uint8)
        for j, col_edges in enumerate(self.edges_):
            codes[:, j] = np.searchsorted(col_edges, X[:, j], side="right")
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return its bin codes."""
        return self.fit(X).transform(X)


@dataclass
class _TreeArrays:
    """Flat array representation of a fitted tree."""

    feature: list[int] = field(default_factory=list)
    bin_threshold: list[int] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_node(self) -> int:
        self.feature.append(-1)
        self.bin_threshold.append(-1)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def as_numpy(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Export node lists as typed arrays for ensemble flattening.

        Returns ``(feature, bin_threshold, left, right, value)`` with
        int32 structure arrays and float64 values — the dtypes
        :mod:`repro.ml.kernels` traverses.
        """
        return (
            np.asarray(self.feature, dtype=np.int32),
            np.asarray(self.bin_threshold, dtype=np.int32),
            np.asarray(self.left, dtype=np.int32),
            np.asarray(self.right, dtype=np.int32),
            np.asarray(self.value, dtype=np.float64),
        )


class GradHessTree:
    """One regression tree fit to gradients/hessians on binned features."""

    def __init__(
        self,
        *,
        max_depth: int = 4,
        min_samples_leaf: int = 20,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-7,
    ) -> None:
        self.max_depth = int(check_positive(max_depth, "max_depth"))
        self.min_samples_leaf = int(check_positive(min_samples_leaf, "min_samples_leaf"))
        self.reg_lambda = check_nonnegative(reg_lambda, "reg_lambda")
        self.min_gain = check_nonnegative(min_gain, "min_gain")
        self._arrays: _TreeArrays | None = None
        self._n_bins: int = 0

    @property
    def n_nodes(self) -> int:
        """Number of nodes (internal + leaves) in the fitted tree."""
        if self._arrays is None:
            raise NotFittedError("tree is not fitted")
        return len(self._arrays.feature)

    @property
    def arrays(self) -> _TreeArrays:
        """The fitted node arrays (for ensemble flattening)."""
        if self._arrays is None:
            raise NotFittedError("tree is not fitted")
        return self._arrays

    def fit(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        *,
        n_bins: int,
    ) -> "GradHessTree":
        """Grow the tree on bin codes ``binned`` and per-sample grad/hess."""
        if binned.dtype != np.uint8 or binned.ndim != 2:
            raise ValidationError("binned matrix must be 2-D uint8 bin codes")
        # The split search offsets codes into one flat histogram index, so
        # an out-of-range code would silently land in the next feature.
        if binned.size and int(binned.max()) >= n_bins:
            raise ValidationError(
                f"bin codes must be < n_bins={n_bins}, got {int(binned.max())}"
            )
        for name, values in (("grad", grad), ("hess", hess)):
            if np.ndim(values) != 1 or len(values) != binned.shape[0]:
                raise ValidationError(
                    f"{name} must be 1-D with {binned.shape[0]} entries, "
                    f"got shape {np.shape(values)}"
                )
        self._n_bins = int(n_bins)
        self._arrays = _TreeArrays()
        root = self._arrays.add_node()
        indices = np.arange(binned.shape[0])
        self._grow(binned, grad, hess, indices, node=root, depth=0)
        return self

    def _leaf_value(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + self.reg_lambda)

    def _grow(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        indices: np.ndarray,
        *,
        node: int,
        depth: int,
    ) -> None:
        assert self._arrays is not None
        g = grad[indices]
        h = hess[indices]
        g_sum = float(g.sum())
        h_sum = float(h.sum())
        self._arrays.value[node] = self._leaf_value(g_sum, h_sum)
        if depth >= self.max_depth or indices.size < 2 * self.min_samples_leaf:
            return
        best = self._best_split(binned, indices, g, h, g_sum, h_sum)
        if best is None:
            return
        feature, bin_threshold = best
        go_left = binned[indices, feature] <= bin_threshold
        left_idx = indices[go_left]
        right_idx = indices[~go_left]
        if left_idx.size < self.min_samples_leaf or right_idx.size < self.min_samples_leaf:
            return
        left = self._arrays.add_node()
        right = self._arrays.add_node()
        self._arrays.feature[node] = feature
        self._arrays.bin_threshold[node] = bin_threshold
        self._arrays.left[node] = left
        self._arrays.right[node] = right
        self._grow(binned, grad, hess, left_idx, node=left, depth=depth + 1)
        self._grow(binned, grad, hess, right_idx, node=right, depth=depth + 1)

    def _best_split(
        self,
        binned: np.ndarray,
        indices: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        g_sum: float,
        h_sum: float,
    ) -> tuple[int, int] | None:
        """Best ``(feature, bin)`` split of the node's rows, or ``None``.

        Searches a block of features per pass: each code is offset by
        ``feature * n_bins`` into one flat index, so one weighted
        ``bincount`` builds every ``g`` histogram of the block, one builds
        every ``h`` histogram and one unweighted ``bincount`` builds the
        counts.  The result is bit-identical to searching one feature at a
        time: each bin sums its rows' weights in ascending row order,
        ``cumsum(axis=1)`` accumulates each feature sequentially, and the
        row-major ``argmax`` (strict ``>`` across blocks) returns the first
        feature, first bin of the maximum gain.  Every histogram is built
        from the node's own rows; deriving one child's as parent minus
        sibling (histogram subtraction) would round differently and so
        would not be bit-identical.
        """
        n_bins = self._n_bins
        if n_bins < 2:
            return None
        lam = self.reg_lambda
        parent_score = g_sum**2 / (h_sum + lam)
        best_gain = self.min_gain
        best: tuple[int, int] | None = None
        rows = binned[indices]
        block = max(1, _BLOCK_ELEMENTS // indices.size)
        for start in range(0, binned.shape[1], block):
            codes = rows[:, start : start + block]
            k = codes.shape[1]
            # Row-major flat index: row i, feature j -> j * n_bins + code.
            flat = (codes + np.arange(0, k * n_bins, n_bins)).ravel()
            g_hist = np.bincount(flat, weights=np.repeat(g, k), minlength=k * n_bins)
            h_hist = np.bincount(flat, weights=np.repeat(h, k), minlength=k * n_bins)
            n_hist = np.bincount(flat, minlength=k * n_bins)
            gl = np.cumsum(g_hist.reshape(k, n_bins), axis=1)[:, :-1]
            hl = np.cumsum(h_hist.reshape(k, n_bins), axis=1)[:, :-1]
            nl = np.cumsum(n_hist.reshape(k, n_bins), axis=1)[:, :-1]
            gr = g_sum - gl
            hr = h_sum - hl
            nr = indices.size - nl
            valid = (nl >= self.min_samples_leaf) & (nr >= self.min_samples_leaf)
            # With lam == 0 an empty side has hl/hr == 0; those candidates
            # are masked out below, so silence the harmless 0/0.
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent_score
            gains[~valid | ~np.isfinite(gains)] = -np.inf
            position = int(np.argmax(gains))
            gain = gains.flat[position]
            if gain > best_gain:
                best_gain = float(gain)
                feature, bin_threshold = divmod(position, n_bins - 1)
                best = (start + feature, bin_threshold)
        return best

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Predict from bin codes via vectorized frontier traversal."""
        if self._arrays is None:
            raise NotFittedError("tree is not fitted")
        arrays = self._arrays
        feature = np.asarray(arrays.feature)
        threshold = np.asarray(arrays.bin_threshold)
        left = np.asarray(arrays.left)
        right = np.asarray(arrays.right)
        value = np.asarray(arrays.value)
        position = np.zeros(binned.shape[0], dtype=int)
        # Each pass advances every sample one level; tree depth bounds passes.
        for _ in range(self.max_depth + 1):
            at_internal = feature[position] >= 0
            if not at_internal.any():
                break
            idx = np.nonzero(at_internal)[0]
            pos = position[idx]
            codes = binned[idx, feature[pos]]
            go_left = codes <= threshold[pos]
            position[idx] = np.where(go_left, left[pos], right[pos])
        return value[position]
