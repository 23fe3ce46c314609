"""The vectorized split search returns exactly what the per-feature loop does.

``GradHessTree._best_split`` builds the histograms of a block of features
with one flat ``bincount`` per statistic.  Its contract is bit-identity
with the per-feature loop kept in ``_split_oracle.py``: the same
``(feature, bin)`` as Python ints, or ``None``, on every node — including
gain ties across and within features, nodes with no valid split, and
nodes whose features span several blocks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.ml.tree as tree_module
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import GradHessTree
from tests.ml._split_oracle import per_feature_best_split

node_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n_bins": st.integers(2, 256),
        "n_rows": st.integers(1, 300),
        "n_features": st.integers(1, 40),
        "min_samples_leaf": st.integers(1, 40),
        # "regression" is least-squares regression: g = -y, h = 1, lam = 0.
        "stats": st.sampled_from(["newton", "regression", "integer", "decimal"]),
        "reg_lambda": st.sampled_from([0.0, 1e-3, 1.0, 7.5]),
        # "distinct" puts every row of a node in its own bin.
        "codes": st.sampled_from(["uniform", "few", "distinct"]),
        "copies": st.sampled_from(["none", "duplicate", "mirror"]),
        "subset": st.booleans(),
        # Rows x features per block; small values force many blocks.
        "block": st.integers(1, 4000),
    }
)


def _node(params):
    """Build one node's inputs: bin codes, row indices and grad/hess."""
    rng = np.random.default_rng(params["seed"])
    n, d, n_bins = params["n_rows"], params["n_features"], params["n_bins"]
    if params["codes"] == "few":
        binned = rng.integers(0, min(n_bins, 3), size=(n, d))
    elif params["codes"] == "distinct" and n <= n_bins:
        binned = np.column_stack([rng.permutation(n_bins)[:n] for _ in range(d)])
    else:
        binned = rng.integers(0, n_bins, size=(n, d))
    binned = binned.astype(np.uint8)
    if params["copies"] != "none" and d > 1:
        # A copied column gives identical gains: an exact cross-feature tie.
        # A mirrored one (codes reversed) splits the same rows with the
        # sides swapped: its gains tie in exact arithmetic but sum other
        # rows first, so which one wins is decided by rounding.
        copies = binned[:, rng.integers(0, d, size=d // 2)]
        if params["copies"] == "mirror":
            copies = n_bins - 1 - copies
        binned[:, d - copies.shape[1] :] = copies
    if params["stats"] == "newton":
        grad = rng.normal(size=n)
        hess = rng.uniform(0.01, 1.0, size=n)
        lam = params["reg_lambda"]
    elif params["stats"] == "regression":
        grad = -rng.normal(size=n)
        hess = np.ones(n)
        lam = 0.0
    elif params["stats"] == "integer":
        # Small integers make equal gains across bins and features likely.
        grad = rng.integers(-2, 3, size=n).astype(float)
        hess = np.ones(n)
        lam = params["reg_lambda"]
    else:
        # Tenths are inexact in binary: gains that tie in exact arithmetic
        # differ by rounding, so any change in summation order shows.
        grad = rng.integers(-3, 4, size=n) / 10
        hess = rng.integers(1, 4, size=n) / 10
        lam = params["reg_lambda"]
    indices = np.arange(n)
    if params["subset"] and n > 1:
        indices = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    return binned, indices, grad, hess, lam


def _both_searches(tree, binned, indices, grad, hess, block):
    g, h = grad[indices], hess[indices]
    args = (binned, indices, g, h, float(g.sum()), float(h.sum()))
    with mock.patch.object(tree_module, "_BLOCK_ELEMENTS", block):
        got = tree._best_split(*args)
    return got, per_feature_best_split(tree, *args)


def _tree(n_bins, *, min_samples_leaf, reg_lambda):
    tree = GradHessTree(min_samples_leaf=min_samples_leaf, reg_lambda=reg_lambda)
    tree._n_bins = n_bins
    return tree


def _assert_same_split(got, expected):
    assert got == expected
    if got is not None:
        assert [type(v) for v in got] == [int, int]


class TestSplitSearchMatchesOracle:
    @given(params=node_params)
    def test_vectorized_search_equals_per_feature_loop(self, params):
        binned, indices, grad, hess, lam = _node(params)
        tree = _tree(
            params["n_bins"],
            min_samples_leaf=params["min_samples_leaf"],
            reg_lambda=lam,
        )
        got, expected = _both_searches(tree, binned, indices, grad, hess, params["block"])
        _assert_same_split(got, expected)

    def test_cross_feature_tie_keeps_the_first_feature(self):
        rng = np.random.default_rng(3)
        column = rng.integers(0, 8, size=60)
        binned = np.column_stack([column // 8, column, column]).astype(np.uint8)
        grad = np.where(column < 4, -1.0, 1.0)
        tree = _tree(8, min_samples_leaf=1, reg_lambda=1.0)
        got, expected = _both_searches(
            tree, binned, np.arange(60), grad, np.ones(60), block=60
        )
        _assert_same_split(got, expected)
        assert got == (1, 3)  # feature 2 ties feature 1, in another block

    def test_within_feature_tie_keeps_the_first_bin(self):
        # Bins 2..5 are empty, so thresholds 1..5 give the same gain.
        codes = np.array([0, 1] * 10 + [6, 7] * 10, dtype=np.uint8)
        grad = np.where(codes < 4, -1.0, 1.0)
        tree = _tree(8, min_samples_leaf=1, reg_lambda=1.0)
        got, expected = _both_searches(
            tree, codes.reshape(-1, 1), np.arange(40), grad, np.ones(40), block=1 << 18
        )
        _assert_same_split(got, expected)
        assert got == (0, 1)

    @pytest.mark.parametrize(
        "binned, min_samples_leaf, reg_lambda, block",
        [
            # Too few rows for two leaves of 6.
            (np.arange(10, dtype=np.uint8).reshape(-1, 1) % 4, 6, 1.0, 1 << 18),
            # Constant features: every candidate leaves one side empty
            # (0/0 with lam == 0), over several blocks.
            (np.full((30, 5), 2, dtype=np.uint8), 1, 0.0, 70),
        ],
    )
    def test_no_valid_split_returns_none(self, binned, min_samples_leaf, reg_lambda, block):
        n = binned.shape[0]
        tree = _tree(4, min_samples_leaf=min_samples_leaf, reg_lambda=reg_lambda)
        got, expected = _both_searches(
            tree, binned, np.arange(n), np.linspace(-1, 1, n), np.ones(n), block
        )
        assert got is None and expected is None

    def test_rounding_decided_ties_follow_the_oracle(self):
        """Where only rounding separates two gains, the same one wins.

        Mirrored low-cardinality columns make such ties common.  The sweep
        is only evidence if summing each bin's rows in another order picks
        another split on some of its nodes, so that is checked too.
        """
        order_sensitive = 0
        for seed in range(50):
            params = {
                "seed": seed, "n_bins": 8, "n_rows": 200, "n_features": 30,
                "min_samples_leaf": 5, "stats": "newton", "reg_lambda": 1.0,
                "codes": "few", "copies": "mirror", "subset": False,
            }
            binned, indices, grad, hess, lam = _node(params)
            tree = _tree(8, min_samples_leaf=5, reg_lambda=lam)
            got, expected = _both_searches(tree, binned, indices, grad, hess, block=1400)
            _assert_same_split(got, expected)
            g_sum, h_sum = float(grad.sum()), float(hess.sum())
            backwards = indices[::-1]
            reordered = per_feature_best_split(
                tree, binned, backwards, grad[backwards], hess[backwards], g_sum, h_sum
            )
            order_sensitive += reordered != expected
        assert order_sensitive > 0

    def test_one_bin_grows_a_single_leaf(self):
        tree = GradHessTree(min_samples_leaf=1).fit(
            np.zeros((6, 3), dtype=np.uint8), np.arange(6.0), np.ones(6), n_bins=1
        )
        assert tree.n_nodes == 1

    @pytest.mark.parametrize("block", [1, 29, 30, 31, 89, 90, 91, 1 << 18])
    def test_blocks_that_do_not_divide_the_features(self, block):
        rng = np.random.default_rng(block)
        binned = rng.integers(0, 16, size=(30, 11)).astype(np.uint8)
        grad = rng.normal(size=30)
        tree = _tree(16, min_samples_leaf=2, reg_lambda=1.0)
        got, expected = _both_searches(
            tree, binned, np.arange(30), grad, rng.uniform(0.1, 1.0, 30), block
        )
        assert expected is not None
        _assert_same_split(got, expected)


def _boosting_data():
    rng = np.random.default_rng(11)
    n = 1500
    X = np.column_stack(
        [
            rng.normal(size=n),
            rng.integers(0, 3, size=n),  # low-cardinality, like count features
            rng.exponential(size=n),
            np.zeros(n),  # constant
            rng.integers(0, 2, size=n),
        ]
        + [rng.normal(size=n) for _ in range(7)]
    )
    logits = 1.5 * X[:, 0] - X[:, 1] + 0.8 * X[:, 4] + rng.normal(size=n)
    return X, (logits > 1.0).astype(int)


class TestBoostingMatchesOracle:
    @pytest.mark.parametrize("block", [1 << 18, 2000])
    def test_gbdt_fit_is_bit_identical(self, monkeypatch, block):
        X, y = _boosting_data()
        params = dict(n_estimators=25, max_depth=4, min_samples_leaf=10, random_state=5)
        monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", block)
        fast = GradientBoostingClassifier(**params).fit(X, y)
        with monkeypatch.context() as patched:
            patched.setattr(GradHessTree, "_best_split", per_feature_best_split)
            slow = GradientBoostingClassifier(**params).fit(X, y)
        assert fast.n_estimators_ == slow.n_estimators_ > 0
        assert [t.arrays for t in fast._trees] == [t.arrays for t in slow._trees]
        assert fast.decision_function(X).tobytes() == slow.decision_function(X).tobytes()
