"""Property tests: vectorized kernels against the loops they replaced, and
the CSV readers on drawn matrices."""

import os
import subprocess
import sys
import threading
import time
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from streamsift import (
    BootstrapForest,
    DataFormatError,
    DegenerateEvidenceError,
    DirichletHistogramClassifier,
    DropoutMLP,
    FiniteHypothesisModel,
    GridLookupError,
    LabelledExample,
    PredictiveEnsemble,
    TargetSet,
    ValidationError,
    acquisition,
    load_csv,
    prob,
    reweight_ensemble,
    runner,
    save_csv,
)
from streamsift.acquisition import epig_scores, la_epig_scores, mic_scores, rho_loss_scores
from streamsift.demo import cell_centers
from streamsift.models import forest
from streamsift.models.base import Model, add_one_in
from streamsift.models.finite import GRID_ATOL
from streamsift.prob import SUM_ATOL, ZERO_EPS, entropy_of_array
from streamsift.rng import rng_from
from streamsift.streams import load_features_csv

OFFSETS = (0.0, 0.5 * GRID_ATOL, -0.5 * GRID_ATOL, GRID_ATOL, -GRID_ATOL,
           2 * GRID_ATOL, -2 * GRID_ATOL)


# --- reference implementations ---------------------------------------------


def scan_index(grid, x):
    """The per-input linear scan: lowest row within GRID_ATOL, else -1."""
    hits = np.flatnonzero(np.all(np.abs(grid - x) <= GRID_ATOL, axis=1))
    return int(hits[0]) if hits.size else -1


def loop_fit(model, examples):
    """Sequential exact Bayes with one scan per example."""
    w = model.prior.copy()
    for ex in examples:
        w = w * model.tables[:, scan_index(model.grid, ex.features), ex.label]
        w = w / w.sum()
    return w


def einsum_la_epig(model, X, y, targets):
    """LA-EPIG with the posterior predictive contracted by einsum."""
    cond_x, w = model.conditionals(X), model.sample_weights
    cond_t = model.conditionals(targets.inputs)
    h_prior = entropy_of_array(np.einsum("k,mkc->mc", w, cond_t)).mean()
    lik = cond_x[np.arange(len(y)), :, y]
    evidence = lik @ w
    ok = evidence > 0.0
    w_post = np.zeros_like(lik)
    w_post[ok] = (w * lik[ok]) / evidence[ok, None]
    updated = np.einsum("nk,mkc->nmc", w_post, cond_t)
    scores = h_prior - entropy_of_array(updated).mean(axis=1)
    scores[~ok] = np.nan
    return scores


def old_la_epig_scores(model, X, y, targets):
    """LA-EPIG with its add-one-in update written inline."""
    cond_x, w = model.conditionals(X), model.sample_weights
    y = np.asarray(y, dtype=int)
    cond_t = model.conditionals(targets.inputs)
    h_prior = entropy_of_array(np.einsum("k,mkc->mc", w, cond_t)).mean()
    lik = cond_x[np.arange(len(y)), :, y]
    evidence = lik @ w
    ok = evidence > 0.0
    w_post = np.zeros_like(lik)
    w_post[ok] = (w * lik[ok]) / evidence[ok, None]
    M, K, C = cond_t.shape
    updated = (w_post @ cond_t.transpose(1, 0, 2).reshape(K, M * C)).reshape(-1, M, C)
    scores = h_prior - entropy_of_array(updated).mean(axis=1)
    scores[~ok] = np.nan
    return scores


def loop_dirichlet_mic(model, X, y, eta):
    """Dirichlet MIC from two exact predictives per candidate row."""
    X = np.asarray(X, dtype=float)
    prior_mass = np.array([model.exact_posterior_predictive(x)[c] for x, c in zip(X, y)])
    post_mass = np.array([model.exact_updated_predictive(x, c)[c] for x, c in zip(X, y)])
    scores = np.full(len(y), np.nan)
    ok = prior_mass > 0.0
    scores[ok] = -np.log(prior_mass[ok]) + eta * np.log(post_mass[ok])
    return scores


def old_mic_scores(model, X, y, eta=1.0):
    """Sample-based MIC over the whole pool's conditionals at once."""
    cond_x, w = model.conditionals(X), model.sample_weights
    lik = cond_x[np.arange(len(y)), :, y]
    prior_mass = lik @ w
    ok = prior_mass > 0.0
    post_mass = np.zeros_like(prior_mass)
    post_mass[ok] = ((lik[ok] ** 2) @ w) / prior_mass[ok]
    scores = np.full(len(y), np.nan)
    scores[ok] = -np.log(prior_mass[ok]) + eta * np.log(post_mass[ok])
    return scores


def old_entropy_of_array(p, axis=-1):
    """Entropy with separate ``where``, ``log`` and product temporaries."""
    p = np.asarray(p, dtype=float)
    logp = np.log(np.where(p > ZERO_EPS, p, 1.0))
    return -(p * logp).sum(axis=axis)


def old_mutual_information_of_array(joint):
    """MI with H(joint) over one reshape of the whole stack."""
    j = np.asarray(joint, dtype=float)
    h_rows = old_entropy_of_array(j.sum(axis=-1))
    h_cols = old_entropy_of_array(j.sum(axis=-2))
    h_joint = old_entropy_of_array(j.reshape(j.shape[:-2] + (-1,)))
    mi = h_rows + h_cols - h_joint
    if np.any(mi < -SUM_ATOL):
        raise ValidationError(f"mutual information below -{SUM_ATOL}: min={mi.min()}")
    return np.maximum(mi, 0.0)


def old_epig_scores(model, X, targets):
    cond_x, w = model.conditionals(X), model.sample_weights
    cond_t = model.conditionals(targets.inputs)
    joint = np.einsum("nkc,mkd,k->nmcd", cond_x, cond_t, w, optimize=True)
    # the mean over the targets in C order, as the kernel takes it: einsum can
    # return a joint whose candidate axis is the fastest (at K=2, say), and a
    # mean over that layout adds the targets in another order
    return np.ascontiguousarray(old_mutual_information_of_array(joint)).mean(axis=1)


def _old_gini(counts):
    """Gini impurity of rows of class counts, shape (..., C)."""
    n = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(n > 0, counts / np.maximum(n, 1), 0.0)
    return 1.0 - (p * p).sum(axis=-1)


def _presort_gini(counts, n):
    """Gini impurity of rows of class counts, shape (V, C), with row totals n."""
    p = counts / n[:, None]
    return 1.0 - (p * p).sum(axis=-1)


class PresortTree:
    """Per-node growth on presorted columns: a tree argsorts its rows once per
    feature (stably) and hands each child the parent's orders filtered to the
    child's rows; each node searches its own (feature, position) cells."""

    def __init__(self, num_classes, max_depth, min_leaf, beta):
        self.num_classes = num_classes
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.beta = beta

    def _leaf_dist(self, y):
        counts = np.bincount(y, minlength=self.num_classes).astype(float)
        return (counts + self.beta) / (len(y) + self.beta * self.num_classes)

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.dist.append(None)
        return len(self.feature) - 1

    def _finish(self):
        self.feature = np.array(self.feature)
        self.threshold = np.array(self.threshold)
        self.left = np.array(self.left)
        self.right = np.array(self.right)
        self.dist = np.stack([d if d is not None else np.zeros(self.num_classes)
                              for d in self.dist])
        return self

    def _best_split(self, XT, y, order):
        n = order.shape[1]
        pos = np.arange(self.min_leaf, n - self.min_leaf + 1)
        if pos.size == 0:
            return None
        xs = np.take_along_axis(XT, order, axis=1)  # (d, n)
        valid = xs[:, pos] > xs[:, pos - 1]  # (d, P)
        feats = np.flatnonzero(valid.any(axis=1))
        if feats.size == 0:
            return None
        fi, pi = np.nonzero(valid[feats])
        labels = y[order[feats]]  # (d', n)
        left = np.cumsum(labels[..., None] == np.arange(self.num_classes),
                         axis=1, dtype=np.int32)  # (d', n, C)
        split = pos[pi]
        lc = left[fi, split - 1]  # (V, C)
        rc = left[fi, -1] - lc
        nl = split.astype(float)
        score = (nl * _presort_gini(lc, nl) + (n - nl) * _presort_gini(rc, n - nl)) / n
        i = int(np.argmin(score))
        feat, at = feats[fi[i]], split[i]
        lo, hi = float(xs[feat, at - 1]), float(xs[feat, at])
        mid = 0.5 * (lo + hi)  # Python floats: an overflow is inf, no warning
        return int(feat), mid if lo <= mid < hi else lo

    def fit(self, X, y):
        self.feature, self.threshold = [], []
        self.left, self.right, self.dist = [], [], []
        XT = np.ascontiguousarray(X.T)
        order = np.argsort(XT, axis=1, kind="stable")
        self._grow(XT, y, np.arange(len(y)), order, depth=0)
        return self._finish()

    def _grow(self, XT, y, rows, order, depth):
        node = self._new_node()
        y_node = y[rows]
        pure = np.all(y_node == y_node[0])
        if depth >= self.max_depth or pure or len(rows) < 2 * self.min_leaf:
            self.dist[node] = self._leaf_dist(y_node)
            return node
        split = self._best_split(XT, y, order)
        if split is None:
            self.dist[node] = self._leaf_dist(y_node)
            return node
        feat, thr = split
        go_left = XT[feat] <= thr
        in_left = go_left[order]
        d = len(order)
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self._grow(XT, y, rows[go_left[rows]],
                                     order[in_left].reshape(d, -1), depth + 1)
        self.right[node] = self._grow(XT, y, rows[~go_left[rows]],
                                      order[~in_left].reshape(d, -1), depth + 1)
        return node


class OldTree(PresortTree):
    """The split search that sorts at every node and scores every
    (position, feature) cell from a float one-hot cumsum."""

    def _best_split(self, X, y):
        n, d = X.shape
        pos = np.arange(self.min_leaf, n - self.min_leaf + 1)
        if pos.size == 0:
            return None
        onehot = np.zeros((n, self.num_classes))
        onehot[np.arange(n), y] = 1.0
        order = np.argsort(X, axis=0, kind="stable")  # (n, d)
        xs = np.take_along_axis(X, order, axis=0)
        left = np.cumsum(onehot[order], axis=0)  # (n, d, C)
        total = left[-1]
        valid = xs[pos] > xs[pos - 1]  # (P, d)
        if not valid.any():
            return None
        lc = left[pos - 1]  # (P, d, C)
        rc = total[None, :, :] - lc
        nl = pos.astype(float)[:, None]
        score = (nl * _old_gini(lc) + (n - nl) * _old_gini(rc)) / n  # (P, d)
        score[~valid] = np.inf
        flat = int(np.argmin(score.T))
        feat, i = divmod(flat, score.shape[0])
        return (
            float(score[i, feat]),
            int(feat),
            0.5 * (xs[pos[i] - 1, feat] + xs[pos[i], feat]),
        )

    def fit(self, X, y):
        self.feature, self.threshold = [], []
        self.left, self.right, self.dist = [], [], []
        self._grow(X, y, depth=0)
        return self._finish()

    def _grow(self, X, y, depth):
        node = self._new_node()
        pure = np.all(y == y[0])
        if depth >= self.max_depth or pure or len(y) < 2 * self.min_leaf:
            self.dist[node] = self._leaf_dist(y)
            return node
        split = self._best_split(X, y)
        if split is None:
            self.dist[node] = self._leaf_dist(y)
            return node
        _, feat, thr = split
        mask = X[:, feat] <= thr
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self._grow(X[mask], y[mask], depth + 1)
        self.right[node] = self._grow(X[~mask], y[~mask], depth + 1)
        return node


def predict_dist(tree, X):
    """One tree's leaf class distributions for a batch, shape (N, C): the
    per-tree walk that ``BootstrapForest.conditionals`` ran once per tree."""
    node = np.zeros(len(X), dtype=int)
    active = tree.feature[node] >= 0
    while np.any(active):
        idx = node[active]
        go_left = X[active, tree.feature[idx]] <= tree.threshold[idx]
        node[active] = np.where(go_left, tree.left[idx], tree.right[idx])
        active = tree.feature[node] >= 0
    return tree.dist[node]


# --- grid lookup ---------------------------------------------------------------


def uniform_model(grid):
    grid = np.asarray(grid, dtype=float)
    return FiniteHypothesisModel(grid, np.full((1, grid.shape[0], 2), 0.5))


def check_lookup(grid, X):
    model = uniform_model(grid)
    X = np.asarray(X, dtype=float).reshape(-1, model.grid.shape[1])
    expected = [scan_index(model.grid, x) for x in X]
    for x, g in zip(X, expected):
        if g >= 0:
            assert model.grid_indices([x]).tolist() == [g]
    if -1 in expected:
        first = X[expected.index(-1)]
        with pytest.raises(GridLookupError) as err:
            model.conditionals(X)
        assert str(err.value) == f"input {first.tolist()} is not on the model grid"
    else:
        assert model.grid_indices(X).tolist() == expected
        assert np.array_equal(
            model.conditionals(X), model.tables[:, expected, :].transpose(1, 0, 2)
        )


@st.composite
def grids_and_inputs(draw):
    G = draw(st.integers(1, 10))
    D = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 0.1, 1e6, 2.0**23]))
    base = draw(st.lists(st.integers(-2, 2), min_size=G * D, max_size=G * D))
    offsets = draw(st.lists(st.sampled_from(OFFSETS), min_size=G * D, max_size=G * D))
    grid = scale * np.array(base, dtype=float).reshape(G, D)
    grid = grid + np.array(offsets).reshape(G, D)
    if draw(st.booleans()):
        grid[:, 0] = grid[0, 0]
    X = []
    for _ in range(draw(st.integers(0, 8))):
        x = grid[draw(st.integers(0, G - 1))].copy()
        x[draw(st.integers(0, D - 1))] += draw(st.sampled_from(OFFSETS + (0.25,)))
        X.append(x)
    return grid, np.array(X).reshape(-1, D)


class TestGridLookup:
    @settings(max_examples=300, deadline=None)
    @given(grids_and_inputs())
    def test_matches_linear_scan(self, case):
        check_lookup(*case)

    def test_rows_within_tolerance_of_one_another(self):
        grid = [[1.0 + 0.6 * GRID_ATOL, 0.0], [1.0, 0.0], [1.0 - 0.6 * GRID_ATOL, 0.0]]
        check_lookup(grid, [[1.0, 0.0], [1.0 - GRID_ATOL, 0.0], [1.0 + GRID_ATOL, 0.0]])

    def test_half_tolerance_hits_twice_tolerance_misses(self):
        grid = [[0.0, 0.0], [1.0, 2.0]]
        hit = [[1.0 + 0.5 * GRID_ATOL, 2.0], [1.0, 2.0 - 0.5 * GRID_ATOL]]
        check_lookup(grid, hit)
        check_lookup(grid, hit + [[1.0, 2.0 + 2 * GRID_ATOL], [1.0 + 2 * GRID_ATOL, 2.0]])

    def test_one_dimensional_grid(self):
        check_lookup(np.arange(5.0), [3.0, 0.0, 4.0 - 0.5 * GRID_ATOL, 2.5])

    def test_constant_sort_coordinate(self):
        grid = np.column_stack([np.zeros(600), np.arange(600.0) % 300])
        X = np.column_stack([np.zeros(700), np.arange(700.0) % 350])
        check_lookup(grid, X[:300])
        check_lookup(grid, X)

    def test_three_coordinates(self):
        grid = [[0.0, 1.0, 2.0], [0.0, 1.0, 3.0], [0.0, 2.0, 2.0], [1.0, 1.0, 2.0]]
        hit = [[0.0, 1.0, 3.0 - 0.5 * GRID_ATOL], [0.0, 2.0 + GRID_ATOL, 2.0],
               [1.0 - 0.5 * GRID_ATOL, 1.0, 2.0], [0.0, 1.0, 2.0]]
        check_lookup(grid, hit)
        # misses on the third coordinate alone, then on the second alone
        check_lookup(grid, hit + [[0.0, 1.0, 2.0 + 2 * GRID_ATOL], [0.0, 2.5, 2.0]])
        check_lookup(grid, hit + [[0.0, 2.0 - 2 * GRID_ATOL, 2.0]])

    def test_demo_cell_windows(self):
        """The 64 x 64 demo grid: each first coordinate is shared by a whole
        column of 64 rows, so every input's window holds 64 candidates."""
        grid = cell_centers(-5.0, 5.0, -5.0, 5.0, 64)
        rng = np.random.default_rng(4)
        X = grid[rng.integers(0, len(grid), size=400)]
        check_lookup(grid, X + rng.choice(OFFSETS[:3], size=X.shape))
        check_lookup(grid, X + rng.choice(OFFSETS, size=X.shape))

    def test_no_inputs(self):
        check_lookup([[0.0, 1.0]], np.zeros((0, 2)))
        assert uniform_model([[0.0, 1.0]]).conditionals(np.zeros((0, 2))).shape == (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_fit_matches_per_example_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        G, J, C = 6, int(rng.integers(1, 6)), int(rng.integers(2, 5))
        grid = rng.integers(-2, 3, size=(G, 2)).astype(float)
        model = FiniteHypothesisModel(
            grid, rng.dirichlet(np.ones(C), size=(J, G)), rng.dirichlet(np.ones(J))
        )
        rows = rng.integers(0, G, size=n)
        X = grid[rows] + rng.choice(OFFSETS[:3], size=(n, 2))
        examples = [LabelledExample(x, int(c)) for x, c in zip(X, rng.integers(0, C, n))]
        assert np.array_equal(model.fit(examples).posterior, loop_fit(model, examples))

    def test_fit_names_first_off_grid_example(self):
        model = uniform_model([[0.0], [1.0]])
        examples = [LabelledExample([x], 0) for x in (1.0, 0.5, 3.0)]
        with pytest.raises(GridLookupError, match=r"input \[0\.5\] is not"):
            model.fit(examples)


# --- probability-table check ----------------------------------------------------


class TestCheckProbs:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 5), min_size=1, max_size=3),
           st.data())
    def test_axis_sums_match_numpy(self, seed, shape, data):
        """Along any axis and in either memory order, ``check_probs`` raises
        for the arrays whose numpy sums are off by more than SUM_ATOL. The
        entries are nudged by multiples of SUM_ATOL; sums within a few ulps
        of the tolerance may round either way, so they are left out."""
        axis = data.draw(st.sampled_from([None, *range(len(shape))]))
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.1, 1.0, size=shape)
        p /= p.sum(axis=axis, keepdims=axis is not None)
        nudge = rng.choice([0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 3.0], size=shape)
        p += np.where(rng.uniform(size=shape) < 0.2, nudge, 0.0) * SUM_ATOL
        p = np.asarray(p, order=data.draw(st.sampled_from(["C", "F"])))
        off = np.abs(p.sum(axis=axis) - 1.0)
        assume(not np.any(np.abs(off - SUM_ATOL) < 64 * np.finfo(float).eps))
        if np.any(off > SUM_ATOL):
            with pytest.raises(ValidationError, match="must sum to 1"):
                prob.check_probs(p, "x", axis=axis)
        else:
            prob.check_probs(p, "x", axis=axis)


# --- LA-EPIG -----------------------------------------------------------------


def random_ensemble(rng, J, C, G):
    """Non-uniform weights, some zero; class 1 impossible at grid row 0."""
    tables = rng.dirichlet(np.ones(C), size=(J, G))
    tables[rng.uniform(size=tables.shape) < 0.2] = 0.0
    tables[:, 0, 1] = 0.0
    tables[:, :, 0] += tables.sum(axis=2) == 0.0
    tables /= tables.sum(axis=2, keepdims=True)
    prior = rng.dirichlet(np.ones(J))
    prior[rng.uniform(size=J) < 0.3] = 0.0
    prior[0] += prior.sum() == 0.0
    model = FiniteHypothesisModel(np.arange(float(G)), tables, prior / prior.sum())
    targets = TargetSet(rng.integers(0, G, size=int(rng.integers(1, 6))).astype(float))
    return model, targets


class TestLAEpigKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 5))
    def test_matches_einsum_path(self, seed, J, C):
        rng = np.random.default_rng(seed)
        G = 6
        model, targets = random_ensemble(rng, J, C, G)
        N = 3 * G
        X = np.tile(np.arange(float(G)), 3)
        y = rng.integers(0, C, size=N)
        y[0] = 1
        new = la_epig_scores(model, X, y, targets)
        old = einsum_la_epig(model, X[:, None], y, targets)
        assert np.isnan(new[0])
        assert np.array_equal(new, old_la_epig_scores(model, X, y, targets), equal_nan=True)
        assert np.array_equal(np.isnan(new), np.isnan(old))
        ok = ~np.isnan(old)
        assert np.allclose(new[ok], old[ok], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("C", [2, 10])
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_epig_is_label_mixture_of_la_epig(self, C, seed):
        """With the candidates in one block, in blocks of one and of a few."""
        rng = np.random.default_rng(seed)
        G = 5
        model, targets = random_ensemble(rng, int(rng.integers(1, 9)), C, G)
        X = np.arange(float(G))
        marg = model.marginal_predict_batch(X)
        for budget in (acquisition._JOINT_BYTES, 1, 400):
            mix = np.zeros(G)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(acquisition, "_JOINT_BYTES", budget)
                for c in range(C):
                    la = la_epig_scores(model, X, np.full(G, c), targets)
                    assert np.array_equal(np.isnan(la), marg[:, c] == 0.0)
                    mix += np.where(marg[:, c] > 0.0, marg[:, c] * np.nan_to_num(la), 0.0)
                scores = epig_scores(model, X, targets)
            assert np.allclose(scores, mix, rtol=0.0, atol=1e-12)


# --- implicit updating -------------------------------------------------------


class TestAddOneIn:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16))
    def test_reweight_ensemble_matches_add_one_in(self, seed, K):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(K))
        w[rng.uniform(size=K) < 0.3] = 0.0
        w[0] += w.sum() == 0.0
        w /= w.sum()
        lik = rng.uniform(size=K)
        lik[rng.uniform(size=K) < 0.3] = 0.0
        ensemble = PredictiveEnsemble(rng.dirichlet(np.ones(3), size=K), w)
        evidence, w_post = add_one_in(ensemble.weights, lik[None, :])
        if evidence[0] > 0.0:
            new = reweight_ensemble(ensemble, lik).weights
            assert np.allclose(new, w_post[0], rtol=0.0, atol=1e-15)
            # the reweighting written before add_one_in: w * lik / sum(w * lik)
            assert np.allclose(new, w * lik / (w * lik).sum(), rtol=0.0, atol=1e-15)
        else:
            assert not w_post.any()
            with pytest.raises(DegenerateEvidenceError):
                reweight_ensemble(ensemble, lik)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 8, 9, 12, 17]),
           st.integers(1, 2), st.integers(1, 4), st.integers(0, 200),
           st.sampled_from([1.0, 0.5, 2.0]))
    def test_dirichlet_mic_matches_per_row_loop(self, seed, C, dim, bins, n, eta):
        rng = np.random.default_rng(seed)
        model = DirichletHistogramClassifier(
            C, np.zeros(dim), np.ones(dim), bins_per_dim=bins,
            alpha0=float(rng.choice([1e-3, 0.5, 1.0, 3.7])), num_samples=2,
        )
        # squared coordinates crowd the data into the low bins, leaving others empty
        model.fit([LabelledExample(x, int(c)) for x, c in
                   zip(rng.uniform(size=(n, dim)) ** 2, rng.integers(0, C, size=n))])
        N = int(rng.integers(1, 30))
        X = rng.uniform(size=(N, dim))
        X[rng.integers(0, N, size=N // 2)] = X[0]  # repeated rows
        X[-1] = 1.0  # the upper box edge
        y = rng.integers(0, C, size=N)
        assert np.array_equal(mic_scores(model, X, y, eta=eta),
                              loop_dirichlet_mic(model, X, y, eta))


# --- forest split search -----------------------------------------------------


NODE_ARRAYS = ("feature", "threshold", "left", "right", "dist")


def grow_one(X, y, num_classes, max_depth, min_leaf, beta):
    """The level-wise grower on the rows of X as given (no resampling)."""
    rows = np.arange(len(y))[None, :]
    nodes, roots = forest._grow_trees(X, y, rows, num_classes, max_depth, min_leaf, beta)
    assert roots.tolist() == [0]
    return nodes


def assert_same_tree(X, y, num_classes, max_depth, min_leaf, beta=0.5):
    args = (num_classes, max_depth, min_leaf, beta)
    new, old = grow_one(X, y, *args), OldTree(*args).fit(X, y)
    for name in NODE_ARRAYS:
        assert np.array_equal(getattr(new, name), getattr(old, name)), name


def assert_same_forest(X, y, num_classes, max_depth, min_leaf, num_trees, seed,
                       beta=0.5):
    """BootstrapForest.fit's trees against the presorted per-node oracle grown
    on the same bootstrap draws."""
    model = BootstrapForest(num_classes, num_trees=num_trees, max_depth=max_depth,
                            min_leaf=min_leaf, beta=beta, seed=seed)
    model.fit([LabelledExample(x, int(c)) for x, c in zip(X, y)])
    draws = rng_from(seed)
    assert len(model.trees) == num_trees
    for tree in model.trees:
        idx = draws.integers(0, len(y), size=len(y))
        old = PresortTree(num_classes, max_depth, min_leaf, beta).fit(X[idx], y[idx])
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(tree, name), getattr(old, name)), name


def assert_same_trees(nodes, roots, olds):
    """Each packed tree of ``nodes`` equals its oracle tree in ``olds``."""
    assert len(roots) == len(olds)
    ends = np.append(roots[1:], len(nodes.feature))
    for old, a, b in zip(olds, roots, ends):
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(nodes, name)[a:b], getattr(old, name)), name


def awkward_data(rng, n, d, C):
    """Quantised values (ties everywhere), some constant columns, some
    classes absent, signed zeros and a value scale from tiny to huge."""
    levels = int(rng.choice([2, 3, 5, 17, 1000]))
    scale = float(rng.choice([1e-300, 1.0, 1e300]))
    X = (rng.integers(0, levels, size=(n, d)) - levels // 2) * scale
    X[:, rng.uniform(size=d) < 0.2] = rng.choice([0.0, -0.0, 1.5])
    X[rng.uniform(size=(n, d)) < 0.1] *= -0.0
    y = rng.integers(0, int(rng.integers(1, C + 1)), size=n)
    return X, y


class TestForestSplitSearch:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(1, 20),
           st.integers(2, 10), st.integers(1, 3), st.integers(0, 12))
    def test_matches_per_node_sort(self, seed, n, d, C, min_leaf, max_depth):
        X, y = awkward_data(np.random.default_rng(seed), n, d, C)
        assert_same_tree(X, y, C, max_depth, min_leaf)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 8),
           st.integers(2, 6), st.integers(1, 3), st.integers(0, 10),
           st.integers(1, 40), st.sampled_from([1, 300, 1 << 40]),
           st.sampled_from([1, 50, 1 << 40]))
    def test_forest_matches_presorted_oracle(self, seed, n, d, C, min_leaf, max_depth,
                                             K, block, chunk):
        """Blocks of one tree, of a few and of all K; chunks of one cell (at
        least one feature), of a few and of the whole level; the blocks
        grown by the caller alone and shared with the helper thread."""
        X, y = awkward_data(np.random.default_rng(seed), n, d, C)
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(forest, "_BLOCK_CELLS", block)
                mp.setattr(forest, "_CHUNK_CELLS", chunk)
                mp.setattr(runner, "_CPUS", cpus)
                assert_same_forest(X, y, C, max_depth, min_leaf, K, seed % 1000)

    def test_mnist_like_single_tree(self, mnist_like):
        X, y = mnist_like
        assert_same_tree(X, y, 10, max_depth=10, min_leaf=1, beta=0.05)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("block, chunk", [(1, 1 << 13), (1, 1), (1 << 30, 1 << 13),
                                              (1 << 30, 1 << 40)])
    def test_mnist_like_forest(self, mnist_like, block, chunk, cpus):
        X, y = mnist_like
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_BLOCK_CELLS", block)
            mp.setattr(forest, "_CHUNK_CELLS", chunk)
            mp.setattr(runner, "_CPUS", cpus)
            assert_same_forest(X, y, 10, max_depth=10, min_leaf=1, num_trees=3,
                               seed=7, beta=0.05)

    def test_no_features(self):
        assert_same_tree(np.zeros((5, 0)), np.array([0, 1, 1, 0, 1]), 2, 3, 1)
        assert_same_forest(np.zeros((5, 0)), np.array([0, 1, 1, 0, 1]), 2, 3, 1,
                           num_trees=4, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
           st.integers(1, 6), st.integers(2, 5), st.integers(1, 3), st.integers(0, 8),
           st.integers(1, 8))
    def test_heavily_repeated_rows_match_presorted_oracle(self, seed, n, m, d, C, min_leaf,
                                                         max_depth, K):
        """Bootstraps of m draws from at most 3 distinct rows of the n, split
        into random positive multiplicities: a row can weigh 1 or up to m, so
        ``min_leaf`` must count repeats."""
        rng = np.random.default_rng(seed)
        X, y = awkward_data(rng, n, d, C)
        boots = []
        for _ in range(K):
            k = min(n, m, int(rng.integers(1, 4)))
            cuts = np.sort(rng.choice(np.arange(1, m), size=k - 1, replace=False))
            counts = np.diff(np.concatenate(([0], cuts, [m])))
            boots.append(rng.permutation(np.repeat(rng.choice(n, size=k, replace=False),
                                                   counts)))
        boots = np.stack(boots)
        olds = [PresortTree(C, max_depth, min_leaf, 0.5).fit(X[idx], y[idx]) for idx in boots]
        for block, cpus in ((1 << 40, 1), (1, 2)):  # one block; a block per tree, shared
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(forest, "_BLOCK_CELLS", block)
                mp.setattr(runner, "_CPUS", cpus)
                nodes, roots = forest._grow_trees(X, y, boots, C, max_depth, min_leaf, 0.5)
            assert_same_trees(nodes, roots, olds)

    def test_screen_keeps_exact_ties(self):
        """Rows 0..m-1 carry labels s, rows m..2m-1 the labels s with two
        classes swapped; feature 0 sorts the rows as 0..2m-1 and feature 1 as
        m..2m-1, 0..m-1. Every cell of feature 1 then holds the swapped class
        counts of the cell of feature 0 at the same position: the same Gini in
        exact arithmetic, summed in another order. The screened search must
        pick what the unscreened one picks, also where round-off splits a tie."""
        split_ties = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            C, m = int(rng.integers(3, 11)), int(rng.integers(2, 30))
            s = rng.integers(0, C, size=m)
            a, b = rng.choice(C, size=2, replace=False)
            swap = np.arange(C)
            swap[[a, b]] = b, a
            y = np.concatenate((s, swap[s]))
            i = np.arange(2 * m, dtype=float)
            X = np.column_stack((i, (i + m) % (2 * m)))
            # the oracle's root scores of both features at each position
            cum = np.cumsum(y[:, None] == np.arange(C), axis=0)
            pos = np.arange(1.0, 2 * m)
            root = [(pos * _presort_gini(counts[:-1], pos) + (2 * m - pos)
                     * _presort_gini(counts[-1] - counts[:-1], 2 * m - pos)) / (2 * m)
                    for counts in (cum, cum[:, swap])]
            best = np.argmin(np.minimum(*root))
            split_ties += root[0][best] != root[1][best]
            boots = np.concatenate((np.arange(2 * m)[None],
                                    rng.integers(0, 2 * m, size=(3, 2 * m))))
            screened = forest._grow_trees(X, y, boots, C, 4, 1, 0.5)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(forest, "_SCREEN", np.inf)
                unscreened = forest._grow_trees(X, y, boots, C, 4, 1, 0.5)
            for name in NODE_ARRAYS:
                assert np.array_equal(getattr(screened[0], name),
                                      getattr(unscreened[0], name)), name
            assert_same_tree(X, y, C, 4, 1)
        assert split_ties > 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.sampled_from([-1, 0, 1]),
           st.integers(2, 64), st.integers(64, 72), st.integers(1, 2), st.integers(0, 4),
           st.integers(1, 4), st.booleans())
    def test_packed_counts_at_field_limits(self, seed, k, step, C, d, min_leaf, max_depth,
                                           K, lopsided):
        """Bootstraps of m = 2**k - 1, 2**k or 2**k + 1 draws from at most 3
        distinct rows: a node's field width steps up at a weight of 2**k, and
        a lopsided draw gives one row all but one or two of the m. Up to 64
        classes pack into many words, the last one part full. All K trees
        are one block and all features one chunk of at least 64, so each
        word's running sum passes over every row of every feature and wraps."""
        m = 2**k + step
        C = min(C, max(2, 2**17 // m))  # keeps the oracle's (features, m, C) counts small
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        X, _ = awkward_data(rng, n, d, C)
        y = rng.integers(0, C, size=n)
        boots = []
        for _ in range(K):
            r = min(n, m, int(rng.integers(1, 4)))
            if lopsided:
                counts = np.array([m - r + 1] + [1] * (r - 1))
            else:
                cuts = np.sort(rng.choice(np.arange(1, m), size=r - 1, replace=False))
                counts = np.diff(np.concatenate(([0], cuts, [m])))
            boots.append(rng.permutation(np.repeat(rng.choice(n, size=r, replace=False),
                                                   counts)))
        boots = np.stack(boots)
        olds = [PresortTree(C, max_depth, min_leaf, 0.5).fit(X[idx], y[idx]) for idx in boots]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_BLOCK_CELLS", 1 << 40)
            mp.setattr(forest, "_CHUNK_CELLS", 1 << 40)
            nodes, roots = forest._grow_trees(X, y, boots, C, max_depth, min_leaf, 0.5)
        assert_same_trees(nodes, roots, olds)

    @pytest.mark.parametrize("heavy", [0, 1, 2, 3])
    def test_class_count_at_the_top_of_its_field(self, heavy):
        """One node of weight 2**16 - 1: 16-bit fields, four to a word. Class
        ``heavy`` holds 2**16 - 2 rows left of feature 1's second cell, every
        bit of its field but the lowest (a cell leaves at least one row on
        the right), and that cell is the only pure split. Feature 0's rows
        come first in the chunk, so feature 1's first row carries the running
        sum out of the field of class ``heavy``, and out of the word for
        class 3."""
        light = (heavy + 1) % 4
        y = np.array([heavy, heavy, light])
        w = np.array([2.0**16 - 3, 1.0, 1.0])
        xt = np.array([[0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        order = np.argsort(xt, axis=1, kind="stable")
        total = np.bincount(y, weights=w, minlength=4)[None, :]
        feat, column = forest._best_splits(
            xt, y, w, order, np.zeros(1, dtype=np.intp), np.zeros(3, dtype=np.intp),
            np.ones(1, dtype=bool), total, total.sum(axis=1), 1)
        assert (feat.tolist(), column.tolist()) == ([1], [2])

    @pytest.mark.parametrize("C", [2, 10, 64])
    def test_packed_words_and_running_sums_stay_uint64(self, C):
        """A uint64 array combined with an int64 one promotes to float64, where
        a shift raises and a large count loses bits: the packed words, shifts
        and mask reach each chunk as uint64, and every running sum a chunk
        takes is uint64."""
        rng = np.random.default_rng(C)
        X, y = rng.normal(size=(90, 4)), np.arange(90) % C
        boots = rng.integers(0, 90, size=(3, 400))  # multiplicities up to a few
        seen, sums = [], []
        screen = forest._screen_chunk

        def spy(change, order, f0, f1, packed, word, shift, mask, *rest):
            seen.append((packed.dtype, shift.dtype, type(mask), len(packed), len(word)))
            return screen(change, order, f0, f1, packed, word, shift, mask, *rest)

        class Numpy:  # numpy, noting the dtype of each running sum of a chunk
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def cumsum(*args, **kwargs):
                out = np.cumsum(*args, **kwargs)
                if sys._getframe(1).f_code.co_name == "_screen_chunk":
                    sums.append(out.dtype)
                return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_screen_chunk", spy)
            mp.setattr(forest, "np", Numpy())
            forest._grow_trees(X, y, boots, C, 4, 1, 0.5)
        assert seen and sums
        for packed, shift, mask, _, classes in seen:
            assert packed == np.uint64 and shift == np.uint64 and mask is np.uint64
            assert classes == C
        assert all(dtype == np.uint64 for dtype in sums)
        # the root weighs 400: 9-bit fields, seven to a word
        assert seen[0][3] == -(-C // 7)


class TestForestPrediction:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 6),
           st.integers(2, 6), st.integers(0, 8), st.integers(1, 20),
           st.sampled_from([1, 300, 1 << 40]), st.integers(0, 30))
    def test_conditionals_match_per_tree_walk(self, seed, n, d, C, max_depth, K,
                                              block, N):
        """Stumps and deeper trees, grown in blocks of one tree, a few and all
        K, queried at every split's threshold and the floats on either side of
        it, at N drawn training rows, and at no rows."""
        rng = np.random.default_rng(seed)
        X, y = awkward_data(rng, n, d, C)
        model = BootstrapForest(C, num_trees=K, max_depth=max_depth, seed=seed % 1000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_BLOCK_CELLS", block)
            model.fit([LabelledExample(x, int(c)) for x, c in zip(X, y)])
        queries = [X[rng.integers(0, n, size=N)]]
        for tree in model.trees:
            for f, t in zip(tree.feature, tree.threshold):
                if f >= 0:
                    at = np.repeat(X[rng.integers(0, n, size=1)], 3, axis=0)
                    at[:, f] = t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)
                    queries.append(at)
        Q = np.concatenate(queries)
        old = np.stack([predict_dist(tree, Q) for tree in model.trees]).transpose(1, 0, 2)
        assert np.array_equal(model.conditionals(Q), old)
        assert model.conditionals(np.zeros((0, d))).shape == (0, K, C)
        for tree in model.trees:  # views of the packed arrays, not copies
            assert np.shares_memory(tree.feature, model._nodes.feature)


class TestBlockConditionals:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 120), st.integers(2, 4), st.data())
    def test_rows_of_a_block_are_rows_of_the_whole(self, seed, N, C, data):
        """The kernels compute each candidate block's conditionals on their
        own: ``conditionals(X[a:b])`` is ``conditionals(X)[a:b]``, bit for bit,
        for the forest, the finite and the Dirichlet model. The dropout MLP's
        matrix products round by their row count, so its rows agree to 1e-12."""
        a = data.draw(st.integers(0, N))
        b = data.draw(st.integers(a, N))
        rng = np.random.default_rng(seed)
        X, y = rng.uniform(-1.0, 1.0, size=(30, 2)), np.arange(30) % C
        examples = [LabelledExample(x, int(c)) for x, c in zip(X, y)]
        Q = rng.uniform(-1.0, 1.0, size=(N, 2))
        finite, _ = random_ensemble(rng, int(rng.integers(1, 9)), C, 6)
        models = [
            (BootstrapForest(C, num_trees=int(rng.integers(1, 9)), max_depth=4,
                             seed=seed % 1000).fit(examples), Q),
            (finite, rng.integers(0, 6, size=N).astype(float)[:, None]),
            (DirichletHistogramClassifier(C, [-1.0, -1.0], [1.0, 1.0], bins_per_dim=3,
                                          num_samples=5, seed=seed % 1000).fit(examples), Q),
        ]
        for model, inputs in models:
            assert np.array_equal(model.conditionals(inputs[a:b]),
                                  model.conditionals(inputs)[a:b])
        mlp = DropoutMLP(2, C, hidden=(8,), max_steps=3, num_samples=4, seed=seed % 1000)
        mlp.fit(examples)
        assert np.allclose(mlp.conditionals(Q[a:b]), mlp.conditionals(Q)[a:b],
                           rtol=0.0, atol=1e-12)


# --- entropy and mutual information -------------------------------------------


def random_conditionals(rng, rows, K, C):
    """Row-stochastic (rows, K, C) tables with about a fifth of entries zero."""
    cond = rng.dirichlet(np.ones(C), size=(rows, K))
    cond[rng.uniform(size=cond.shape) < 0.2] = 0.0
    cond[:, :, 0] += cond.sum(axis=2) == 0.0
    return cond / cond.sum(axis=2, keepdims=True)


def assert_same_array(new, old):
    assert np.array_equal(new, old)
    assert new.strides == old.strides


class TestMutualInformationKernel:
    @pytest.mark.parametrize("shape", [(5, 5), (3, 4, 4), (2, 3, 4, 4),
                                       (2, 2), (3, 2, 2), (2, 3, 2, 2)])
    def test_small_stacks_and_single_joint(self, shape):
        """Joints of 25, 16 and 4 cells, in C order and in the class-major
        layout of EPIG's einsum joint."""
        rng = np.random.default_rng(len(shape))
        joint = rng.dirichlet(np.ones(shape[-1] ** 2), size=shape[:-2])
        joint = joint.reshape(shape)
        class_major = np.moveaxis(
            np.ascontiguousarray(np.moveaxis(joint, (-2, -1), (0, 1))), (0, 1), (-2, -1))
        for j in (joint, class_major):
            new = prob.mutual_information_of_array(j)
            old = old_mutual_information_of_array(j)
            assert np.shape(new) == np.shape(old)
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 3, 3), (0, 2, 2)])
    def test_empty_stacks(self, shape):
        """No joints, of 9 cells (flattened) and of 4: an empty result."""
        assert prob.mutual_information_of_array(np.zeros(shape)).shape == shape[:-2]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9),
           st.lists(st.integers(1, 4), max_size=3), st.data())
    def test_short_axis_sum_matches_numpy(self, seed, n, other, data):
        """``prob._sum`` against numpy's own sum over an axis of 1-9 entries,
        at any position, in C, Fortran and strided layouts, with zeros of both
        signs: the same bits, sign of zero included, and the same strides on
        every axis of more than one entry (a length-1 axis's stride is never
        used); and two trailing axes of fewer than 8 entries against their
        flattened sum."""
        pos = data.draw(st.integers(0, len(other)))
        shape = (*other[:pos], n, *other[pos:])
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=shape)
        a[rng.uniform(size=shape) < 0.2] = 0.0
        a[rng.uniform(size=shape) < 0.2] = -0.0
        layout = data.draw(st.sampled_from(["C", "F", "strided"]))
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "strided":  # every other entry on every axis of a larger array
            big = np.zeros(tuple(2 * k for k in shape))
            big[(slice(None, None, 2),) * len(shape)] = a
            a = big[(slice(None, None, 2),) * len(shape)]
        axis = data.draw(st.sampled_from([pos, pos - len(shape)]))
        new, old = prob._sum(a, axis), a.sum(axis=axis)
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))
        assert np.shape(new) == np.shape(old)
        assert [s for s, k in zip(np.asarray(new).strides, np.shape(new)) if k > 1] == [
            s for s, k in zip(np.asarray(old).strides, np.shape(old)) if k > 1]
        if a.ndim >= 2 and a.shape[-2] * a.shape[-1] < 8:
            flat = a.reshape(a.shape[:-2] + (-1,)).sum(axis=-1)
            assert np.array_equal(prob._sum(a, (-2, -1)), flat)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_one_buffer_entropy_matches_three_temporaries(self, layout, axis):
        rng = np.random.default_rng(11)
        p = random_conditionals(rng, 40, 30, 7)
        p = {"C": p, "F": np.asfortranarray(p), "strided": p[::2, ::3]}[layout]
        assert_same_array(entropy_of_array(p, axis=axis),
                          old_entropy_of_array(p, axis=axis))

    @pytest.mark.parametrize("n_train", [1, 40])
    def test_epig_scores_at_harness_shape(self, n_train):
        """N=200 candidates, M=128 targets, K=32 trees, C=10; one training
        example leaves every tree alike, the case decided by round-off."""
        rng = np.random.default_rng(n_train)
        X = rng.normal(size=(n_train, 4))
        y = rng.integers(0, 10, size=n_train)
        model = BootstrapForest(10, num_trees=32, max_depth=6, seed=0)
        model.fit([LabelledExample(x, int(c)) for x, c in zip(X, y)])
        candidates = rng.normal(size=(200, 4))
        targets = TargetSet(rng.normal(size=(128, 4)))
        assert np.array_equal(epig_scores(model, candidates, targets),
                              old_epig_scores(model, candidates, targets))


# --- EPIG and LA-EPIG over candidate blocks -----------------------------------


class FixedConditionals:
    """A model with fixed conditionals: ``cond_x`` for the candidates,
    ``cond_t`` for the targets. A candidate's one feature is its index, a
    target's is -1. Consecutive candidates, as a kernel's blocks ask for,
    get a view: the conditionals exist before a kernel runs, so its traced
    memory leaves them out."""

    def __init__(self, cond_x, cond_t, weights):
        self.cond_x, self.cond_t = cond_x, cond_t
        self.sample_weights = weights
        self.num_classes = cond_x.shape[2]

    def conditionals(self, X):
        rows = np.asarray(X)[:, 0].astype(int)
        if len(rows) and rows[0] < 0:
            return self.cond_t
        start = rows[0] if len(rows) else 0
        if np.array_equal(rows, np.arange(start, start + len(rows))):
            return self.cond_x[start:start + len(rows)]
        return self.cond_x[rows]

    marginal_predict_batch = Model.marginal_predict_batch


def fixed_case(rng, N, M, K, C):
    """A :class:`FixedConditionals` model on N candidates, their labels and
    M targets."""
    model = FixedConditionals(random_conditionals(rng, N, K, C),
                              random_conditionals(rng, M, K, C), rng.dirichlet(np.ones(K)))
    return (model, np.arange(N, dtype=float)[:, None], rng.integers(0, C, size=N),
            TargetSet(np.full((M, 1), -1.0)))


# bytes per candidate of each kernel's blocks, at M targets, K samples and C classes
ROW_BYTES = {"epig": lambda M, K, C: (M * C + 2 * K) * C * 8,
             "la_epig": lambda M, K, C: (M * C + K * C + 4 * K) * 8,
             "mic": lambda M, K, C: (C + 2) * K * 8,
             "rho_loss": lambda M, K, C: (K + 2) * C * 8}


def kernel(objective, model, X, y, targets):
    """Scores of one objective."""
    if objective == "epig":
        return epig_scores(model, X, targets)
    return mic_scores(model, X, y) if objective == "mic" else la_epig_scores(model, X, y, targets)


def kernel_pair(objective, model, X, y, targets):
    """(new, old) scores of one objective."""
    if objective == "epig":
        old = old_epig_scores(model, X, targets)
    else:
        old = (old_mic_scores(model, X, y) if objective == "mic"
               else old_la_epig_scores(model, X, y, targets))
    return kernel(objective, model, X, y, targets), old


class TestCandidateBlocks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5000), st.integers(1, 1 << 20), st.integers(1, 1 << 24),
           st.sampled_from([1, 2]))
    def test_fewest_even_blocks_within_budget(self, n, row_bytes, budget, least):
        """Candidate blocks (``least`` 1) and a block's tasks (``least`` 2)."""
        blocks = acquisition._candidate_blocks(n, row_bytes, budget, least)
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1
        assert len(blocks) == 1 or min(sizes) >= least
        if least * row_bytes > budget:  # `least` candidates are over the budget
            assert len(blocks) == max(1, n // least)
        else:  # within the budget, unless `n // least` caps the count of blocks
            clamped = n // least < -(-n // (budget // row_bytes))
            assert max(sizes) * row_bytes <= budget or clamped
            assert len(blocks) == 1 or -(-n // (len(blocks) - 1)) * row_bytes > budget

    @pytest.mark.parametrize("objective", ["epig", "la_epig", "mic"])
    @pytest.mark.parametrize("size", ["harness", "largest"])
    def test_one_block_is_bit_identical(self, objective, size):
        """The harness shape (N=200, M=128, K=32, C=10) and the largest N that
        still fits one block run the old expression on the whole pool."""
        rng = np.random.default_rng(5)
        data = [LabelledExample(x, int(c)) for x, c in zip(rng.normal(size=(40, 4)),
                                                           rng.integers(0, 10, size=40))]
        model = BootstrapForest(10, num_trees=32, max_depth=6, seed=0).fit(data)
        row_bytes, budget = ROW_BYTES[objective](128, 32, 10), acquisition._JOINT_BYTES
        N = 200 if size == "harness" else budget // row_bytes
        assert len(acquisition._candidate_blocks(N, row_bytes, budget)) == 1
        assert len(acquisition._candidate_blocks(N + 1, row_bytes, budget)) == (size == "largest") + 1
        X = rng.normal(size=(N, 4))
        new, old = kernel_pair(objective, model, X, rng.integers(0, 10, size=N),
                               TargetSet(rng.normal(size=(128, 4))))
        assert np.array_equal(new, old, equal_nan=True)

    @pytest.mark.parametrize("objective", ["epig", "la_epig", "mic"])
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 12),
           st.integers(1, 10), st.integers(2, 5), st.integers(1, 1 << 14))
    def test_many_blocks_match_the_old_kernels(self, objective, seed, N, M, K, C, budget):
        rng = np.random.default_rng(seed)
        model, X, y, targets = fixed_case(rng, N, M, K, C)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(acquisition, "_JOINT_BYTES", budget)
            new, old = kernel_pair(objective, model, X, y, targets)
        assert new.shape == (N,)
        assert np.array_equal(np.isnan(new), np.isnan(old))
        ok = ~np.isnan(old)
        assert np.allclose(new[ok], old[ok], rtol=0.0, atol=1e-12)
        if objective == "epig":
            assert np.all(new >= 0.0)

    @pytest.mark.parametrize("objective", ["epig", "la_epig", "mic", "rho_loss"])
    def test_memory_is_one_block(self, objective):
        """N=8,000 candidates, M=64 targets, K=8 samples, C=10, and also
        the demo's K=256, C=2: EPIG's whole joint would be 410 MB, LA-EPIG's
        updated predictives 41 MB; at K=256 einsum's copy of EPIG's
        conditionals would be 33 MB, each of LA-EPIG's add-one-in arrays
        16 MB, MIC's likelihoods and their squares 16 MB each, and RHO-LOSS
        is charged 33 MB for a model's conditionals. MIC and RHO-LOSS are
        one block at K=8, C=10, so they run only the demo's shape. Beyond the
        inputs, the conditionals and the (N,) result, a kernel holds the
        arrays of at most two blocks, one per thread and each within half
        the budget, plus a few MiB that do not grow with the pool: a task of
        about 1 MiB on each of two threads, each with its copies and entropy
        buffer."""
        import tracemalloc

        shapes = [(256, 2)] if objective in ("mic", "rho_loss") else [(8, 10), (256, 2)]
        for K, C in shapes:
            rng = np.random.default_rng(8)
            model, X, y, targets = fixed_case(rng, 8000, 64, K, C)
            aux = FixedConditionals(random_conditionals(rng, 8000, K, C), model.cond_t,
                                    rng.dirichlet(np.ones(K)))
            row_bytes = ROW_BYTES[objective](64, K, C)
            assert len(acquisition._candidate_blocks(8000, row_bytes,
                                                     acquisition._JOINT_BYTES)) > 1
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                scores = (rho_loss_scores(model, aux, X, y) if objective == "rho_loss"
                          else kernel(objective, model, X, y, targets))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert scores.shape == (8000,)
            assert peak - scores.nbytes < acquisition._JOINT_BYTES + 4 * 2**20, (K, C)

    @pytest.mark.parametrize("objective", ["epig", "la_epig", "mic"])
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 130),
           st.integers(1, 40), st.integers(2, 10), st.booleans())
    def test_tasks_are_bit_identical(self, objective, seed, N, M, K, C, same_rows):
        """One candidate block cut into tasks of two rows (a budget of one
        byte), of 4 KiB, of 1 MiB and of the whole block, reduced by the
        caller alone and shared with the helper thread: the same bits as the
        old kernels, also with every candidate row identical."""
        rng = np.random.default_rng(seed)
        model, X, y, targets = fixed_case(rng, N, M, K, C)
        if same_rows:
            model.cond_x[:] = model.cond_x[0]
            y[:] = y[0]
        old = kernel_pair(objective, model, X, y, targets)[1]
        for budget in (1, 4096, 1 << 20, 1 << 40):
            for cpus in (1, 2):  # the helper thread off and on
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(acquisition, "_TASK_BYTES", budget)
                    mp.setattr(runner, "_CPUS", cpus)
                    new = kernel_pair(objective, model, X, y, targets)[0]
                assert np.array_equal(new, old, equal_nan=True)

    @pytest.mark.parametrize("objective", ["epig", "la_epig", "mic", "rho_loss"])
    def test_many_blocks_are_bit_identical_on_either_thread(self, objective):
        """A pool of twelve blocks, each run by whichever thread takes it:
        the same bits with the helper thread off and on, and with tasks of
        two rows and of 1 MiB."""
        rng = np.random.default_rng(21)
        N, M, K, C = 240, 16, 8, 3
        model, X, y, targets = fixed_case(rng, N, M, K, C)
        aux = FixedConditionals(random_conditionals(rng, N, K, C), model.cond_t,
                                rng.dirichlet(np.ones(K)))
        row_bytes = ROW_BYTES[objective](M, K, C)
        runs = []
        for task_bytes in (1, 1 << 20):
            for cpus in (1, 2):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(acquisition, "_JOINT_BYTES", 40 * row_bytes)
                    mp.setattr(acquisition, "_TASK_BYTES", task_bytes)
                    mp.setattr(runner, "_CPUS", cpus)
                    assert len(acquisition._candidate_blocks(
                        N, row_bytes, acquisition._JOINT_BYTES // 2)) == 12
                    runs.append(rho_loss_scores(model, aux, X, y) if objective == "rho_loss"
                                else kernel(objective, model, X, y, targets))
        for scores in runs[1:]:
            assert np.array_equal(scores, runs[0], equal_nan=True)
            assert scores.strides == runs[0].strides

    @pytest.mark.parametrize("objective", ["epig", "la_epig", "mic"])
    def test_score_pool_memory_does_not_grow_with_the_pool(self, objective):
        """``score_pool`` with a forest, whose conditionals (K=32 trees, C=10:
        2,560 B per candidate) are computed on call, and blocks of at most
        1 MiB, so that N=1,000 already spans more than one block. Beyond what
        it returns, its traced peak at N=8,000 stays within 512 KiB of the
        peak at N=1,000: that allows 75 B per added candidate for the (N,)
        arrays. Whole-pool conditionals grew it by 19 to 21 MB."""
        import tracemalloc

        rng = np.random.default_rng(12)
        data = [LabelledExample(x, int(c)) for x, c in zip(rng.normal(size=(60, 2)),
                                                           np.arange(60) % 10)]
        model = BootstrapForest(10, num_trees=32, max_depth=4, seed=0).fit(data)
        targets = TargetSet(rng.normal(size=(64, 2)))

        def peak_beyond_result(N):
            pool = [LabelledExample(x, int(c)) for x, c in zip(rng.normal(size=(N, 2)),
                                                               rng.integers(0, 10, size=N))]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(acquisition, "_JOINT_BYTES", 1 << 20)
                assert len(acquisition._candidate_blocks(
                    1000, ROW_BYTES[objective](64, 32, 10), 1 << 20)) > 1
                tracemalloc.start()
                try:
                    ranking = acquisition.score_pool(objective, model, pool, targets)
                    kept, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert len(ranking) == N
            return peak - kept

        assert peak_beyond_result(8000) < peak_beyond_result(1000) + 512 * 2**10

    def test_task_memory_does_not_grow_with_the_block(self):
        """EPIG with its N=400, M=128, C=10 joint (41 MB) in one block: the
        tasks reduce it in pieces, so beyond the joint the peak is a few MiB,
        where one pass over the whole joint took 124 MB. Apart from the
        joint and the einsum's copy of the conditionals (N x K x C), the peak
        does not grow with N: at 4N it stays within 1 MiB of the peak at N."""
        import tracemalloc

        def traced_peak(N):
            model, X, _, targets = fixed_case(np.random.default_rng(3), N, 128, 8, 10)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(acquisition, "_JOINT_BYTES", 1 << 40)
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    epig_scores(model, X, targets)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
            return peak - N * 128 * 10 * 10 * 8 - model.cond_x.nbytes

        peak = traced_peak(400)
        assert peak < 8 * 2**20
        assert traced_peak(1600) < peak + 2**20


# --- the block runner shared by the acquisition kernels and the forest -------


def epig_case(mp, seed=0, N=20, one_block=False):
    """EPIG over four candidate blocks of five rows, each cut into tasks of
    two and three rows (or over one block of one task), with a check of its
    scores against the old kernel run on the same blocks."""
    row_bytes = ROW_BYTES["epig"](7, 5, 3)
    if one_block:
        mp.setattr(acquisition, "_TASK_BYTES", 1 << 40)
        blocks = [slice(0, N)]
    else:
        mp.setattr(acquisition, "_TASK_BYTES", 1)
        mp.setattr(acquisition, "_JOINT_BYTES", 10 * row_bytes)  # half holds five rows
        blocks = [slice(i, i + 5) for i in range(0, N, 5)]
    model, X, _, targets = fixed_case(np.random.default_rng(seed), N, 7, 5, 3)
    want = np.concatenate([old_epig_scores(model, X[rows], targets) for rows in blocks])
    return (lambda: epig_scores(model, X, targets),
            lambda got: assert_same_array(got, want))


def forest_case(mp, seed=0, K=6, one_block=False):
    """A forest fit of one block per tree (or one block), with a check of
    every tree against the presorted oracle."""
    mp.setattr(forest, "_BLOCK_CELLS", 1 << 40 if one_block else 1)
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(40, 5)), 1)
    y = rng.integers(0, 4, size=40)
    boots = rng.integers(0, 40, size=(K, 40))
    olds = [PresortTree(4, 6, 1, 0.5).fit(X[idx], y[idx]) for idx in boots]
    return (lambda: forest._grow_trees(X, y, boots, 4, 6, 1, 0.5),
            lambda got: assert_same_trees(*got, olds))


CASES = {"epig": (acquisition, epig_case), "forest": (forest, forest_case)}
HELPER = "streamsift-helper"  # the name of the thread a shared call starts


@pytest.fixture
def started(monkeypatch):
    """The names of the threads started during the test."""
    names, start = [], threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


class TestBlockRunner:
    """``runner.share`` through both of its users: the acquisition kernels'
    candidate blocks, each of which runs its own tasks, and the tree blocks
    of the forest."""

    @pytest.mark.parametrize("user", CASES)
    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_block_error_re_raises_in_caller(self, user, where, monkeypatch):
        """Each thread's first block waits until the other thread has taken
        one, so both run a block; the failing one raises in the caller, and
        the next call is unharmed."""
        module, case = CASES[user]
        monkeypatch.setattr(runner, "_CPUS", 2)
        call, check = case(monkeypatch)
        caller = threading.current_thread()
        both_ran, started = threading.Barrier(2, timeout=30), set()

        def failing(task):
            def run():
                me = threading.current_thread()
                if me not in started:
                    started.add(me)
                    both_ran.wait()
                if (me is caller) == (where == "caller"):
                    raise RuntimeError(f"block failed in the {where}")
                return task()
            return run

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "share", lambda tasks: runner.share(map(failing, tasks)))
            with pytest.raises(RuntimeError, match=f"block failed in the {where}"):
                call()
        check(call())

    @pytest.mark.parametrize("user", CASES)
    @pytest.mark.parametrize("cpus, one_block", [(1, False), (2, True)])
    def test_one_cpu_or_one_block_starts_no_helper(self, user, cpus, one_block,
                                                   monkeypatch, started):
        monkeypatch.setattr(runner, "_CPUS", cpus)
        call, check = CASES[user][1](monkeypatch, one_block=one_block)
        check(call())
        assert HELPER not in started

    @pytest.mark.parametrize("user", CASES)
    def test_busy_helper_is_not_waited_for(self, user, monkeypatch, started):
        """While a call on another thread owns the helper, the call runs
        every block itself and returns while that call still owns it."""
        monkeypatch.setattr(runner, "_CPUS", 2)
        call, check = CASES[user][1](monkeypatch)
        owned, release = threading.Event(), threading.Event()

        def own():
            with runner._owner:
                owned.set()
                release.wait(30)

        owner = threading.Thread(target=own)
        owner.start()
        try:
            assert owned.wait(30)
            check(call())
            assert owner.is_alive()
        finally:
            release.set()
            owner.join(30)
        assert HELPER not in started

    @pytest.mark.parametrize("user", CASES)
    def test_concurrent_callers(self, user, monkeypatch):
        """Four callers on two CPUs with a short switch interval, all racing
        for the helper: every block of every call is run once, so each
        result is the reference."""
        monkeypatch.setattr(runner, "_CPUS", 2)
        cases = [CASES[user][1](monkeypatch, seed=seed) for seed in range(4)]
        got = [[] for _ in cases]

        def call(i):
            for _ in range(5):
                got[i].append(cases[i][0]())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for results, (_, check) in zip(got, cases):
            assert len(results) == 5
            for result in results:
                check(result)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")
    def test_forked_child_shares_on_two_threads(self):
        """A child forked while a call owns the helper starts with a free
        owner, so its own call runs its tasks on two threads. The fork runs
        in a new interpreter with one BLAS thread, so that no other thread
        is alive when it forks."""
        code = (
            "import os, sys, threading\n"
            "from streamsift import runner\n"
            "runner._CPUS = 2\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "both = threading.Barrier(2, timeout=30)\n"
            "def task():\n"
            "    both.wait()\n"
            "    return threading.current_thread()\n"
            "with runner._owner:\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        status = 1\n"
            "        try:\n"
            "            status = 0 if len(set(runner.share([task] * 2))) == 2 else 2\n"
            "        finally:\n"
            "            os._exit(status)\n"
            "    _, status = os.waitpid(pid, 0)\n"
            "sys.exit(os.waitstatus_to_exitcode(status))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(runner.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_failure_stops_the_other_thread(self, where, monkeypatch):
        """One thread's first task fails while the other's first task still
        runs: ``share`` raises that failure only once the helper has
        stopped, and the other thread takes no further task, so of ten tasks
        two run."""
        monkeypatch.setattr(runner, "_CPUS", 2)
        caller = threading.current_thread()
        both_ran, failed, ran = threading.Barrier(2, timeout=30), threading.Event(), []

        def task():
            me = threading.current_thread()
            ran.append(me)
            if len(ran) <= 2:
                both_ran.wait()
                if (me is caller) == (where == "caller"):
                    failed.set()
                    raise RuntimeError(f"block failed in the {where}")
                failed.wait(30)
                time.sleep(0.1)  # still running when the failure is raised

        with pytest.raises(RuntimeError, match=f"block failed in the {where}"):
            runner.share([task] * 10)
        assert len(ran) == 2
        helper = next(t for t in ran if t is not caller)
        assert not helper.is_alive()

    @pytest.mark.parametrize("fails", [(), ("caller", "helper"), ("helper", "caller")],
                             ids=["none", "caller-first", "helper-first"])
    def test_no_helper_outlives_a_call(self, fails, monkeypatch, started):
        """The call starts one helper thread, which is no longer alive once
        ``share`` returns or, when the tasks on both threads fail, raises the
        first failure. (``test_failure_stops_the_other_thread`` has one
        thread fail.)"""
        monkeypatch.setattr(runner, "_CPUS", 2)
        caller = threading.current_thread()
        both_ran, first_raised, ran = threading.Barrier(2, timeout=30), threading.Event(), []

        def task(i):
            me = threading.current_thread()
            ran.append(me)
            both_ran.wait()
            where = "caller" if me is caller else "helper"
            if where in fails:
                if where == fails[1]:  # waits until the first failure has been raised
                    first_raised.wait(30)
                    time.sleep(0.1)
                first_raised.set()
                raise RuntimeError(f"block failed in the {where}")
            return i

        if fails:
            with pytest.raises(RuntimeError, match=f"block failed in the {fails[0]}"):
                runner.share([partial(task, i) for i in range(2)])
        else:
            assert runner.share([partial(task, i) for i in range(2)]) == [0, 1]
        assert len(set(ran)) == 2 and started == [HELPER]
        assert not [t for t in threading.enumerate() if t.name == HELPER]

    def test_results_in_task_order(self, monkeypatch):
        """Tasks that finish out of order still return in task order."""
        monkeypatch.setattr(runner, "_CPUS", 2)
        first_done = threading.Event()

        def task(i):
            if i == 0:
                first_done.wait(30)  # task 0 ends after some later task has
            elif not first_done.is_set():
                first_done.set()
            return i

        assert runner.share([partial(task, i) for i in range(6)]) == list(range(6))

    def test_nested_call_runs_inline_and_queues_nothing(self, monkeypatch):
        """Each thread's outer task makes a nested call whose tasks hold an
        array. The nested tasks run on the thread that made the call, and
        once both nested calls have returned, while both threads still hold
        an outer task, no call queued for the helper keeps an array alive;
        nor does anything once the outer call returns."""
        monkeypatch.setattr(runner, "_CPUS", 2)
        both_ran, both_nested = threading.Barrier(2, timeout=30), threading.Barrier(2, timeout=30)
        refs = []

        def inner(data):
            return threading.current_thread(), float(data.sum())

        def outer(i):
            both_ran.wait()
            data = np.full(1000, float(i))
            ran = runner.share([partial(inner, data)] * 3)
            refs.append(weakref.ref(data))
            del data
            both_nested.wait()
            return threading.current_thread(), ran, [r() is None for r in refs]

        results = runner.share([partial(outer, i) for i in range(2)])
        assert len({me for me, _, _ in results}) == 2
        assert threading.current_thread() in {me for me, _, _ in results}
        for i, (me, ran, dead) in enumerate(results):
            assert ran == [(me, 1000.0 * i)] * 3
            assert dead == [True, True]
        assert all(r() is None for r in refs)


# --- CSV readers -------------------------------------------------------------

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308)


@st.composite
def labelled_matrices(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(EDGE_FLOATS))
    X = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return X, y


def write_rows(path, rows):
    """Write rows of cell strings as CSV lines; returns ``path``."""
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    return path


def cells_of(X):
    return [[repr(v) for v in r] for r in X.tolist()]


class TestCsvReaders:
    @settings(max_examples=100, deadline=None)
    @given(labelled_matrices())
    def test_round_trip_is_bit_identical(self, tmp_path_factory, data):
        X, y = data
        tmp = tmp_path_factory.mktemp("csv")
        save_csv([LabelledExample(x, lab) for x, lab in zip(X, y)], tmp / "d.csv")
        back = load_csv(tmp / "d.csv", -1)
        assert [ex.label for ex in back] == y
        assert np.stack([ex.features for ex in back]).tobytes() == X.tobytes()
        features = load_features_csv(write_rows(tmp / "f.csv", cells_of(X)))
        assert features.shape == X.shape and features.tobytes() == X.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(labelled_matrices(), st.data(),
           st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "x", "0x1"]))
    def test_bad_cell_names_row_and_column(self, tmp_path_factory, data, pick, cell):
        X, y = data
        row = pick.draw(st.integers(0, X.shape[0] - 1))
        col = pick.draw(st.integers(0, X.shape[1] - 1))
        cells = cells_of(X)
        cells[row][col] = cell
        tmp = tmp_path_factory.mktemp("csv")
        labelled = write_rows(tmp / "d.csv", [r + [str(lab)] for r, lab in zip(cells, y)])
        features = write_rows(tmp / "f.csv", cells)
        for read in (lambda: load_csv(labelled, -1), lambda: load_features_csv(features)):
            with pytest.raises(DataFormatError) as err:
                read()
            assert f"(row {row}, column {col})" in str(err.value)
            assert repr(cell) in str(err.value)

    @pytest.mark.parametrize("cell", ["1_0", " 2.5 ", "\u0661\u0662", "+.5", "nan", "inf",
                                      "0x10", ""])
    def test_cell_reads_as_python_float(self, tmp_path, cell):
        """A cell holds what ``float()`` makes of it, or fails naming itself."""
        path = tmp_path / "d.csv"
        path.write_text(f"0.5,1.5,0\n2.5,{cell},1\n", encoding="utf-8")
        try:
            value = float(cell)
        except ValueError:
            value = float("nan")
        if np.isfinite(value):
            assert np.stack([ex.features for ex in load_csv(path, 2)]).tolist() == [
                [0.5, 1.5], [2.5, value]]
        else:
            with pytest.raises(DataFormatError) as err:
                load_csv(path, 2)
            assert f"feature {cell!r} is not a finite number (row 1, column 1)" == str(err.value)

    @settings(max_examples=50, deadline=None)
    @given(labelled_matrices(), st.data())
    def test_short_row_names_its_row(self, tmp_path_factory, data, pick):
        cells = cells_of(np.tile(data[0], (2, 2)))
        row = pick.draw(st.integers(1, len(cells) - 1))  # row 0 sets the width
        cells[row].pop()
        with pytest.raises(DataFormatError) as err:
            load_features_csv(write_rows(tmp_path_factory.mktemp("csv") / "f.csv", cells))
        assert f"(row {row})" in str(err.value)
