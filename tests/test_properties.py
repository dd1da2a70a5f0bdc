"""Property tests: vectorized kernels against the loops they replaced, and
the CSV readers on drawn matrices."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from streamsift import (
    BootstrapForest,
    DataFormatError,
    FiniteHypothesisModel,
    GridLookupError,
    LabelledExample,
    TargetSet,
    ValidationError,
    load_csv,
    prob,
    save_csv,
)
from streamsift.acquisition import epig_scores, la_epig_scores
from streamsift.models import forest
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
    return old_mutual_information_of_array(joint).mean(axis=1)


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
            assert model.grid_index(x) == g
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
        assert np.array_equal(np.isnan(new), np.isnan(old))
        ok = ~np.isnan(old)
        assert np.allclose(new[ok], old[ok], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("C", [2, 10])
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_epig_is_label_mixture_of_la_epig(self, C, seed):
        rng = np.random.default_rng(seed)
        G = 5
        model, targets = random_ensemble(rng, int(rng.integers(1, 9)), C, G)
        X = np.arange(float(G))
        marg = model.marginal_predict_batch(X)
        mix = np.zeros(G)
        for c in range(C):
            la = la_epig_scores(model, X, np.full(G, c), targets)
            assert np.array_equal(np.isnan(la), marg[:, c] == 0.0)
            mix += np.where(marg[:, c] > 0.0, marg[:, c] * np.nan_to_num(la), 0.0)
        assert np.allclose(epig_scores(model, X, targets), mix, rtol=0.0, atol=1e-12)


# --- forest split search -----------------------------------------------------


NODE_ARRAYS = ("feature", "threshold", "left", "right", "dist")


def grow_one(X, y, num_classes, max_depth, min_leaf, beta):
    """The level-wise grower on the rows of X as given (no resampling)."""
    rows = np.arange(len(y))[None, :]
    return forest._grow_trees(X, y, rows, num_classes, max_depth, min_leaf, beta)[0]


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
        """Blocks of one tree, of a few and of all K; searches of one feature
        row at a time, of a few and of the whole level."""
        X, y = awkward_data(np.random.default_rng(seed), n, d, C)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_BLOCK_CELLS", block)
            mp.setattr(forest, "_CHUNK_CELLS", chunk)
            assert_same_forest(X, y, C, max_depth, min_leaf, K, seed % 1000)

    def test_mnist_like_single_tree(self, mnist_like):
        X, y = mnist_like
        assert_same_tree(X, y, 10, max_depth=10, min_leaf=1, beta=0.05)

    @pytest.mark.parametrize("block", [1, 1 << 30])
    def test_mnist_like_forest(self, mnist_like, block):
        X, y = mnist_like
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_BLOCK_CELLS", block)
            assert_same_forest(X, y, 10, max_depth=10, min_leaf=1, num_trees=3,
                               seed=7, beta=0.05)

    def test_no_features(self):
        assert_same_tree(np.zeros((5, 0)), np.array([0, 1, 1, 0, 1]), 2, 3, 1)
        assert_same_forest(np.zeros((5, 0)), np.array([0, 1, 1, 0, 1]), 2, 3, 1,
                           num_trees=4, seed=0)


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
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 130),
           st.integers(1, 40), st.integers(2, 10), st.booleans())
    def test_blocked_joint_entropy_matches_one_pass(self, seed, N, M, K, C, same_rows):
        """Einsum-built joints (the layout ``epig_scores`` reduces), with
        every candidate row identical in the degenerate case, at block
        budgets of one row, a few rows and the whole stack."""
        rng = np.random.default_rng(seed)
        cond_x = random_conditionals(rng, N, K, C)
        if same_rows:
            cond_x[:] = cond_x[0]
        cond_t = random_conditionals(rng, M, K, C)
        w = rng.dirichlet(np.ones(K))
        joint = np.einsum("nkc,mkd,k->nmcd", cond_x, cond_t, w, optimize=True)
        old = old_mutual_information_of_array(joint)
        for budget in (1, 4096, 1 << 40):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(prob, "_BLOCK_BYTES", budget)
                new = prob.mutual_information_of_array(joint)
            assert_same_array(new, old)
            assert np.array_equal(new.mean(axis=1), old.mean(axis=1))

    @pytest.mark.parametrize("shape", [(5, 5), (3, 4, 4), (2, 3, 4, 4)])
    def test_small_stacks_and_single_joint(self, shape):
        rng = np.random.default_rng(len(shape))
        joint = rng.dirichlet(np.ones(shape[-1] ** 2), size=shape[:-2])
        joint = joint.reshape(shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prob, "_BLOCK_BYTES", 1)
            new = prob.mutual_information_of_array(joint)
        old = old_mutual_information_of_array(joint)
        assert np.shape(new) == np.shape(old)
        assert np.array_equal(new, old)

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

    @settings(max_examples=50, deadline=None)
    @given(labelled_matrices(), st.data())
    def test_short_row_names_its_row(self, tmp_path_factory, data, pick):
        cells = cells_of(np.tile(data[0], (2, 2)))
        row = pick.draw(st.integers(1, len(cells) - 1))  # row 0 sets the width
        cells[row].pop()
        with pytest.raises(DataFormatError) as err:
            load_features_csv(write_rows(tmp_path_factory.mktemp("csv") / "f.csv", cells))
        assert f"(row {row})" in str(err.value)
