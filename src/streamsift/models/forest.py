"""Bootstrap ensemble of from-scratch decision trees.

Each tree is grown on an independent bootstrap resample; its conditional
predictive at an input is the Laplace-smoothed class frequency of the leaf
the input falls into. Smoothing keeps every leaf probability strictly
positive so that likelihood reweighting never degenerates.

Split rule: a node splits at the lowest weighted Gini impurity over every
(feature, position) cell of its rows sorted by that feature, where a cell
must leave at least ``min_leaf`` rows on each side and sit where the sorted
value changes. Ties go to the lowest feature, then the lowest threshold; the
threshold is the midpoint of the two values around the cell, or the lower
value where the midpoint rounds up to the upper one (adjacent floats) or
overflows, so ``x <= threshold`` always splits as scored. Class counts
are integers, so every score is exact up to the one float expression that
computes it.

Presort invariant: a tree argsorts its bootstrap rows once per feature
(stably), and each node receives its rows in that order for every feature.
A child's orders are the parent's filtered to the child's rows, which is the
child's own stable argsort, so no node sorts again.
"""

import numpy as np

from ..errors import FitError, ValidationError
from ..rng import rng_from
from .base import Model, as_inputs, dataset_arrays


def _gini(counts, n):
    """Gini impurity of rows of class counts, shape (V, C), with row totals n."""
    p = counts / n[:, None]
    return 1.0 - (p * p).sum(axis=-1)


class _Tree:
    """Array-backed binary decision tree for class-distribution prediction."""

    def __init__(self, num_classes, max_depth, min_leaf, beta):
        self.num_classes = num_classes
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.beta = beta
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.dist = []

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

    def _best_split(self, XT, y, order):
        """(feature, threshold) of the lowest weighted-Gini split of the rows
        in ``order`` (see the module docstring), or None when no split
        respects min_leaf or all feature values coincide."""
        n = order.shape[1]
        pos = np.arange(self.min_leaf, n - self.min_leaf + 1)
        if pos.size == 0:
            return None
        xs = np.take_along_axis(XT, order, axis=1)  # (d, n)
        valid = xs[:, pos] > xs[:, pos - 1]  # (d, P)
        feats = np.flatnonzero(valid.any(axis=1))
        if feats.size == 0:
            return None
        # feature-major cells: argmin tie-breaks to the lowest feature first,
        # then the lowest threshold within it
        fi, pi = np.nonzero(valid[feats])
        labels = y[order[feats]]  # (d', n)
        left = np.cumsum(labels[..., None] == np.arange(self.num_classes),
                         axis=1, dtype=np.int32)  # (d', n, C)
        split = pos[pi]
        lc = left[fi, split - 1]  # (V, C)
        rc = left[fi, -1] - lc
        nl = split.astype(float)
        score = (nl * _gini(lc, nl) + (n - nl) * _gini(rc, n - nl)) / n
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
        self.feature = np.array(self.feature)
        self.threshold = np.array(self.threshold)
        self.left = np.array(self.left)
        self.right = np.array(self.right)
        self.dist = np.stack([d if d is not None else np.zeros(self.num_classes)
                              for d in self.dist])
        return self

    def _grow(self, XT, y, rows, order, depth):
        """Grow the subtree over ``rows``; ``order`` holds the same rows once
        per feature, in stable ascending order of that feature, shape (d, n)."""
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

    def predict_dist(self, X):
        """Leaf class distributions for a batch, shape (N, C)."""
        node = np.zeros(len(X), dtype=int)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = node[active]
            go_left = X[active, self.feature[idx]] <= self.threshold[idx]
            node[active] = np.where(go_left, self.left[idx], self.right[idx])
            active = self.feature[node] >= 0
        return self.dist[node]


class BootstrapForest(Model):
    def __init__(self, num_classes, num_trees=20, max_depth=6, min_leaf=1,
                 beta=1.0, seed=0):
        if num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if beta <= 0:
            raise ValidationError("leaf smoothing beta must be positive")
        if min_leaf < 1:
            raise ValidationError("min_leaf must be >= 1")
        self.num_classes = int(num_classes)
        self.num_samples = int(num_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.beta = float(beta)
        self.seed = int(seed)
        self._rng = rng_from(seed)
        self.trees = None

    def fit(self, examples):
        X, y = dataset_arrays(examples)
        if len(examples) == 0:
            raise FitError("cannot fit a forest on an empty training set")
        if np.any(y >= self.num_classes):
            raise FitError(f"label {y.max()} out of range for C={self.num_classes}")
        n = len(examples)
        self.trees = []
        for _ in range(self.num_samples):
            idx = self._rng.integers(0, n, size=n)
            tree = _Tree(self.num_classes, self.max_depth, self.min_leaf, self.beta)
            tree.fit(X[idx], y[idx])
            self.trees.append(tree)
        return self

    def conditionals(self, X):
        if self.trees is None:
            raise FitError("model is not fitted")
        X = as_inputs(X)
        per_tree = np.stack([t.predict_dist(X) for t in self.trees])  # (K, N, C)
        return per_tree.transpose(1, 0, 2)
