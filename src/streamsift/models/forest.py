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

Growth: the trees are grown together in blocks of at most ``_BLOCK_CELLS``
feature x row entries, one depth level at a time. A block's rows are the
concatenated bootstrap resamples, argsorted once per feature (stably) within
each tree. Every open node of a level owns one contiguous segment of the
``(d, R)`` order array that lists its rows in ascending order of each
feature; a stable boolean mask moves the rows of each split into its left,
then its right child's segment, so no node sorts again. A level's search
covers every node at once, ``_CHUNK_CELLS`` entries of the order array at a
time: one ``bincount`` counts the classes in each piece between consecutive
boundaries (each (feature, node) segment start and each cell), and a running
sum of the pieces, restarted at each segment start, gives the counts left of
every cell. The Gini expression then runs on C-contiguous (cells, C) counts,
so each score has the bits a per-node search gives it. Finally each tree's
nodes are numbered in preorder (node, left subtree, right subtree).
"""

import numpy as np

from ..errors import FitError, ValidationError
from ..rng import rng_from
from .base import Model, as_inputs, dataset_arrays

# feature x row entries of the trees grown together in one block; bounds the
# block's values and sort orders
_BLOCK_CELLS = 1 << 18
# entries of a level's order array searched at once; bounds the (cells, C)
# class counts
_CHUNK_CELLS = 1 << 13


def _gini(counts, n):
    """Gini impurity of rows of class counts, shape (V, C), with row totals n."""
    p = counts / n[:, None]
    p *= p
    return 1.0 - p.sum(axis=-1)


class _Tree:
    """Array-backed binary decision tree for class-distribution prediction.

    Node 0 is the root; a leaf has ``feature`` -1 and children -1, an inner
    node sends ``x[feature] <= threshold`` to ``left``. ``dist`` holds each
    leaf's class distribution (zeros at inner nodes)."""

    def __init__(self, feature, threshold, left, right, dist):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.dist = dist

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


def _best_splits(xt, y, order, start, size, node_of, can_split, total, min_leaf):
    """(feature, column) of each node's lowest-Gini cell, feature -1 where
    the node has none; the column is that of the cell's first row on the
    right. ``order`` holds the J nodes' rows in segments ``start``/``size``,
    ``node_of`` is the node of each column and ``total`` the (J, C) class
    counts."""
    J, C = total.shape
    d, R = order.shape
    pos = np.arange(R) - start[node_of]
    ok = can_split[node_of] & (pos >= min_leaf) & (pos <= size[node_of] - min_leaf)
    best = np.full(J, np.inf)
    feat = np.full(J, -1)
    column = np.zeros(J, dtype=np.intp)
    if not ok[1:].any():
        return feat, column
    step = max(1, _CHUNK_CELLS // R)
    for f0 in range(0, d, step):
        o = order[f0:f0 + step]
        xs = np.take_along_axis(xt[f0:f0 + step], o, axis=1)
        fi, col = np.nonzero((xs[:, 1:] > xs[:, :-1]) & ok[1:])
        if fi.size == 0:
            continue
        col += 1
        node = node_of[col]
        # cells are feature-major; a (feature, node) group's pieces start at
        # its segment start and at each of its cells
        cell = fi * R + col
        seg = fi * R + start[node]
        bound = np.zeros(o.size, dtype=bool)
        bound[cell] = True
        bound[seg] = True
        piece = np.cumsum(bound)  # 1 + the boundaries before each entry
        counts = np.bincount(piece * C + y[o].ravel(), minlength=(piece[-1] + 1) * C)
        upto = np.cumsum(counts.reshape(-1, C), axis=0)  # before each boundary
        left = np.take(upto, piece[cell] - 1, axis=0)  # (V, C)
        left -= np.take(upto, piece[seg] - 1, axis=0)
        right = np.take(total, node, axis=0)
        right -= left
        nl = (col - start[node]).astype(float)
        n = size[node].astype(float)
        score = (nl * _gini(left, nl) + (n - nl) * _gini(right, n - nl)) / n
        low = np.full(J, np.inf)
        np.minimum.at(low, node, score)
        hit = np.flatnonzero(score == low[node])
        at = np.full(J, fi.size)
        np.minimum.at(at, node[hit], hit)  # the first minimum of each node
        better = np.flatnonzero(low < best)  # an earlier chunk keeps a tie
        best[better] = low[better]
        feat[better] = f0 + fi[at[better]]
        column[better] = col[at[better]]
    return feat, column


def _grow_block(XT, y, boots, num_classes, max_depth, min_leaf, beta):
    """Grow one tree per row of ``boots`` on ``XT[:, idx]``, ``y[idx]``; see
    the module docstring."""
    B, n = boots.shape
    d = XT.shape[0]
    C = num_classes
    xt = XT[:, boots.ravel()]  # (d, R): the block's rows, tree by tree
    yb = y[boots.ravel()]
    order = np.argsort(xt.reshape(d, B, n), axis=2, kind="stable")
    order += (np.arange(B) * n)[:, None]
    order = order.reshape(d, B * n)
    rows = np.arange(B * n)
    start, size, tree = np.arange(B) * n, np.full(B, n), np.arange(B)
    levels = []  # per level: tree, feature, threshold, leaf dists, split mask
    depth = 0
    while True:
        J = size.size
        node_of = np.repeat(np.arange(J), size)
        total = np.bincount(node_of * C + yb[rows], minlength=J * C).reshape(J, C)
        can_split = ((depth < max_depth) & (size >= 2 * min_leaf)
                     & (total.max(axis=1) < size))
        feat, column = _best_splits(xt, yb, order, start, size, node_of, can_split,
                                 total, min_leaf)
        split = feat >= 0
        thr = np.zeros(J)
        if split.any():
            f, c = feat[split], column[split]
            lo, hi = xt[f, order[f, c - 1]], xt[f, order[f, c]]
            with np.errstate(over="ignore", invalid="ignore"):
                mid = 0.5 * (lo + hi)
            thr[split] = np.where((lo <= mid) & (mid < hi), mid, lo)
        dist = np.zeros((J, C))
        leaf = ~split
        dist[leaf] = (total[leaf] + beta) / (size[leaf] + beta * C)[:, None]
        levels.append((tree, feat, thr, dist, split))
        if not split.any():
            break
        # stable partition: every split's left rows, then every split's right rows
        in_split = split[node_of]
        go_left = np.zeros(xt.shape[1], dtype=bool)
        go_left[rows[in_split]] = (xt[feat[node_of[in_split]], rows[in_split]]
                                   <= thr[node_of[in_split]])
        to_left = go_left[rows] & in_split
        to_right = ~go_left[rows] & in_split
        sides = go_left[order]
        order = np.concatenate((order[sides & in_split].reshape(d, -1),
                                order[~sides & in_split].reshape(d, -1)), axis=1)
        rows = np.concatenate((rows[to_left], rows[to_right]))
        n_left = np.bincount(node_of[to_left], minlength=J)[split]
        size = np.concatenate((n_left, size[split] - n_left))
        start = np.cumsum(size) - size
        tree = np.concatenate((tree[split], tree[split]))
        depth += 1
    return _number_preorder(levels, C)


def _number_preorder(levels, num_classes):
    """Trees from per-level node records, each numbered in preorder. The S
    splits of a level have their left children at positions 0..S-1 of the
    next level and their right children at S..2S-1."""
    sub = [None] * len(levels)  # subtree sizes
    below = None
    for i in range(len(levels) - 1, -1, -1):
        split = levels[i][4]
        s = np.ones(split.size, dtype=np.intp)
        if below is not None:
            S = below.size // 2
            s[split] += below[:S] + below[S:]
        sub[i] = below = s
    offset = np.cumsum(sub[0]) - sub[0]  # the roots are trees 0..B-1 in order
    count = int(sub[0].sum())
    feature = np.full(count, -1)
    threshold = np.zeros(count)
    left = np.full(count, -1)
    right = np.full(count, -1)
    dist = np.zeros((count, num_classes))
    pre = offset
    for i, (tree, feat, thr, leaf_dist, split) in enumerate(levels):
        feature[pre] = feat
        threshold[pre] = thr
        dist[pre] = leaf_dist
        if i + 1 < len(levels):
            S = int(split.sum())
            first = pre[split] + 1
            nxt = np.concatenate((first, first + sub[i + 1][:S]))
            left[pre[split]] = nxt[:S] - offset[tree[split]]
            right[pre[split]] = nxt[S:] - offset[tree[split]]
            pre = nxt
    ends = offset[1:]
    return [_Tree(*parts) for parts in zip(
        *(np.split(a, ends) for a in (feature, threshold, left, right, dist))
    )]


def _grow_trees(X, y, boots, num_classes, max_depth, min_leaf, beta):
    """One tree per bootstrap index row of ``boots`` (shape (K, n)) over the
    rows of ``X`` (shape (N, d)) and labels ``y``."""
    K, n = boots.shape
    XT = np.ascontiguousarray(X.T)
    per_block = max(1, _BLOCK_CELLS // max(1, XT.shape[0] * n))
    trees = []
    for b in range(0, K, per_block):
        trees += _grow_block(XT, y, boots[b:b + per_block], num_classes,
                             max_depth, min_leaf, beta)
    return trees


class BootstrapForest(Model):
    def __init__(self, num_classes, num_trees=20, max_depth=6, min_leaf=1,
                 beta=1.0, seed=0):
        if num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if num_trees < 1:
            raise ValidationError("num_trees must be >= 1")
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
        boots = np.stack([self._rng.integers(0, n, size=n)
                          for _ in range(self.num_samples)])
        self.trees = _grow_trees(X, y, boots, self.num_classes, self.max_depth,
                                 self.min_leaf, self.beta)
        return self

    def conditionals(self, X):
        if self.trees is None:
            raise FitError("model is not fitted")
        X = as_inputs(X)
        per_tree = np.stack([t.predict_dist(X) for t in self.trees])  # (K, N, C)
        return per_tree.transpose(1, 0, 2)
