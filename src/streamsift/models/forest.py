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
feature x row entries, one depth level at a time. Every bootstrap is drawn
before any block grows, so the blocks are independent: they go to
:func:`runner.share`, which lets the calling thread and one helper thread
grow them and returns them in block order, so each tree has the same bits
whichever thread grows it. A tree searches its distinct bootstrap rows,
each weighted by the number of times it was drawn: a repeated row never
forms a cell, because a cell needs a change of value, so the weighted class
counts left of each cell (integer-valued floats, exact) are those of a
search over every drawn row. The weighted counts also decide ``min_leaf``,
whether a node may split and its leaf distribution.
``X``'s columns are argsorted once per fit (stably), and a tree's order for
each feature is that order filtered to its rows; rows of equal value may
then come in another order than a per-tree sort gives, which cannot change a
cell's counts or threshold. Every open node of a level owns one contiguous
segment of the ``(d, R)`` order array that lists its rows in ascending order
of each feature; a stable boolean mask moves the rows of each split into its
left, then its right child's segment, so no node sorts again. A level's
search covers every node at once. Each row's multiplicity sits in its
class's bit field of uint64 words, a field as wide as the bit length of the
level's largest node weight, so no sum of a node's rows carries between
fields. The features go in chunks of about ``_CHUNK_CELLS`` cells (at least
one feature each), with one running sum per word over a chunk's rows: a
cell's left counts are its difference at the cell and at its (feature, node)
segment start, exact modulo 2**64 however often the sum wraps. Finally each
tree's nodes are numbered in preorder (node, left subtree, right subtree).

Screen: each cell with left and right counts l and r first gets
``G = sum(l**2) / nl + sum(r**2) / nr``, which equals ``n * (1 - score)`` in
exact arithmetic; the sums of squares of integer counts are exact in any
order. A chunk keeps only the cells with ``G >= max(G) - _SCREEN * n`` over
the node's cells so far. Once per level, the kept cells, joined in feature
order and screened again against each node's largest G, go on to the Gini
expression on C-contiguous (cells, C) counts, so each score has the bits a
per-node search gives it, and the first lowest score by (feature, position)
wins. This is exact: G and the Gini expression each lie within a few ulps of
the same rational, so every cell that ties or beats the node's lowest score
passes, whatever n is. A cell that leaves fewer than ``min_leaf`` rows (by
weight) on a side gets ``G = -inf`` and never passes. Should the kept cells
outgrow a chunk (when many cells tie), they are cut to each node's first
lowest cell so far, which no later cell displaces unless it scores lower.

Prediction: the forest keeps all K trees' nodes in one set of packed
arrays, tree after tree, with each tree's root offset; a child index counts
from its own tree's root, so each tree's slice is that tree on its own. One
walk moves every (tree, input) pair down at once, from its tree's root until
all of them sit at leaves, and gathers their leaf distributions as (K, N, C).
"""

from collections import namedtuple
from functools import partial

import numpy as np

from ..errors import FitError, ValidationError
from ..rng import rng_from
from ..runner import share
from .base import Model, as_inputs, dataset_arrays

# feature x row entries of the trees grown together in one block, a tree
# counting the larger of its draws and X's rows; bounds the block's values and
# sort orders
_BLOCK_CELLS = 1 << 18
# cells (value changes) of a level searched at once, and the most cells kept
# for the level's Gini; bounds the (cells, C) left counts unpacked per chunk
_CHUNK_CELLS = 1 << 13
# a cell whose G lies more than _SCREEN * n below its node's largest cannot
# tie the node's lowest Gini score (see the module docstring)
_SCREEN = 1e-12


def _gini(counts, n):
    """Gini impurity of rows of class counts, shape (V, C), with row totals n."""
    p = counts / n[:, None]
    p *= p
    return 1.0 - p.sum(axis=-1)


# one tree's nodes, or many trees' packed end to end: a leaf has feature -1 and
# children -1, an inner node sends x[feature] <= threshold to left, children
# count from their tree's root, and dist holds each leaf's class distribution
Nodes = namedtuple("Nodes", "feature threshold left right dist")


def _first_lowest(kept, top, total, weight):
    """The first lowest-Gini cell of each node among the screened cells
    ``kept``, a list of (feature, column, node, left counts, G) arrays in
    feature order, screened again against each node's largest G ``top``;
    returned as one such tuple, one cell per node that has one."""
    fi, col, node, left, G = kept[0] if len(kept) == 1 else map(np.concatenate, zip(*kept))
    n = weight[node]
    keep = np.flatnonzero(G >= top[node] - _SCREEN * n)
    fi, col, node, left, G, n = (a[keep] for a in (fi, col, node, left, G, n))
    right = np.take(total, node, axis=0)
    right -= left
    nl = left.sum(axis=1)
    score = (nl * _gini(left, nl) + (n - nl) * _gini(right, n - nl)) / n
    low = np.full(len(top), np.inf)
    np.minimum.at(low, node, score)
    hit = np.flatnonzero(score == low[node])
    at = np.full(len(top), fi.size)
    np.minimum.at(at, node[hit], hit)  # the first minimum of each node
    win = at[at < fi.size]
    return fi[win], col[win], node[win], left[win], G[win]


def _screen_chunk(change, order, f0, f1, packed, word, shift, mask, start, node_of,
                  total, weight, min_leaf, top):
    """(feature, column, node, left counts, G) of the cells of features
    ``f0:f1`` that pass the screen, in feature order, with ``top`` raised to
    each node's largest G; ``change`` marks the level's cells, and ``packed``
    holds class c's counts in the ``mask`` bits from ``shift[c]`` of ``word[c]``."""
    R = order.shape[1]
    fi, col = np.nonzero(change[f0:f1])
    col += 1
    node = node_of[col]
    o = order[f0:f1].ravel()
    # cells are feature-major; each running sum is 0 before the chunk's first entry
    cell = fi * R + col
    seg = fi * R + start[node]
    run = np.zeros(o.size + 1, dtype=np.uint64)
    diff = np.empty((len(packed), fi.size), dtype=np.uint64)
    for k in range(len(packed)):
        packed[k].take(o, out=run[1:])
        np.cumsum(run, out=run)
        np.subtract(run[cell], run[seg], out=diff[k])
    del run
    left = ((diff[word] >> shift[:, None]) & mask).T.astype(float, order="C")  # (V, C)
    right = np.take(total, node, axis=0)
    right -= left
    nl = left @ np.ones(len(word))  # integer-valued floats: exact in any order
    n = weight[node]
    # G = n (1 - score) in exact arithmetic, from exact sums of squares
    G = (np.einsum("ij,ij->i", left, left) / nl
         + np.einsum("ij,ij->i", right, right) / (n - nl))
    G[(nl < min_leaf) | (n - nl < min_leaf)] = -np.inf
    np.maximum.at(top, node, G)
    keep = np.flatnonzero((G >= top[node] - _SCREEN * n) & (G > -np.inf))
    return f0 + fi[keep], col[keep], node[keep], left[keep], G[keep]


def _best_splits(xt, y, w, order, start, node_of, can_split, total, weight,
                 min_leaf):
    """(feature, column) of each node's lowest-Gini cell, feature -1 where
    the node has none; the column is that of the cell's first row on the
    right. ``order`` holds the J nodes' distinct rows in segments starting at
    ``start``, ``node_of`` is the node of each column, ``w`` each row's
    multiplicity, and ``total`` and ``weight`` the nodes' weighted (J, C)
    class counts and sizes."""
    J, C = total.shape
    d = order.shape[0]
    feat = np.full(J, -1)
    column = np.zeros(J, dtype=np.intp)
    ok = can_split[node_of]
    ok[start] = False  # no cell before a segment's first row
    if not ok.any():
        return feat, column
    # the level's cells: where a feature's sorted values rise within a node
    # that may split; the sorted values are dropped once the mask is built
    xs = xt[np.arange(d)[:, None], order]
    change = xs[:, 1:] > xs[:, :-1]
    del xs
    change &= ok[1:]
    ends = np.cumsum(np.count_nonzero(change, axis=1))  # cells up to each feature's end
    # a row's multiplicity goes to its class c's field, from bit shift[c] of word[c]
    bits = int(weight.max()).bit_length()
    word, field = np.divmod(np.arange(C), 64 // bits)
    shift = (field * bits).astype(np.uint64)
    packed = np.zeros((word[-1] + 1, y.size), dtype=np.uint64)
    packed[word[y], np.arange(y.size)] = w.astype(np.uint64) << shift[y]
    mask = np.uint64((1 << bits) - 1)
    top = np.full(J, -np.inf)  # the largest G of each node so far
    kept, num_kept = [], 0  # the cells that passed the screen, in feature order
    f0 = 0
    while f0 < d:
        # the features whose cells fit in one chunk, and at least one
        done = ends[f0 - 1] if f0 else 0
        f1 = max(f0 + 1, int(np.searchsorted(ends, done + _CHUNK_CELLS, "right")))
        if ends[f1 - 1] > done:
            kept.append(_screen_chunk(change, order, f0, f1, packed, word, shift, mask,
                                      start, node_of, total, weight, min_leaf, top))
            num_kept += kept[-1][0].size
        if num_kept > _CHUNK_CELLS:  # all but each node's first lowest cell go
            kept = [_first_lowest(kept, top, total, weight)]
            num_kept = kept[0][0].size
        f0 = f1
    if num_kept:
        fi, col, node, _, _ = _first_lowest(kept, top, total, weight)
        feat[node] = fi
        column[node] = col
    return feat, column


def _grow_block(XT, y, presort, boots, num_classes, max_depth, min_leaf, beta):
    """Grow one tree per row of ``boots`` on ``XT[:, idx]``, ``y[idx]``, given
    ``XT``'s stable column orders ``presort``; see the module docstring."""
    B = boots.shape[0]
    d, N = XT.shape
    C = num_classes
    # entry b * N + i counts the draws of row i by tree b
    drawn = np.bincount((boots + (np.arange(B) * N)[:, None]).ravel(), minlength=B * N)
    present = drawn > 0
    # the block's rows: each tree's distinct rows, tree by tree
    ids = np.flatnonzero(present) % N
    w = drawn[present].astype(float)
    xt = XT.take(ids, axis=1)  # C-contiguous, unlike XT[:, ids]
    yb = y[ids]
    # each (tree, row) pair's column in the block, -1 where the tree never drew it
    local = np.where(present, np.cumsum(present) - 1, -1)
    order = np.take(local.reshape(B, N), presort, axis=1).transpose(1, 0, 2)  # (d, B, N)
    order = order[order >= 0].reshape(d, ids.size)
    rows = np.arange(ids.size)
    size = present.reshape(B, N).sum(axis=1)
    start, tree = np.cumsum(size) - size, np.arange(B)
    levels = []  # per level: tree, feature, threshold, leaf dists, split mask
    depth = 0
    while True:
        J = size.size
        node_of = np.repeat(np.arange(J), size)
        total = np.bincount(node_of * C + yb[rows], weights=w[rows],
                            minlength=J * C).reshape(J, C)
        weight = total.sum(axis=1)
        can_split = ((depth < max_depth) & (weight >= 2 * min_leaf)
                     & (total.max(axis=1) < weight))
        feat, column = _best_splits(xt, yb, w, order, start, node_of, can_split,
                                    total, weight, min_leaf)
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
        dist[leaf] = (total[leaf] + beta) / (weight[leaf] + beta * C)[:, None]
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
        # each half straight into its columns of the new order, so that at
        # most one half is ever copied on top of the old order and the new
        left = int(to_left.sum())
        parts = np.empty((d, left + int(to_right.sum())), dtype=order.dtype)
        parts[:, :left] = order[sides & in_split].reshape(d, left)
        parts[:, left:] = order[~sides & in_split].reshape(d, -1)
        order = parts
        rows = np.concatenate((rows[to_left], rows[to_right]))
        n_left = np.bincount(node_of[to_left], minlength=J)[split]
        size = np.concatenate((n_left, size[split] - n_left))
        start = np.cumsum(size) - size
        tree = np.concatenate((tree[split], tree[split]))
        depth += 1
    return _number_preorder(levels, C)


def _number_preorder(levels, num_classes):
    """A block's packed ``Nodes``, each tree numbered in preorder, and each
    tree's root, from per-level node records. The S splits of a level have
    their left children at positions 0..S-1 of the next level and their right
    children at S..2S-1."""
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
    return Nodes(feature, threshold, left, right, dist), offset


def _grow_trees(X, y, boots, num_classes, max_depth, min_leaf, beta):
    """Packed ``Nodes`` of one tree per bootstrap index row of ``boots``
    (shape (K, n)) over the rows of ``X`` (shape (N, d)) and labels ``y``,
    and each tree's root."""
    K, n = boots.shape
    XT = np.ascontiguousarray(X.T)
    presort = np.argsort(XT, axis=1, kind="stable")
    per_block = max(1, _BLOCK_CELLS // max(1, XT.shape[0] * max(n, XT.shape[1])))
    blocks = share([partial(_grow_block, XT, y, presort, boots[b:b + per_block],
                            num_classes, max_depth, min_leaf, beta)
                    for b in range(0, K, per_block)])
    sizes = [len(nodes.feature) for nodes, _ in blocks]
    shifts = np.cumsum(sizes) - sizes
    roots = np.concatenate([r + s for (_, r), s in zip(blocks, shifts)])
    return Nodes(*map(np.concatenate, zip(*(nodes for nodes, _ in blocks)))), roots


def _leaf_dists(nodes, roots, X):
    """(K, N, C) leaf distributions of the packed trees at the rows of ``X``."""
    feature, threshold, left, right, dist = nodes
    N = len(X)
    root = np.repeat(roots, N)  # pair k * N + i is tree k at input i
    node = root.copy()
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        go_left = X[active % N, feature[at]] <= threshold[at]
        node[active] = root[active] + np.where(go_left, left[at], right[at])
        active = active[feature[node[active]] >= 0]
    return dist[node].reshape(len(roots), N, dist.shape[1])


class BootstrapForest(Model):
    def __init__(self, num_classes, num_trees=20, max_depth=6, min_leaf=1,
                 beta=1.0, seed=0):
        if num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if num_trees < 1:
            raise ValidationError("num_trees must be >= 1")
        if max_depth < 0:
            raise ValidationError(f"max_depth must be >= 0, got {max_depth}")
        if not 0 < beta < np.inf:  # False for NaN too
            raise ValidationError(f"leaf smoothing beta must be positive and finite, got {beta}")
        if min_leaf < 1:
            raise ValidationError("min_leaf must be >= 1")
        self.num_classes = int(num_classes)
        self.num_samples = int(num_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.beta = float(beta)
        self._rng = rng_from(seed)
        self.trees = None

    def fit(self, examples):
        X, y = dataset_arrays(examples, self.num_features)
        if len(examples) == 0:
            raise FitError("cannot fit a forest on an empty training set")
        if np.any(y >= self.num_classes):
            raise FitError(f"label {y.max()} out of range for C={self.num_classes}")
        n = len(examples)
        boots = np.stack([self._rng.integers(0, n, size=n)
                          for _ in range(self.num_samples)])
        self._nodes, self._roots = _grow_trees(X, y, boots, self.num_classes,
                                               self.max_depth, self.min_leaf, self.beta)
        self.trees = [Nodes(*views) for views in  # each tree's slices, not copies
                      zip(*(np.split(a, self._roots[1:]) for a in self._nodes))]
        self.num_features = X.shape[1]
        return self

    def conditionals(self, X):
        if self.trees is None:
            raise FitError("model is not fitted")
        X = as_inputs(X, self.num_features)
        return _leaf_dists(self._nodes, self._roots, X).transpose(1, 0, 2)
