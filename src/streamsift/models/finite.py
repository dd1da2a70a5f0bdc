"""Exact-Bayes oracle over an explicitly enumerated finite hypothesis set.

The "posterior samples" here are the complete hypothesis set with explicit
weights, so likelihood reweighting is exactly Bayesian updating. Inputs must
lie on the model's finite grid; each hypothesis is a table of conditional
predictives over that grid.
"""

import numpy as np

from ..errors import DegenerateEvidenceError, FitError, GridLookupError, ValidationError
from ..prob import check_probs, float_array
from .base import Model, as_input, as_inputs, dataset_arrays

# matching tolerance for grid lookups
GRID_ATOL = 1e-9
# inputs per lookup block: a block holds at most this many times G candidate
# grid rows, even when every grid row shares the sort coordinate
_LOOKUP_BLOCK = 256


def _clip_round_off(p):
    """``p`` with the round-off check_probs admits below 0 set to 0 (``p``
    itself if it has none), so fit's renormalised products stay >= 0."""
    return np.maximum(p, 0.0) if np.any(p < 0.0) else p


class FiniteHypothesisModel(Model):
    """Exact Bayes over J hypotheses tabulated on a finite input grid.

    An input x maps to the lowest grid row g with |grid[g, d] - x[d]| <=
    GRID_ATOL on every coordinate d; an input that matches no row raises
    :class:`GridLookupError` naming the first such input.
    """

    def __init__(self, grid, tables, prior_weights=None):
        """
        Parameters
        ----------
        grid : (G, D) array of the admissible inputs.
        tables : (J, G, C) array; tables[j, g] = p(y | grid[g], hypothesis j).
        prior_weights : (J,) prior mass per hypothesis; uniform if omitted.
        """
        self.grid = as_inputs(float_array(grid, "grid"))
        self.tables = float_array(tables, "tables")
        if self.tables.ndim != 3 or self.tables.shape[1] != self.grid.shape[0]:
            raise ValidationError(
                f"tables must be (J, G, C) with G={self.grid.shape[0]}, "
                f"got {self.tables.shape}"
            )
        if self.tables.shape[2] < 2:
            raise ValidationError("need at least 2 classes")
        check_probs(self.tables, "tables", axis=2)
        self.tables = _clip_round_off(self.tables)
        J = self.tables.shape[0]
        if prior_weights is None:
            prior = np.full(J, 1.0 / J)
        else:
            prior = float_array(prior_weights, "prior")
            if prior.shape != (J,):
                raise ValidationError(f"prior must have shape ({J},), got {prior.shape}")
            check_probs(prior, "prior")
        self.prior = _clip_round_off(prior)
        self.posterior = self.prior.copy()
        self.num_classes = self.tables.shape[2]
        self.num_samples = J
        # grid rows sorted by their first coordinate, for windowed lookups
        self._order = np.argsort(self.grid[:, 0], kind="stable")
        self._keys = self.grid[self._order, 0]

    def _lookup(self, X):
        """Lowest matching grid row for each row of X, or -1 where none.

        Each input is compared on every coordinate with the grid rows whose
        first coordinate lies within 2 * GRID_ATOL of its own. Rounding that
        bound moves it by half an ulp, which stays below GRID_ATOL wherever a
        row other than the input itself can pass the test, so the window
        holds every row the test accepts.
        """
        out = np.full(len(X), -1, dtype=np.intp)
        G = self.grid.shape[0]
        for start in range(0, len(X), _LOOKUP_BLOCK):
            block = X[start:start + _LOOKUP_BLOCK]
            x0 = block[:, 0]
            lo = np.searchsorted(self._keys, x0 - 2.0 * GRID_ATOL, side="left")
            hi = np.searchsorted(self._keys, x0 + 2.0 * GRID_ATOL, side="right")
            width = hi - lo
            row = np.repeat(np.arange(len(block)), width)
            offset = np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)
            cand = self._order[lo[row] + offset]
            match = np.all(np.abs(self.grid[cand] - block[row]) <= GRID_ATOL, axis=1)
            best = np.full(len(block), G, dtype=np.intp)
            np.minimum.at(best, row[match], cand[match])
            out[start:start + len(block)] = np.where(best < G, best, -1)
        return out

    def grid_indices(self, X):
        """Grid row of each row of X (see the class docstring)."""
        X = as_inputs(X)
        idx = self._lookup(X)
        missing = np.flatnonzero(idx < 0)
        if missing.size:
            raise GridLookupError(
                f"input {X[missing[0]].tolist()} is not on the model grid"
            )
        return idx

    def grid_index(self, x):
        """Grid row of a single input."""
        return int(self.grid_indices(as_input(x))[0])

    def fit(self, examples):
        """Reset to the prior, then update exactly on each example in turn."""
        X, y = dataset_arrays(examples)
        idx = self._lookup(X)
        w = self.prior.copy()
        for x, g, label in zip(X, idx, y):
            if g < 0:
                raise GridLookupError(f"input {x.tolist()} is not on the model grid")
            if label >= self.num_classes:
                raise FitError(f"label {label} out of range for C={self.num_classes}")
            w = w * self.tables[:, g, label]
            total = w.sum()
            if total <= 0.0:
                raise DegenerateEvidenceError(
                    f"label {label} at {x.tolist()} has zero "
                    "likelihood under every hypothesis"
                )
            w = w / total
        self.posterior = w
        return self

    @property
    def sample_weights(self):
        return self.posterior

    def conditionals(self, X):
        idx = self.grid_indices(X)
        # tables is (J, G, C); gather to (N, J, C)
        return self.tables[:, idx, :].transpose(1, 0, 2)
