"""Conjugate Dirichlet-categorical histogram classifier.

Features are binned on a uniform grid over a declared bounding box; each bin
carries an independent Dirichlet posterior over class labels. The conjugacy
gives exact predictives and an exact KL divergence between the parameter
posterior before and after one observation (only the touched bin changes).
"""

import numpy as np

from ..errors import DomainError, FitError, ValidationError
from ..prob import dirichlet_kl, float_array
from ..rng import rng_from
from .base import Model, as_input, as_inputs, as_labels, dataset_arrays


class DirichletHistogramClassifier(Model):
    def __init__(self, num_classes, lower, upper, bins_per_dim=4, alpha0=1.0,
                 num_samples=100, seed=0):
        if num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if not 0 < alpha0 < np.inf:  # False for NaN too
            raise DomainError(f"alpha0 must be finite and strictly positive, got {alpha0}")
        self.num_classes = int(num_classes)
        self.lower = np.atleast_1d(float_array(lower, "lower"))
        self.upper = np.atleast_1d(float_array(upper, "upper"))
        if self.lower.shape != self.upper.shape or np.any(self.upper <= self.lower):
            raise ValidationError("bounding box must satisfy lower < upper")
        self.bins_per_dim = int(bins_per_dim)
        if self.bins_per_dim < 1:
            raise ValidationError("bins_per_dim must be >= 1")
        self.alpha0 = float(alpha0)
        self.num_samples = int(num_samples)
        if self.num_samples < 1:
            raise ValidationError("num_samples must be >= 1")
        self.seed = int(seed)
        self.num_features = self.lower.shape[0]
        if self.bins_per_dim ** self.num_features > np.iinfo(np.intp).max:
            raise ValidationError(f"{self.bins_per_dim}**{self.num_features} bins are more "
                                  "than a bin index can hold")
        # concentrations of the occupied bins only; every other bin is alpha0
        self._occupied = {}
        self._fit_generation = 0
        self._sample_cache = {}

    def concentrations(self, b):
        """Dirichlet concentrations of flat bin b, shape (C,)."""
        alpha = self._occupied.get(b)
        if alpha is None:
            alpha = np.full(self.num_classes, self.alpha0)
        return alpha

    def bin_indices(self, X):
        """Flat bin index of each row of X; the upper box edge maps to the
        last bin."""
        X = as_inputs(X, self.num_features)
        outside = np.flatnonzero(np.any((X < self.lower) | (X > self.upper), axis=1))
        if outside.size:
            raise ValidationError(
                f"input {X[outside[0]].tolist()} outside bounding box "
                f"[{self.lower.tolist()}, {self.upper.tolist()}]"
            )
        width = (self.upper - self.lower) / self.bins_per_dim
        per_dim = np.minimum(((X - self.lower) / width).astype(int), self.bins_per_dim - 1)
        # row-major, the integers np.ravel_multi_index gives: they seed each bin's draws
        return per_dim @ self.bins_per_dim ** np.arange(self.num_features - 1, -1, -1)

    def bin_index(self, x):
        """Flat bin index of a single input."""
        return int(self.bin_indices(as_input(x))[0])

    def fit(self, examples):
        """Reset every bin to the prior, then add one count per example."""
        X, y = dataset_arrays(examples)
        # the first bad row in input order decides which error is raised
        bad_label = np.flatnonzero(y >= self.num_classes)
        first_bad = bad_label[0] if bad_label.size else len(y)
        bins = self.bin_indices(X[:first_bad])
        if bad_label.size:
            raise FitError(f"label {y[first_bad]} out of range for C={self.num_classes}")
        occupied, inverse = np.unique(bins, return_inverse=True)
        alpha = np.full((occupied.size, self.num_classes), self.alpha0)
        np.add.at(alpha, (inverse, y), 1.0)
        self._occupied = dict(zip(occupied.tolist(), alpha))
        self._fit_generation += 1
        self._sample_cache = {}
        return self

    def _bin_samples(self, b):
        """K cached Dirichlet draws for bin b; deterministic per fit and seed."""
        cached = self._sample_cache.get(b)
        if cached is None:
            rng = rng_from(self.seed, self._fit_generation, b)
            cached = rng.dirichlet(self.concentrations(b), size=self.num_samples)
            self._sample_cache[b] = cached
        return cached

    def conditionals(self, X):
        bins, inverse = np.unique(self.bin_indices(X), return_inverse=True)
        samples = np.empty((len(bins), self.num_samples, self.num_classes))
        for i, b in enumerate(bins.tolist()):
            samples[i] = self._bin_samples(b)
        return samples[inverse]

    # --- exact conjugate quantities -------------------------------------

    def exact_posterior_predictive(self, x):
        """Exact predictive at x: normalized concentrations of its bin."""
        alpha = self.concentrations(self.bin_index(x))
        return alpha / alpha.sum()

    def exact_updated_predictive(self, x, y, x_star=None):
        """Exact predictive at x_star after a conjugate update on (x, y)."""
        y = int(as_labels(y, self.num_classes))
        b = self.bin_index(x)
        b_star = b if x_star is None else self.bin_index(x_star)
        alpha = self.concentrations(b_star).copy()
        if b_star == b:
            alpha[y] += 1.0
        return alpha / alpha.sum()

    def parameter_kl_of_update(self, x, y):
        """KL(posterior after adding (x, y) || current posterior).

        Bins are independent, so only the touched bin contributes.
        """
        alpha = self.concentrations(self.bin_index(x))
        alpha_post = alpha.copy()
        alpha_post[int(as_labels(y, self.num_classes))] += 1.0
        return dirichlet_kl(alpha_post, alpha)
