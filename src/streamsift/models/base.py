"""Common substrate for stochastic predictive models.

Every model exposes its posterior through a weighted finite ensemble of
parameter samples: row j of an ensemble's conditional matrix is
p(y | x, theta_j) and the weights are the (prior or posterior) mass on each
sample. Uniform weights give the usual Monte Carlo picture; non-uniform
weights let an exhaustive hypothesis enumeration share the same code path.
"""

import numpy as np

from ..errors import DegenerateEvidenceError, ValidationError
from ..prob import Categorical, check_probs, float_array


class LabelledExample:
    """A feature vector paired with an integer class label."""

    __slots__ = ("features", "label")

    def __init__(self, features, label):
        self.features = np.asarray(features, dtype=float)
        if self.features.ndim != 1:
            raise ValidationError(f"features must be 1-d, got {self.features.shape}")
        self.label = int(label)
        if self.label < 0:
            raise ValidationError(f"label must be non-negative, got {label}")

    def __repr__(self):
        return f"LabelledExample({self.features.tolist()}, {self.label})"

    def __eq__(self, other):
        return (
            isinstance(other, LabelledExample)
            and self.label == other.label
            and np.array_equal(self.features, other.features)
        )


def dataset_arrays(examples):
    """Stack a list of LabelledExample into (X, y) numpy arrays."""
    if len(examples) == 0:
        return np.zeros((0, 0)), np.zeros(0, dtype=int)
    X = np.stack([e.features for e in examples])
    y = np.array([e.label for e in examples], dtype=int)
    return X, y


def as_inputs(X):
    """X as a float array of input rows; a 1-D X is N inputs with one
    feature each."""
    X = np.asarray(X, dtype=float)
    return X[:, None] if X.ndim == 1 else X


def as_input(x):
    """A single input x as a batch of one, shape (1, d); a scalar x is one
    input with one feature."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        raise ValidationError(f"a single input must be a scalar or 1-d, got shape {x.shape}")
    return x.reshape(1, -1)


class PredictiveEnsemble:
    """K per-sample conditional predictives for one input, plus weights."""

    __slots__ = ("conditionals", "weights")

    def __init__(self, conditionals, weights):
        c = float_array(conditionals, "conditionals")
        w = float_array(weights, "weights")
        if c.ndim != 2 or c.shape[1] < 2:
            raise ValidationError(f"conditionals must be KxC with C >= 2, got {c.shape}")
        if w.shape != (c.shape[0],):
            raise ValidationError(f"weights shape {w.shape} does not match K={c.shape[0]}")
        check_probs(c, "conditionals", axis=1)
        check_probs(w, "weights")
        self.conditionals = c
        self.weights = w

    @property
    def num_samples(self):
        return self.conditionals.shape[0]

    @property
    def num_classes(self):
        return self.conditionals.shape[1]

    def marginal(self):
        """Weight-averaged predictive as a :class:`Categorical`."""
        p = self.weights @ self.conditionals
        return Categorical(p / p.sum())


def reweight_ensemble(ensemble, observed_conditionals):
    """Add-one-in importance reweighting of an ensemble.

    ``observed_conditionals[j]`` is the likelihood the j-th sample assigns to
    an observed label at the observed input. New weights are proportional to
    ``weight_j * observed_conditionals[j]``; the conditionals are untouched.
    Positive rescaling of the likelihood vector is absorbed by normalization.
    """
    lik = np.asarray(observed_conditionals, dtype=float)
    if lik.shape != (ensemble.num_samples,):
        raise ValidationError(
            f"need one likelihood per sample: got {lik.shape}, K={ensemble.num_samples}"
        )
    if np.any(lik < 0):
        raise ValidationError("likelihoods must be non-negative")
    w = ensemble.weights * lik
    total = w.sum()
    if total <= 0.0:
        raise DegenerateEvidenceError(
            "observation has zero likelihood under every posterior sample"
        )
    return PredictiveEnsemble(ensemble.conditionals, w / total)


class Model:
    """Contract shared by all predictive models.

    Subclasses set ``num_classes`` and ``num_samples`` and implement
    ``fit(examples)`` plus the vectorized ``conditionals(X) -> (N, K, C)``,
    which reads X through :func:`as_inputs`; ``sample_weights`` defaults to
    uniform. ``fit`` refits from scratch on the given training set.
    Prediction methods are read-only after fit.
    """

    num_classes = None
    num_samples = None

    def fit(self, examples):
        raise NotImplementedError

    def conditionals(self, X):
        """Per-sample conditionals for a batch of inputs, shape (N, K, C)."""
        raise NotImplementedError

    @property
    def sample_weights(self):
        """Posterior mass on each of the K samples; uniform unless overridden."""
        return np.full(self.num_samples, 1.0 / self.num_samples)

    def ensemble_predict(self, x):
        cond = self.conditionals(as_input(x))[0]
        return PredictiveEnsemble(cond, self.sample_weights)

    def marginal_predict(self, x):
        return self.ensemble_predict(x).marginal()

    def marginal_predict_batch(self, X):
        """Weight-averaged predictives for a batch, shape (N, C)."""
        cond = self.conditionals(X)
        p = np.einsum("k,nkc->nc", self.sample_weights, cond)
        return p / p.sum(axis=1, keepdims=True)

    def posterior_predictive_after_update(self, x, y, x_star):
        """Predictive at ``x_star`` after implicitly updating on ``(x, y)``.

        Implemented by likelihood reweighting of the sample ensemble; exact
        Bayes whenever the ensemble enumerates the hypothesis space.
        """
        lik = self.ensemble_predict(x).conditionals[:, int(y)]
        updated = reweight_ensemble(self.ensemble_predict(x_star), lik)
        return updated.marginal()
