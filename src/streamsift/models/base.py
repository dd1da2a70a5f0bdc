"""Common substrate for stochastic predictive models.

Every model exposes its posterior through a weighted finite ensemble of
parameter samples: row j of an ensemble's conditional matrix is
p(y | x, theta_j) and the weights are the (prior or posterior) mass on each
sample. Uniform weights give the usual Monte Carlo picture; non-uniform
weights let an exhaustive hypothesis enumeration share the same code path.

Input rule: models read input rows through ``as_inputs(X, self.num_features)``:
finite numbers, 2-D (a 1-D X is one column) and, if any, of the model's width.
Training-set rule: examples become (X, y) arrays only through
``dataset_arrays(examples, width)``: all of one width, X through the input rule.
"""

import numpy as np

from ..errors import DegenerateEvidenceError, ValidationError
from ..prob import Categorical, check_probs, float_array


class LabelledExample:
    """A feature vector paired with an integer class label."""

    __slots__ = ("features", "label")

    def __init__(self, features, label):
        self.features = float_array(features, "features")
        if self.features.ndim != 1:
            raise ValidationError(f"features must be 1-d, got {self.features.shape}")
        label = as_labels(label)
        if label.ndim:
            raise ValidationError(f"label must be a single integer, got {label.tolist()}")
        self.label = int(label)
        if self.label < 0:
            raise ValidationError(f"label must be non-negative, got {self.label}")

    def __repr__(self):
        return f"LabelledExample({self.features.tolist()}, {self.label})"

    def __eq__(self, other):
        return (
            isinstance(other, LabelledExample)
            and self.label == other.label
            and np.array_equal(self.features, other.features)
        )


def dataset_arrays(examples, width=None):
    """Stack a list of LabelledExample into (X, y) numpy arrays (the
    training-set rule); X follows the input rule, so [] gives shape (0, width)."""
    try:
        X = np.stack([e.features for e in examples]) if len(examples) else np.zeros((0, 0))
    except ValueError:  # widths differ: name the first example that differs
        w = [len(e.features) for e in examples]
        i = next(i for i, wi in enumerate(w) if wi != w[0])
        raise ValidationError(f"example {i} has {w[i]} features, "
                              f"but example 0 has {w[0]}") from None
    return as_inputs(X, width), np.array([e.label for e in examples], dtype=int)


def as_inputs(X, width=None):
    """X as 2-D finite input rows, ``width`` wide when given (the input rule);
    a 1-D X is N one-feature inputs, and no rows pass as shape (0, width)."""
    X = float_array(X, "inputs")
    X = X[:, None] if X.ndim == 1 else X
    if X.ndim != 2:
        raise ValidationError(f"inputs must be 1-d or 2-d, got shape {X.shape}")
    if width is None or X.shape[1] == width:
        return X
    if len(X) == 0:
        return X.reshape(0, width)
    raise ValidationError(f"inputs have {X.shape[1]} features, but the model takes {width}")


def as_input(x):
    """A single input x as a batch of one, shape (1, d); a scalar x is one
    input with one feature."""
    x = float_array(x, "inputs")
    if x.ndim > 1:
        raise ValidationError(f"a single input must be a scalar or 1-d, got shape {x.shape}")
    return x.reshape(1, -1)


def as_labels(y, num_classes=None, count=None):
    """y as an int array of class labels: every label a whole number (2.0
    passes; 1.7 and "2" do not), given ``num_classes`` in [0, num_classes),
    and given ``count`` one label for each of ``count`` inputs."""
    y = np.asarray(y)
    if count is not None and y.shape != (count,):
        raise ValidationError(f"got labels of shape {y.shape} for {count} inputs")
    ok = ((np.floor(y) == y) & (np.abs(y) < 2.0**63) if y.dtype.kind == "f"
          else np.full(y.shape, y.dtype.kind in "biu"))  # whole and int64-sized
    if num_classes is not None:
        ok &= np.isin(y, np.arange(num_classes))
    if np.count_nonzero(ok) < ok.size:
        span = "" if num_classes is None else f" in [0, {num_classes})"
        raise ValidationError(f"label {y[~ok].tolist()[0]!r} is not an integer{span}")
    return y.astype(int)


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

    def marginal(self):
        """Weight-averaged predictive as a :class:`Categorical`."""
        p = self.weights @ self.conditionals
        return Categorical(p / p.sum())


def add_one_in(weights, lik):
    """Implicit update of sample weights on one observation per row.

    ``lik[n, k]`` is the likelihood sample k assigns to row n's observation.
    Returns the evidence ``lik @ weights``, shape (N,), and the updated
    weights ``weights * lik[n] / evidence[n]``, shape (N, K); rows with zero
    evidence keep all-zero weights.
    """
    evidence = lik @ weights  # (N,)
    ok = evidence > 0.0
    w_post = np.zeros_like(lik)
    w_post[ok] = (weights * lik[ok]) / evidence[ok, None]
    return evidence, w_post


def reweight_ensemble(ensemble, observed_conditionals):
    """Add-one-in importance reweighting of an ensemble (:func:`add_one_in`).

    ``observed_conditionals[j]`` is the likelihood the j-th sample assigns to
    an observed label at the observed input. New weights are proportional to
    ``weight_j * observed_conditionals[j]``; the conditionals are untouched.
    Positive rescaling of the likelihood vector is absorbed by normalization.
    """
    lik = float_array(observed_conditionals, "likelihoods")
    if lik.shape != (ensemble.num_samples,):
        raise ValidationError(
            f"need one likelihood per sample: got {lik.shape}, K={ensemble.num_samples}"
        )
    if np.any(lik < 0):
        raise ValidationError("likelihoods must be non-negative")
    evidence, w_post = add_one_in(ensemble.weights, lik[None, :])
    if evidence[0] <= 0.0:
        raise DegenerateEvidenceError(
            "observation has zero likelihood under every posterior sample"
        )
    return PredictiveEnsemble(ensemble.conditionals, w_post[0])


class Model:
    """Contract shared by all predictive models.

    Subclasses set ``num_classes``, ``num_samples`` and ``num_features``, the
    input width (a forest's first fit sets it), and implement ``fit(examples)``
    plus the vectorized ``conditionals(X) -> (N, K, C)``, which both follow the
    input rule; ``sample_weights`` defaults to uniform. ``fit`` refits from
    scratch on the given training set. Prediction methods are read-only after fit.
    """

    num_features = None

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
        lik = self.ensemble_predict(x).conditionals[:, int(as_labels(y, self.num_classes))]
        updated = reweight_ensemble(self.ensemble_predict(x_star), lik)
        return updated.marginal()
