"""Subsampling objectives: MIC, EPIG, LA-EPIG, RHO-LOSS and random.

All scores are in nats (IG family) or nat-scaled log-likelihood units
(MIC, RHO-LOSS). The estimators share one substrate: the model's weighted
posterior-sample ensemble. Implicit updating on a candidate pair is done by
likelihood reweighting of the sample weights, which is exact Bayes whenever
the ensemble enumerates the hypothesis space and the standard Monte Carlo
estimator under uniform weights.

EPIG is computed through the plug-in joint over (candidate label, target
label): its per-target value is the mutual information of that joint, which
makes EPIG non-negative by construction and ties it to LA-EPIG through
EPIG(x) = sum_c p(y=c|x) * LA-EPIG(x, c).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEvidenceError, ValidationError
from .models.base import as_input, as_inputs, dataset_arrays
from .prob import entropy, entropy_of_array, mutual_information_of_array
from .rng import rng_from

OBJECTIVES = ("random", "mic", "epig", "la_epig", "rho_loss")


class TargetSet:
    """Inputs sampled from the target input distribution."""

    __slots__ = ("inputs",)

    def __init__(self, inputs):
        X = as_inputs(inputs)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValidationError(f"need at least one target input, got shape {X.shape}")
        self.inputs = X

    def __len__(self):
        return self.inputs.shape[0]


@dataclass
class AcquisitionScore:
    candidate_index: int
    value: float


def _has_exact_update(model):
    return hasattr(model, "exact_posterior_predictive") and hasattr(
        model, "exact_updated_predictive"
    )


# --- batched kernels (return one score per candidate row) -----------------


def epig_scores(model, X, targets):
    """EPIG for a batch of candidate inputs, shape (N,)."""
    cond_x, w = model.conditionals(X), model.sample_weights
    cond_t = model.conditionals(targets.inputs)  # (M, K, C)
    joint = np.einsum("nkc,mkd,k->nmcd", cond_x, cond_t, w, optimize=True)
    mi = mutual_information_of_array(joint)  # (N, M), clamped inside
    return mi.mean(axis=1)


def la_epig_scores(model, X, y, targets):
    """LA-EPIG for candidate pairs; degenerate candidates come back as NaN."""
    cond_x, w = model.conditionals(X), model.sample_weights
    y = np.asarray(y, dtype=int)
    cond_t = model.conditionals(targets.inputs)  # (M, K, C)
    prior = np.einsum("k,mkc->mc", w, cond_t)
    h_prior = entropy_of_array(prior).mean()

    lik = cond_x[np.arange(len(y)), :, y]  # (N, K)
    evidence = lik @ w  # (N,)
    ok = evidence > 0.0
    w_post = np.zeros_like(lik)
    w_post[ok] = (w * lik[ok]) / evidence[ok, None]
    # (N, M, C) as one BLAS matmul over the flattened (target, class) axis
    M, K, C = cond_t.shape
    updated = (w_post @ cond_t.transpose(1, 0, 2).reshape(K, M * C)).reshape(-1, M, C)
    h_post = entropy_of_array(updated).mean(axis=1)  # (N,)
    scores = h_prior - h_post
    scores[~ok] = np.nan
    return scores


def mic_scores(model, X, y, eta=1.0):
    """MIC = surprise - eta * post-update NLL; NaN where evidence degenerates.

    Models exposing exact conjugate updates are scored with their exact
    predictives; sample-based models go through likelihood reweighting.
    """
    y = np.asarray(y, dtype=int)
    if _has_exact_update(model):
        X = as_inputs(X)
        prior_mass = np.array(
            [model.exact_posterior_predictive(x)[c] for x, c in zip(X, y)]
        )
        post_mass = np.array(
            [model.exact_updated_predictive(x, c)[c] for x, c in zip(X, y)]
        )
    else:
        cond_x, w = model.conditionals(X), model.sample_weights
        lik = cond_x[np.arange(len(y)), :, y]  # (N, K)
        prior_mass = lik @ w
        post_mass = np.zeros_like(prior_mass)
        ok = prior_mass > 0.0
        post_mass[ok] = ((lik[ok] ** 2) @ w) / prior_mass[ok]
    scores = np.full(len(y), np.nan)
    ok = prior_mass > 0.0
    scores[ok] = -np.log(prior_mass[ok]) + eta * np.log(post_mass[ok])
    return scores


def rho_loss_scores(model, aux_model, X, y):
    """Model NLL minus holdout-model NLL; NaN where either mass is zero."""
    y = np.asarray(y, dtype=int)
    idx = np.arange(len(y))
    p_model = model.marginal_predict_batch(X)[idx, y]
    p_aux = aux_model.marginal_predict_batch(X)[idx, y]
    scores = np.full(len(y), np.nan)
    ok = (p_model > 0.0) & (p_aux > 0.0)
    scores[ok] = -np.log(p_model[ok]) + np.log(p_aux[ok])
    return scores


# --- scalar operations ------------------------------------------------------


def predictive_ig(model, x, y, x_star):
    """Entropy reduction at x_star from implicitly updating on (x, y)."""
    before = entropy(model.marginal_predict(x_star))
    after = entropy(model.posterior_predictive_after_update(x, y, x_star))
    return before - after


def la_epig(model, x, y, targets):
    """Mean predictive information gain of (x, y) over the target inputs."""
    score = la_epig_scores(model, as_input(x), [y], targets)[0]
    if np.isnan(score):
        raise DegenerateEvidenceError(
            f"label {y} has zero marginal likelihood at the candidate input"
        )
    return float(score)


def epig(model, x, targets):
    """Expected predictive information gain of input x; always >= 0."""
    return float(epig_scores(model, as_input(x), targets)[0])


def mic(model, x, y, eta=1.0):
    """Memorable information criterion of a candidate pair."""
    score = mic_scores(model, as_input(x), [y], eta=eta)[0]
    if np.isnan(score):
        raise DegenerateEvidenceError(f"zero marginal mass on label {y}")
    return float(score)


def rho_loss(model, aux_model, x, y):
    """Reducible holdout loss against an auxiliary holdout-trained model."""
    score = rho_loss_scores(model, aux_model, as_input(x), [y])[0]
    if np.isnan(score):
        raise DegenerateEvidenceError(f"zero marginal mass on label {y}")
    return float(score)


# --- pool scoring ------------------------------------------------------------


def score_pool(objective, model, pool, targets=None, seed=0, eta=1.0,
               aux_model=None, diagnostics=None):
    """Score every candidate and return AcquisitionScores ranked best-first.

    Ties break toward the lowest candidate index. Candidates whose evidence
    degenerates score -inf instead of aborting the run. When ``diagnostics``
    is a dict it receives the degenerate indices and a counter of
    target-consuming model evaluations.
    """
    if objective not in OBJECTIVES:
        raise ValidationError(
            f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
        )
    if len(pool) == 0:
        raise ValidationError("candidate pool is empty")
    if objective in ("epig", "la_epig") and targets is None:
        raise ValidationError(f"objective {objective!r} needs a target set")
    X, y = dataset_arrays(pool)
    target_evaluations = 0

    if objective == "random":
        rng = rng_from(seed)
        values = rng.uniform(size=len(pool))
    elif objective == "epig":
        values = epig_scores(model, X, targets)
        target_evaluations = len(targets)
    elif objective == "la_epig":
        values = la_epig_scores(model, X, y, targets)
        target_evaluations = len(targets)
    elif objective == "mic":
        values = mic_scores(model, X, y, eta=eta)
    else:
        if aux_model is None:
            raise ValidationError("rho_loss needs an auxiliary holdout model")
        values = rho_loss_scores(model, aux_model, X, y)

    values = np.asarray(values, dtype=float)
    degenerate = np.flatnonzero(np.isnan(values))
    values[degenerate] = -np.inf
    if diagnostics is not None:
        diagnostics["degenerate_candidates"] = degenerate.tolist()
        diagnostics["target_evaluations"] = target_evaluations

    order = sorted(range(len(pool)), key=lambda i: (-values[i], i))
    return [AcquisitionScore(int(i), float(values[i])) for i in order]
