"""Subsampling objectives: MIC, EPIG, LA-EPIG, RHO-LOSS and random.

All scores are in nats (IG family) or nat-scaled log-likelihood units
(MIC, RHO-LOSS). The estimators share one substrate: the model's weighted
posterior-sample ensemble. Implicit updating on a candidate pair is
likelihood reweighting of the sample weights (``models.base.add_one_in``),
exact Bayes whenever the ensemble enumerates the hypothesis space and the
standard Monte Carlo estimator under uniform weights.

EPIG is computed through the plug-in joint over (candidate label, target
label): its per-target value is the mutual information of that joint, which
makes EPIG non-negative by construction and ties it to LA-EPIG through
EPIG(x) = sum_c p(y=c|x) * LA-EPIG(x, c).

Every objective but random scores the candidates through one loop,
``_blockwise``, so its memory does not grow with the pool: each block of at
most ``_JOINT_BYTES`` computes its candidates' conditionals and what the
objective builds from them (EPIG's (M, C, C) joint, LA-EPIG's (M, C)
updated predictives, MIC's and RHO-LOSS's label masses), reduced in tasks of
about ``_TASK_BYTES`` that :func:`runner.share` runs. A pool that fits one
block is one expression over all its candidates; more blocks can move the
last bits of a BLAS product, whose summation order follows the block's shape.

MIC needs only the observed label's mass after the update. Sample-based
models give it as E_w[lik^2] / E_w[lik], not as the updated weights times
lik: the two agree in exact arithmetic, but round-off decides forest MIC
picks among near-tied candidates, and the product form changes those picks.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateEvidenceError, ValidationError
from .models.base import add_one_in, as_input, as_inputs, as_labels, dataset_arrays
from .models.dirichlet import DirichletHistogramClassifier
from .prob import entropy, entropy_of_array, mutual_information_of_array
from .rng import rng_from
from .runner import share

OBJECTIVES = ("random", "mic", "epig", "la_epig", "rho_loss")
TARGET_OBJECTIVES = ("epig", "la_epig")  # the objectives that score against targets

# bytes of the per-candidate arrays that a kernel builds per block
_JOINT_BYTES = 32 << 20

# bytes of a block that one task of ``runner.share`` reduces
_TASK_BYTES = 1 << 20


class TargetSet:
    """Inputs sampled from the target input distribution."""

    __slots__ = ("inputs",)

    def __init__(self, inputs):
        X = as_inputs(inputs)
        if X.shape[0] < 1:
            raise ValidationError(f"need at least one target input, got shape {X.shape}")
        self.inputs = X

    def __len__(self):
        return self.inputs.shape[0]


@dataclass
class AcquisitionScore:
    candidate_index: int
    value: float


# --- batched kernels (return one score per candidate row) -----------------


def _candidate_blocks(n, row_bytes, budget, least=1):
    """Slices that cut ``n`` candidates into the fewest even blocks whose
    ``row_bytes`` per candidate fit ``budget``, but none below ``least`` rows
    (one block if ``n`` is). Even, so that the blocks differ by at most one
    row: einsum picks its contraction by its operands' shapes."""
    per = max(least, budget // row_bytes)
    count = max(1, min(-(-n // per), n // least))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(s, e) for s, e in zip(bounds, bounds[1:])]


def _blockwise(n, row_bytes, build, reduce):
    """Scores of ``n`` candidates, shape (n,): ``build(rows)`` makes the
    arrays of the candidates ``rows``, one even block under ``_JOINT_BYTES``
    at a time, and ``reduce(part)`` scores rows of a block, in tasks of about
    ``_TASK_BYTES`` for :func:`runner.share`. A task keeps its block's strides
    and, with at least two rows, its loop order (numpy drops a length-1 axis
    from it), and writes only its own scores: the bits do not depend on the
    task size or the thread."""
    scores = np.empty(n)

    def task(dest, block, part):
        dest[part] = reduce(block[part])

    for rows in _candidate_blocks(n, row_bytes, _JOINT_BYTES):
        block = build(rows)
        parts = _candidate_blocks(len(block), block.itemsize * math.prod(block.shape[1:]),
                                  _TASK_BYTES, least=2)
        share([partial(task, scores[rows], block, part) for part in parts])
        del block  # before the next block is built
    return scores


def epig_scores(model, X, targets):
    """EPIG for a batch of candidate inputs, shape (N,)."""
    X, w = as_inputs(X), model.sample_weights
    cond_t = model.conditionals(targets.inputs)  # (M, K, C)
    M, K, C = cond_t.shape
    # a row holds its joint, its conditionals and any (C, K) copy einsum makes
    return _blockwise(
        len(X), (M * C + 2 * K) * C * 8,
        lambda rows: np.einsum("nkc,mkd,k->nmcd", model.conditionals(X[rows]), cond_t, w,
                               optimize=True),
        lambda part: mutual_information_of_array(part).mean(axis=1))  # (part, M) -> (part,)


def la_epig_scores(model, X, y, targets):
    """LA-EPIG for candidate pairs; degenerate candidates come back as NaN."""
    X, w = as_inputs(X), model.sample_weights
    y = as_labels(y, model.num_classes, count=len(X))
    cond_t = model.conditionals(targets.inputs)  # (M, K, C)
    prior = np.einsum("k,mkc->mc", w, cond_t)
    h_prior = entropy_of_array(prior).mean()

    M, K, C = cond_t.shape
    flat_t = cond_t.transpose(1, 0, 2).reshape(K, M * C)
    evidence = np.empty(len(y))

    def updated(rows):
        # the add-one-in weights, then the (rows, M, C) predictives as one
        # BLAS matmul over the flattened (target, class) axis
        lik = model.conditionals(X[rows])[np.arange(rows.stop - rows.start), :, y[rows]]
        evidence[rows], w_post = add_one_in(w, lik)
        return (w_post @ flat_t).reshape(-1, M, C)

    # a row holds `updated`, its conditionals and add_one_in's four (K,) arrays
    scores = h_prior - _blockwise(len(y), (M * C + K * C + 4 * K) * 8, updated,
                                  lambda part: entropy_of_array(part).mean(axis=1))
    scores[~(evidence > 0.0)] = np.nan  # the rows add_one_in left at zero
    return scores


def _log_gain(masses, ok, eta=1.0):
    """-log(a) + eta * log(b) of each row (a, b) of ``masses`` where ``ok``, else NaN."""
    scores = np.full(len(masses), np.nan)
    scores[ok] = -np.log(masses[ok, 0]) + eta * np.log(masses[ok, 1])
    return scores


def mic_scores(model, X, y, eta=1.0):
    """MIC = surprise - eta * post-update NLL; NaN where evidence degenerates.

    The Dirichlet model is scored with its exact conjugate predictives;
    sample-based models through the second moment of the likelihood.
    """
    X, w, C = as_inputs(X), model.sample_weights, model.num_classes
    y = as_labels(y, C, count=len(X))

    def masses(rows):  # (rows, 2): the label's mass before and after the update
        if isinstance(model, DirichletHistogramClassifier):
            # a_y / sum(a) before the update, (a_y + 1) / sum(a with a_y + 1) after
            bins = model.bin_indices(X[rows]).tolist()
            alpha = np.array([model.concentrations(b) for b in bins]).reshape(-1, C)
            at = np.arange(len(alpha)), y[rows]
            prior_mass = alpha[at] / alpha.sum(axis=1)
            alpha[at] += 1.0
            return np.column_stack([prior_mass, alpha[at] / alpha.sum(axis=1)])
        lik = model.conditionals(X[rows])[np.arange(rows.stop - rows.start), :, y[rows]]
        prior_mass = lik @ w
        ok = prior_mass > 0.0
        post_mass = np.zeros_like(prior_mass)
        post_mass[ok] = ((lik[ok] ** 2) @ w) / prior_mass[ok]
        return np.column_stack([prior_mass, post_mass])

    # a row holds its conditionals, its likelihoods and their squares
    return _blockwise(len(y), (C + 2) * len(w) * 8, masses,
                      lambda part: _log_gain(part, part[:, 0] > 0.0, eta))


def rho_loss_scores(model, aux_model, X, y):
    """Model NLL minus holdout-model NLL; NaN where either mass is zero."""
    X = as_inputs(X)
    y = as_labels(y, model.num_classes, count=len(X))

    def masses(rows):  # (rows, 2): each model's predictive mass on the label
        at = np.arange(rows.stop - rows.start), y[rows]
        return np.column_stack([m.marginal_predict_batch(X[rows])[at] for m in (model, aux_model)])

    # a row holds one model's conditionals and its two (C,) predictives
    K = max(len(model.sample_weights), len(aux_model.sample_weights))
    return _blockwise(len(y), (K + 2) * model.num_classes * 8, masses,
                      lambda part: _log_gain(part, np.all(part > 0.0, axis=1)))


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
    if objective in TARGET_OBJECTIVES and targets is None:
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

    order = np.argsort(-values, kind="stable")  # ties keep the lower index first
    return [AcquisitionScore(int(i), float(values[i])) for i in order]
