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

EPIG and LA-EPIG score the candidates through one loop, ``_blockwise``, so
their memory does not grow with the pool: it builds their per-candidate
arrays (EPIG's (M, C, C) joint and einsum's (C, K) copy of the candidate's
conditionals; LA-EPIG's add-one-in weights and (M, C) updated predictives)
one block of at most ``_JOINT_BYTES`` at a time, and
reduces each block in tasks of about ``_TASK_BYTES`` that :func:`runner.share`
runs. A pool that fits one block builds it in one expression over all its
candidates; more blocks can move the BLAS product's last bits, since its
summation order follows the block's shape.

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

# bytes of the per-candidate arrays that EPIG and LA-EPIG build per block
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
    cond_x, w = model.conditionals(X), model.sample_weights
    cond_t = model.conditionals(targets.inputs)  # (M, K, C)
    M, K, C = cond_t.shape
    # a row holds its joint and einsum's (C, K) operand copy of its conditionals
    return _blockwise(
        len(cond_x), (M * C + K) * C * 8,
        lambda rows: np.einsum("nkc,mkd,k->nmcd", cond_x[rows], cond_t, w, optimize=True),
        lambda part: mutual_information_of_array(part).mean(axis=1))  # (part, M) -> (part,)


def la_epig_scores(model, X, y, targets):
    """LA-EPIG for candidate pairs; degenerate candidates come back as NaN."""
    y = as_labels(y, model.num_classes, count=len(as_inputs(X)))
    cond_x, w = model.conditionals(X), model.sample_weights
    cond_t = model.conditionals(targets.inputs)  # (M, K, C)
    prior = np.einsum("k,mkc->mc", w, cond_t)
    h_prior = entropy_of_array(prior).mean()

    M, K, C = cond_t.shape
    flat_t = cond_t.transpose(1, 0, 2).reshape(K, M * C)
    evidence, index = np.empty(len(y)), np.arange(len(y))

    def updated(rows):
        # the add-one-in weights, then the (rows, M, C) predictives as one
        # BLAS matmul over the flattened (target, class) axis
        evidence[rows], w_post = add_one_in(w, cond_x[index[rows], :, y[rows]])
        return (w_post @ flat_t).reshape(-1, M, C)

    # a row holds `updated` and add_one_in's four (K,) arrays
    scores = h_prior - _blockwise(len(y), (M * C + 4 * K) * 8, updated,
                                  lambda part: entropy_of_array(part).mean(axis=1))
    scores[~(evidence > 0.0)] = np.nan  # the rows add_one_in left at zero
    return scores


def mic_scores(model, X, y, eta=1.0):
    """MIC = surprise - eta * post-update NLL; NaN where evidence degenerates.

    The Dirichlet model is scored with its exact conjugate predictives;
    sample-based models through the second moment of the likelihood.
    """
    y = as_labels(y, model.num_classes, count=len(as_inputs(X)))
    rows = np.arange(len(y))
    if isinstance(model, DirichletHistogramClassifier):
        # a_y / sum(a) before the update, (a_y + 1) / sum(a with a_y + 1) after
        bins = model.bin_indices(X).tolist()
        alpha = np.array([model.concentrations(b) for b in bins]).reshape(-1, model.num_classes)
        prior_mass = alpha[rows, y] / alpha.sum(axis=1)
        alpha[rows, y] += 1.0
        post_mass = alpha[rows, y] / alpha.sum(axis=1)
        ok = prior_mass > 0.0
    else:
        cond_x, w = model.conditionals(X), model.sample_weights
        lik = cond_x[rows, :, y]  # (N, K)
        prior_mass = lik @ w
        ok = prior_mass > 0.0
        post_mass = np.zeros_like(prior_mass)
        post_mass[ok] = ((lik[ok] ** 2) @ w) / prior_mass[ok]
    scores = np.full(len(y), np.nan)
    scores[ok] = -np.log(prior_mass[ok]) + eta * np.log(post_mass[ok])
    return scores


def rho_loss_scores(model, aux_model, X, y):
    """Model NLL minus holdout-model NLL; NaN where either mass is zero."""
    y = as_labels(y, model.num_classes, count=len(as_inputs(X)))
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
