"""Exact probability primitives over categorical distributions.

Everything here works in natural log (nats). Probabilities below
``ZERO_EPS`` are treated as exact zeros inside entropy terms, so that
0*log(0) contributes 0 without producing NaNs from underflow.
"""

import math

import numpy as np

from .errors import DomainError, ValidationError

#: absolute tolerance for probability sums and per-entry checks
SUM_ATOL = 1e-9

#: probabilities below this are treated as exact zeros in entropy terms
ZERO_EPS = 1e-12


def float_array(value, name):
    """``value`` as a float array of finite numbers, else :class:`ValidationError`
    naming ``name``: the one finiteness check of probability and model arrays."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be an array of numbers ({exc})") from None
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} must be an array of finite numbers")
    return out


def check_probs(p, name, axis=None):
    """Raise :class:`ValidationError` unless every entry of ``p`` (finite, from
    :func:`float_array`) is at least -``SUM_ATOL`` and every sum along ``axis`` (the
    whole array when None) lies within ``SUM_ATOL`` of 1. Shapes are the caller's."""
    if np.any(p < -SUM_ATOL):
        raise ValidationError(f"negative {name} entry: min={p.min()}")
    # `- 1.0` and `abs` reuse the sums' temporary in place
    off = abs((p.sum() if axis is None else _sum(p, axis)) - 1.0)
    if np.any(off > SUM_ATOL):
        raise ValidationError(f"{name} must sum to 1, off by up to {off.max()}")


def _sum(a, axis):
    """``a.sum(axis=axis)``, bit for bit and in the same memory order: fewer than 8
    summed entries (of a tuple of axes, in C order) are added in order as slices
    onto a ``zeros_like``, as numpy adds so few, but in one pass, not per output."""
    axes = axis if isinstance(axis, tuple) else (axis,)
    lengths = [a.shape[i] for i in axes]
    if not 0 < math.prod(lengths) < 8:
        return a.sum(axis=axis)
    parts = np.moveaxis(a, axes, range(len(axes)))
    total = np.zeros_like(parts[(0,) * len(axes)])
    for index in np.ndindex(*lengths):
        total += parts[index]
    return total


class Categorical:
    """A normalized probability vector over C >= 2 classes."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = float_array(probs, "categorical")
        if p.ndim != 1 or p.shape[0] < 2:
            raise ValidationError(
                f"categorical needs a 1-d vector with C >= 2, got shape {p.shape}"
            )
        check_probs(p, "categorical")
        self.probs = p

    @property
    def num_classes(self):
        return self.probs.shape[0]

    def __len__(self):
        return self.probs.shape[0]

    def __repr__(self):
        return f"Categorical({np.array2string(self.probs, precision=6)})"


class JointCategorical:
    """A joint distribution over a pair of categorical variables (C x C)."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = float_array(probs, "joint")
        if p.ndim != 2 or p.shape[0] < 2 or p.shape[0] != p.shape[1]:
            raise ValidationError(f"joint needs a square CxC matrix, got {p.shape}")
        check_probs(p, "joint")
        self.probs = p


def entropy_of_array(p, axis=-1):
    """Shannon entropy in nats along ``axis`` of a (stacked) probability array.

    Entries below ``ZERO_EPS`` contribute exactly zero. No validation is
    performed; this is the vectorized kernel behind :func:`entropy`.
    """
    p = np.asarray(p, dtype=float)
    t = np.where(p > ZERO_EPS, p, 1.0)
    np.log(t, out=t)
    np.multiply(p, t, out=t)
    return -_sum(t, axis)


def entropy(p):
    """Entropy of a :class:`Categorical`, in nats. Lies in [0, ln C]."""
    if not isinstance(p, Categorical):
        p = Categorical(p)
    return float(entropy_of_array(p.probs))


def kl_divergence(p, q):
    """KL(p || q) in nats between two categoricals on a shared support.

    Requires q_c = 0 => p_c = 0; a support violation raises
    :class:`DomainError`.
    """
    if not isinstance(p, Categorical):
        p = Categorical(p)
    if not isinstance(q, Categorical):
        q = Categorical(q)
    if len(p) != len(q):
        raise ValidationError(f"dimension mismatch: {len(p)} vs {len(q)}")
    pp, qq = p.probs, q.probs
    bad = (qq <= ZERO_EPS) & (pp > ZERO_EPS)
    if np.any(bad):
        raise DomainError(
            f"support violation: p has mass on classes {np.flatnonzero(bad)} "
            "where q is zero"
        )
    mask = pp > ZERO_EPS
    return float((pp[mask] * (np.log(pp[mask]) - np.log(qq[mask]))).sum())


def dirichlet_kl(alpha_post, alpha_prior):
    """Closed-form KL divergence between two Dirichlet distributions.

    KL(Dir(a) || Dir(b)) with a = alpha_post and b = alpha_prior, in nats.
    ``scipy.special`` is imported here, on the first call, not with the
    package: it would be most of ``import streamsift``'s time, and only the
    Dirichlet model's parameter-KL update needs it.
    """
    from scipy.special import digamma, gammaln

    a = np.asarray(alpha_post, dtype=float)
    b = np.asarray(alpha_prior, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"concentration shape mismatch: {a.shape} vs {b.shape}")
    if np.any(a <= 0) or np.any(b <= 0):
        raise DomainError("Dirichlet concentrations must be strictly positive")
    a0, b0 = a.sum(), b.sum()
    kl = gammaln(a0) - gammaln(b0)
    kl -= (gammaln(a) - gammaln(b)).sum()
    kl += ((a - b) * (digamma(a) - digamma(a0))).sum()
    return float(kl)


def mutual_information_of_array(joint):
    """Vectorized MI kernel: H(rows) + H(cols) - H(joint) on the last two axes,
    one expression over a joint or a stack of joints.

    Values in [-1e-9, 0) are clamped to 0; anything below that indicates a
    broken joint and raises. The result is in C order whatever the joint's
    layout, so that a later reduction over it sums in one order.
    """
    j = np.asarray(joint, dtype=float)
    # a joint of 8 or more cells is flattened first (a copy of a strided joint)
    h_joint = (entropy_of_array(j, axis=(-2, -1)) if j.shape[-2] * j.shape[-1] < 8
               else entropy_of_array(j.reshape(j.shape[:-2] + (-1,))))
    mi = entropy_of_array(_sum(j, -1)) + entropy_of_array(_sum(j, -2)) - h_joint
    if np.any(mi < -SUM_ATOL):
        raise ValidationError(f"mutual information below -{SUM_ATOL}: min={mi.min()}")
    return np.maximum(mi, 0.0, order="C")


def mutual_information(joint):
    """Mutual information of a :class:`JointCategorical`, in nats (>= 0)."""
    if not isinstance(joint, JointCategorical):
        joint = JointCategorical(joint)
    return float(mutual_information_of_array(joint.probs))
