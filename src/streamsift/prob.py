"""Exact probability primitives over categorical distributions.

Everything here works in natural log (nats). Probabilities below
``ZERO_EPS`` are treated as exact zeros inside entropy terms, so that
0*log(0) contributes 0 without producing NaNs from underflow.
"""

import math

import numpy as np
from scipy.special import digamma, gammaln

from .errors import DomainError, ValidationError

#: absolute tolerance for probability sums and per-entry checks
SUM_ATOL = 1e-9

#: probabilities below this are treated as exact zeros in entropy terms
ZERO_EPS = 1e-12

# bytes of the flattened joint that H(joint) reduces at a time
_BLOCK_BYTES = 1 << 20


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
    off = np.abs(p.sum(axis=axis) - 1.0)
    if np.any(off > SUM_ATOL):
        raise ValidationError(f"{name} must sum to 1, off by up to {off.max()}")


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

    def marginal_rows(self):
        """Marginal over the first variable (sum over columns)."""
        return Categorical(self.probs.sum(axis=1))

    def marginal_cols(self):
        """Marginal over the second variable (sum over rows)."""
        return Categorical(self.probs.sum(axis=0))


def entropy_of_array(p, axis=-1):
    """Shannon entropy in nats along ``axis`` of a (stacked) probability array.

    Entries below ``ZERO_EPS`` contribute exactly zero. No validation is
    performed; this is the vectorized kernel behind :func:`entropy`.
    """
    p = np.asarray(p, dtype=float)
    t = np.where(p > ZERO_EPS, p, 1.0)
    np.log(t, out=t)
    np.multiply(p, t, out=t)
    return -t.sum(axis=axis)


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
    """
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
    """Vectorized MI kernel: H(rows) + H(cols) - H(joint) on the last two axes.

    Values in [-1e-9, 0) are clamped to 0; anything below that indicates a
    broken joint and raises.

    H(joint) is reduced over blocks of the first axis of about
    ``_BLOCK_BYTES`` each (at least one row), so its flattened copy and
    entropy temporaries never span the whole stack. Every entropy is a sum
    along one contiguous row, so the values are the same bits for any block
    size. The joint itself stays whole: a blocked einsum in ``epig_scores``
    changes the GEMM's last bits, and with them any pick that round-off
    decides (EPIG on an ensemble whose members all agree).
    """
    j = np.asarray(joint, dtype=float)
    h_rows = entropy_of_array(j.sum(axis=-1))
    h_cols = entropy_of_array(j.sum(axis=-2))
    if j.ndim == 2:
        h_joint = entropy_of_array(j.reshape(-1))
    else:
        h_joint = np.empty(j.shape[:-2])
        row_bytes = max(1, j.itemsize * math.prod(j.shape[1:]))
        step = max(1, _BLOCK_BYTES // row_bytes)
        for s in range(0, len(j), step):
            blk = j[s:s + step]
            h_joint[s:s + step] = entropy_of_array(blk.reshape(blk.shape[:-2] + (-1,)))
    mi = h_rows + h_cols - h_joint
    if np.any(mi < -SUM_ATOL):
        raise ValidationError(f"mutual information below -{SUM_ATOL}: min={mi.min()}")
    return np.maximum(mi, 0.0)


def mutual_information(joint):
    """Mutual information of a :class:`JointCategorical`, in nats (>= 0)."""
    if not isinstance(joint, JointCategorical):
        joint = JointCategorical(joint)
    return float(mutual_information_of_array(joint.probs))
