"""Probability primitives: frozen oracle values and invariants."""

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import beta as beta_dist

from streamsift import (
    Categorical,
    DomainError,
    JointCategorical,
    ValidationError,
    dirichlet_kl,
    entropy,
    kl_divergence,
    mutual_information,
)


class TestCategorical:
    def test_valid(self):
        c = Categorical([0.2, 0.3, 0.5])
        assert c.num_classes == 3

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Categorical([0.5, 0.6, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Categorical([0.5, 0.6])

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            Categorical([1.0])

    def test_sum_tolerance(self):
        Categorical([0.5, 0.5 + 5e-10])  # inside the 1e-9 budget


class TestEntropy:
    def test_degenerate(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_uniform_two(self):
        assert entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-12)

    def test_skewed(self):
        # frozen from direct summation of -sum p ln p
        assert entropy([0.25, 0.75]) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_bounds_and_uniform_maximum(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            C = rng.integers(2, 8)
            p = rng.dirichlet(np.ones(C))
            h = entropy(p)
            assert -1e-12 <= h <= np.log(C) + 1e-12
            if np.log(C) - h < 1e-9:
                assert np.max(np.abs(p - 1.0 / C)) < 1e-4


class TestKLDivergence:
    def test_identical(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_degenerate_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))

    def test_skewed_pair(self):
        # frozen from direct summation
        assert kl_divergence([0.8, 0.2], [0.2, 0.8]) == pytest.approx(
            0.8317766166719343, abs=1e-12
        )

    def test_support_violation(self):
        with pytest.raises(DomainError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            C = rng.integers(2, 6)
            p = rng.dirichlet(np.ones(C))
            q = rng.dirichlet(np.ones(C))
            kl = kl_divergence(p, q)
            assert kl >= 0.0
            if kl < 1e-12:
                assert np.max(np.abs(p - q)) < 1e-9
            assert kl_divergence(p, p) <= 1e-15


def dirichlet_kl_quadrature(a, b):
    """Independent oracle: numerically integrate the KL between two Beta
    densities over (0, 1); valid for 2-dimensional Dirichlets only."""
    pa = beta_dist(a[0], a[1])
    pb = beta_dist(b[0], b[1])

    def integrand(x):
        fx = pa.pdf(x)
        if fx <= 0:
            return 0.0
        return fx * (pa.logpdf(x) - pb.logpdf(x))

    value, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
    return value


class TestDirichletKL:
    def test_equal(self):
        assert dirichlet_kl([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_one_observation(self):
        # cross-checked against the quadrature oracle below
        assert dirichlet_kl([2.0, 1.0], [1.0, 1.0]) == pytest.approx(
            0.1931471805599453, abs=1e-12
        )

    def test_wider_prior(self):
        value = dirichlet_kl([1.0, 1.0], [2.0, 2.0])
        assert value == pytest.approx(0.20824053077194504, abs=1e-12)
        assert value > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            dirichlet_kl([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            dirichlet_kl([1.0, 1.0], [1.0, -2.0])

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a = rng.uniform(0.5, 5.0, size=2)
            b = rng.uniform(0.5, 5.0, size=2)
            closed = dirichlet_kl(a, b)
            quad = dirichlet_kl_quadrature(a, b)
            assert closed == pytest.approx(quad, abs=1e-4)
            assert closed >= -1e-12


class TestMutualInformation:
    def test_product_joint(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        assert mutual_information(np.outer(p, q)) == 0.0

    def test_perfectly_correlated(self):
        assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(np.log(2))

    def test_symmetric_example(self):
        # frozen from direct evaluation of the three entropies
        assert mutual_information([[0.4, 0.1], [0.1, 0.4]]) == pytest.approx(
            0.1927447570217573, abs=1e-12
        )

    def test_marginals(self):
        j = JointCategorical([[0.4, 0.1], [0.2, 0.3]])
        assert np.allclose(j.probs.sum(axis=1), [0.5, 0.5])
        assert np.allclose(j.probs.sum(axis=0), [0.6, 0.4])

    def test_equals_kl_to_product_of_marginals(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            C = rng.integers(2, 5)
            j = rng.dirichlet(np.ones(C * C)).reshape(C, C)
            mi = mutual_information(j)
            prod = np.outer(j.sum(axis=1), j.sum(axis=0))
            kl = kl_divergence(Categorical(j.ravel()), Categorical(prod.ravel()))
            assert mi == pytest.approx(kl, abs=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            JointCategorical([[0.5, 0.25, 0.25]])
