"""Model contracts: ensembles, reweighting, and the four model kinds."""

import warnings

import numpy as np
import pytest

from streamsift import (
    BootstrapForest,
    DegenerateEvidenceError,
    DirichletHistogramClassifier,
    DomainError,
    DropoutMLP,
    FiniteHypothesisModel,
    FitError,
    GridLookupError,
    LabelledExample,
    PredictiveEnsemble,
    Categorical,
    JointCategorical,
    TargetSet,
    TrainingDivergedError,
    ValidationError,
    dirichlet_kl,
    reweight_ensemble,
    score_pool,
)
from streamsift.harness import evaluate_accuracy
from streamsift.prob import SUM_ATOL
from streamsift.models.base import dataset_arrays
from streamsift.models import forest
from streamsift.models.forest import _grow_trees, _leaf_dists


def ex(features, label):
    return LabelledExample(features, label)


def random_finite_model(rng, num_hyps=None, num_classes=None, grid_size=4):
    J = num_hyps or int(rng.integers(2, 6))
    C = num_classes or int(rng.integers(2, 5))
    grid = np.arange(grid_size, dtype=float)[:, None]
    tables = rng.dirichlet(np.ones(C), size=(J, grid_size))
    prior = rng.dirichlet(np.ones(J))
    return FiniteHypothesisModel(grid, tables, prior)


class TestPredictiveEnsemble:
    def test_valid(self):
        e = PredictiveEnsemble([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])
        assert np.allclose(e.marginal().probs, [0.55, 0.45])

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            PredictiveEnsemble([[0.9, 0.2]], [1.0])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            PredictiveEnsemble([[0.5, 0.5]], [0.9])


# every probability array a caller can hand in, built from entries p
PROBABILITY_INPUTS = {
    "categorical": ([0.25, 0.75], Categorical),
    "joint": ([[0.25, 0.25], [0.25, 0.25]], JointCategorical),
    "ensemble rows": ([[0.25, 0.75]], lambda p: PredictiveEnsemble(p, [1.0])),
    "ensemble weights": ([0.25, 0.75],
                         lambda p: PredictiveEnsemble([[0.5, 0.5], [0.5, 0.5]], p)),
    "finite tables": ([[[0.25, 0.75]]], lambda p: FiniteHypothesisModel([[0.0]], p)),
    "finite prior": ([0.25, 0.75], lambda p: FiniteHypothesisModel(
        [[0.0]], [[[0.5, 0.5]], [[0.5, 0.5]]], p)),
}


class TestProbabilityRule:
    """One rule for every probability array: finite entries, none below
    -SUM_ATOL, sums within SUM_ATOL of 1."""

    @staticmethod
    def build(name, entry0, moved=True):
        """The input with its first entry set to entry0; with ``moved`` the
        second entry takes up the change so the sum stays 1."""
        base, build = PROBABILITY_INPUTS[name]
        p = np.array(base, dtype=float)
        if moved:
            p.flat[1] += p.flat[0] - entry0
        p.flat[0] = entry0
        return build(p)

    @pytest.mark.parametrize("name", PROBABILITY_INPUTS)
    def test_accepts_round_off(self, name):
        self.build(name, -0.5 * SUM_ATOL)
        self.build(name, 0.25 + 0.5 * SUM_ATOL, moved=False)

    @pytest.mark.parametrize("name", PROBABILITY_INPUTS)
    @pytest.mark.parametrize("entry0,moved", [
        (np.nan, True), (np.inf, True), (-np.inf, True), (-2 * SUM_ATOL, True),
        (0.25 + 2 * SUM_ATOL, False), (0.25 - 2 * SUM_ATOL, False),
    ])
    def test_rejects(self, name, entry0, moved):
        with pytest.raises(ValidationError):
            self.build(name, entry0, moved)


class TestReweightEnsemble:
    def test_single_sample_unchanged(self):
        e = PredictiveEnsemble([[0.3, 0.7]], [1.0])
        out = reweight_ensemble(e, [0.4])
        assert np.allclose(out.weights, [1.0])

    def test_uninformative_observation(self):
        e = PredictiveEnsemble([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])
        out = reweight_ensemble(e, [0.3, 0.3])
        assert np.allclose(out.weights, [0.5, 0.5])

    def test_bayes_rule_by_hand(self):
        e = PredictiveEnsemble([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])
        out = reweight_ensemble(e, [0.9, 0.1])
        assert np.allclose(out.weights, [0.9, 0.1])
        assert np.array_equal(out.conditionals, e.conditionals)

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            K = int(rng.integers(1, 6))
            cond = rng.dirichlet(np.ones(3), size=K)
            w = rng.dirichlet(np.ones(K))
            lik = rng.uniform(0.01, 1.0, size=K)
            e = PredictiveEnsemble(cond, w)
            scale = float(rng.uniform(0.1, 50.0))
            a = reweight_ensemble(e, lik).weights
            b = reweight_ensemble(e, scale * lik).weights
            assert np.allclose(a, b, atol=1e-12)

    def test_degenerate_evidence(self):
        e = PredictiveEnsemble([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        with pytest.raises(DegenerateEvidenceError):
            reweight_ensemble(e, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_likelihood_is_named(self, bad):
        e = PredictiveEnsemble([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match="^likelihoods must be an array of finite numbers$"):
                reweight_ensemble(e, [0.5, bad])


class TestFiniteHypothesisModel:
    def two_hyp(self):
        grid = [[0.0], [1.0]]
        tables = [
            [[0.9, 0.1], [0.2, 0.8]],
            [[0.1, 0.9], [0.7, 0.3]],
        ]
        return FiniteHypothesisModel(grid, tables)

    def test_prior_before_data(self):
        m = self.two_hyp()
        assert np.allclose(m.sample_weights, [0.5, 0.5])

    def test_single_observation_bayes(self):
        m = self.two_hyp().fit([ex([0.0], 0)])
        assert np.allclose(m.sample_weights, [0.9, 0.1])

    def test_two_identical_observations(self):
        m = self.two_hyp().fit([ex([0.0], 0), ex([0.0], 0)])
        # sequential Bayes by hand: 0.81 / (0.81 + 0.01)
        assert np.allclose(m.sample_weights, [0.81 / 0.82, 0.01 / 0.82])
        assert m.sample_weights[0] == pytest.approx(0.987805, abs=1e-6)

    @pytest.mark.parametrize("field,value", [
        ("grid", [[0.0], ["x"]]),
        ("tables", [[[0.5, 0.5], [0.5, {}]]]),
        ("prior", ["a"]),
        ("grid", [[0.0], [1.0, 2.0]]),
    ])
    def test_rejects_values_that_are_not_numbers(self, field, value):
        args = {"grid": [[0.0], [1.0]], "tables": [[[0.5, 0.5], [0.5, 0.5]]],
                "prior": [1.0], field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an array of numbers"):
            FiniteHypothesisModel(args["grid"], args["tables"], args["prior"])

    @pytest.mark.parametrize("field,value", [
        ("grid", [[0.0], [np.inf]]),
        ("tables", [[[0.5, 0.5], [np.nan, 0.5]]]),
        ("prior", [np.nan]),
    ])
    def test_rejects_values_that_are_not_finite(self, field, value):
        args = {"grid": [[0.0], [1.0]], "tables": [[[0.5, 0.5], [0.5, 0.5]]],
                "prior": [1.0], field: value}
        with pytest.raises(ValidationError,
                           match=f"{field} must be an array of finite numbers"):
            FiniteHypothesisModel(args["grid"], args["tables"], args["prior"])

    @pytest.mark.parametrize("tables,prior", [
        # hypothesis B's p(label 0) is round-off below 0
        ([[[1e-9, 1 - 1e-9]], [[-0.9e-9, 1 + 0.9e-9]]], [0.5, 0.5]),
        # hypothesis B's prior mass is round-off below 0
        ([[[1e-9, 1 - 1e-9]], [[1.0, 0.0]]], [1 + 0.5e-9, -0.5e-9]),
    ])
    def test_round_off_below_zero_leaves_weights_non_negative(self, tables, prior):
        m = FiniteHypothesisModel([[0.0]], tables, prior)
        assert np.all(m.tables >= 0.0) and np.all(m.prior >= 0.0)
        m.fit([ex([0.0], 0)])
        assert np.allclose(m.sample_weights, [1.0, 0.0])
        assert np.all(m.sample_weights >= 0.0)

    def test_non_negative_tables_are_kept_as_given(self):
        tables = np.array([[[0.9, 0.1]], [[0.1, 0.9]]])
        prior = np.array([0.25, 0.75])
        m = FiniteHypothesisModel([[0.0]], tables, prior)
        assert m.tables is tables and m.prior is prior

    def test_off_grid_lookup(self):
        with pytest.raises(GridLookupError):
            self.two_hyp().ensemble_predict([0.5])

    def test_impossible_observation(self):
        tables = [[[1.0, 0.0]], [[1.0, 0.0]]]
        m = FiniteHypothesisModel([[0.0]], tables)
        with pytest.raises(DegenerateEvidenceError):
            m.fit([ex([0.0], 1)])

    def test_label_out_of_range_in_example_order(self):
        with pytest.raises(FitError, match="label 2 out of range for C=2"):
            self.two_hyp().fit([ex([0.0], 0), ex([1.0], 2)])
        # an earlier example's error still comes first
        with pytest.raises(GridLookupError):
            self.two_hyp().fit([ex([0.5], 0), ex([1.0], 2)])
        with pytest.raises(FitError):
            self.two_hyp().fit([ex([1.0], 2), ex([0.5], 0)])

    def test_reweighting_equals_explicit_refit(self):
        """Implicit updating is exact Bayes under exhaustive enumeration."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_finite_model(rng)
            C = m.num_classes
            data = [ex([float(rng.integers(0, 4))], int(rng.integers(0, C)))
                    for _ in range(rng.integers(0, 4))]
            try:
                m.fit(data)
            except DegenerateEvidenceError:
                continue
            x = [float(rng.integers(0, 4))]
            y = int(rng.integers(0, C))
            x_star = [float(rng.integers(0, 4))]
            try:
                implicit = m.posterior_predictive_after_update(x, y, x_star)
            except DegenerateEvidenceError:
                continue
            clone = FiniteHypothesisModel(m.grid, m.tables, m.prior)
            clone.fit(data + [ex(x, y)])
            explicit = clone.marginal_predict(x_star)
            assert np.allclose(implicit.probs, explicit.probs, atol=1e-10)

    def test_marginal_consistency(self):
        rng = np.random.default_rng(29)
        m = random_finite_model(rng)
        e = m.ensemble_predict([2.0])
        assert np.allclose(
            m.marginal_predict([2.0]).probs, e.weights @ e.conditionals, atol=1e-9
        )


class TestDirichletHistogramClassifier:
    def test_empty_bin_uniform(self):
        m = DirichletHistogramClassifier(2, [0.0], [1.0], bins_per_dim=2)
        assert np.allclose(m.exact_posterior_predictive([0.25]), [0.5, 0.5])

    def test_rule_of_succession(self):
        m = DirichletHistogramClassifier(2, [0.0], [1.0], bins_per_dim=2)
        m.fit([ex([0.25], 0)])
        assert np.allclose(m.exact_posterior_predictive([0.25]), [2 / 3, 1 / 3])

    def test_parameter_kl_of_update(self):
        m = DirichletHistogramClassifier(2, [0.0], [1.0], bins_per_dim=2)
        assert m.parameter_kl_of_update([0.25], 0) == pytest.approx(
            0.1931471805599453, abs=1e-12
        )
        assert m.parameter_kl_of_update([0.25], 0) == pytest.approx(
            dirichlet_kl([2.0, 1.0], [1.0, 1.0]), abs=1e-15
        )

    @pytest.mark.parametrize("lower,upper,field", [
        (["x", 0], [1, 1], "lower"),
        ([0, 0], [1, {}], "upper"),
        ([[0], [0, 1]], [1, 1], "lower"),
    ])
    def test_rejects_bounds_that_are_not_numbers(self, lower, upper, field):
        with pytest.raises(ValidationError, match=f"{field} must be an array of numbers"):
            DirichletHistogramClassifier(2, lower, upper)

    @pytest.mark.parametrize("lower,upper,field", [
        ([np.nan, -10], [10, 10], "lower"),
        ([0, 0], [1, np.inf], "upper"),
    ])
    def test_rejects_bounds_that_are_not_finite(self, lower, upper, field):
        with pytest.raises(ValidationError,
                           match=f"{field} must be an array of finite numbers"):
            DirichletHistogramClassifier(2, lower, upper)

    @pytest.mark.parametrize("num_samples", [0, -3])
    def test_rejects_fewer_than_one_sample(self, num_samples):
        with pytest.raises(ValidationError, match="num_samples must be >= 1"):
            DirichletHistogramClassifier(2, [0.0], [1.0], num_samples=num_samples)

    @pytest.mark.parametrize("alpha0", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_alpha0_not_finite_and_positive(self, alpha0):
        """NaN passes an ``alpha0 <= 0`` test, and NaN or inf concentrations
        answer NaN predictives without an error."""
        with pytest.raises(DomainError,
                           match="^alpha0 must be finite and strictly positive, got "):
            DirichletHistogramClassifier(2, [0.0], [1.0], alpha0=alpha0)

    @pytest.mark.parametrize("dim,bins", [(16, 20), (63, 2), (1, 2**63)])
    def test_rejects_more_bins_than_an_index_holds(self, dim, bins):
        """Without the check 20**16 bins fail at the first binning with numpy's
        "invalid dims" ValueError."""
        with pytest.raises(ValidationError,
                           match=rf"^{bins}\*\*{dim} bins are more than a bin index can hold$"):
            DirichletHistogramClassifier(2, np.zeros(dim), np.ones(dim), bins_per_dim=bins)

    @pytest.mark.parametrize("dim,bins", [(64, 1), (62, 2)])
    def test_bins_past_ravel_multi_index_dimension_cap(self, dim, bins):
        """np.ravel_multi_index refuses 64 dimensions ("too many dimensions");
        the flat index has no such cap and stays row-major."""
        m = DirichletHistogramClassifier(2, np.zeros(dim), np.ones(dim), bins_per_dim=bins)
        m.fit([ex(np.zeros(dim), 0), ex(np.ones(dim), 1)])
        assert m.bin_indices(np.stack([np.zeros(dim), np.ones(dim)])).tolist() == [
            0, bins**dim - 1]
        assert np.allclose(m.exact_posterior_predictive(np.ones(dim)),
                           [0.5, 0.5] if bins == 1 else [1 / 3, 2 / 3])

    def test_out_of_box_input(self):
        m = DirichletHistogramClassifier(2, [0.0], [1.0])
        with pytest.raises(ValidationError):
            m.exact_posterior_predictive([1.5])

    def test_mc_marginal_converges_to_exact(self):
        """Monte Carlo marginal vs conjugate predictive over 100 random bins."""
        rng = np.random.default_rng(101)
        m = DirichletHistogramClassifier(
            3, [0.0], [100.0], bins_per_dim=100, alpha0=1.0,
            num_samples=10000, seed=55,
        )
        data = []
        for b in range(100):
            x = b + 0.5
            for _ in range(int(rng.integers(0, 8))):
                data.append(ex([x], int(rng.integers(0, 3))))
        m.fit(data)
        worst = 0.0
        for b in range(100):
            x = [b + 0.5]
            mc = m.marginal_predict(x).probs
            exact = m.exact_posterior_predictive(x)
            worst = max(worst, float(np.max(np.abs(mc - exact))))
        assert worst < 0.01

    def test_predict_deterministic_between_fits(self):
        m = DirichletHistogramClassifier(2, [0.0], [1.0], num_samples=64, seed=9)
        m.fit([ex([0.5], 1)])
        a = m.ensemble_predict([0.5]).conditionals
        b = m.ensemble_predict([0.5]).conditionals
        assert np.array_equal(a, b)

    def test_marginal_consistency(self):
        m = DirichletHistogramClassifier(3, [0.0], [1.0], num_samples=32, seed=2)
        m.fit([ex([0.3], 0), ex([0.7], 2)])
        e = m.ensemble_predict([0.4])
        assert np.allclose(
            m.marginal_predict([0.4]).probs, e.weights @ e.conditionals, atol=1e-9
        )

    def test_bins_and_draws_match_per_row(self):
        """Batched binning and conditionals == the per-row formula and draws."""
        rng = np.random.default_rng(5)
        lower, upper, bins = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.5]), 2
        m = DirichletHistogramClassifier(4, lower, upper, bins_per_dim=bins,
                                         num_samples=16, seed=3)
        X = rng.uniform(lower, upper, size=(60, 3))
        X[:5] = upper
        X[5:10] = lower
        labels = rng.integers(0, 4, size=30)
        m.fit([ex(x, int(c)) for x, c in zip(X[::2], labels)])
        width = (upper - lower) / bins
        counts = np.zeros((bins**3, 4))
        for i, (x, b) in enumerate(zip(X, m.bin_indices(X))):
            per_dim = np.minimum(((x - lower) / width).astype(int), bins - 1)
            assert b == np.ravel_multi_index(per_dim, (bins,) * 3) == m.bin_index(x)
            if i % 2 == 0:
                counts[b, labels[i // 2]] += 1.0
        for b in range(bins**3):
            assert np.array_equal(m.concentrations(b), 1.0 + counts[b])
        batch = m.conditionals(X)
        for x, cond in zip(X, batch):
            assert np.array_equal(cond, m.ensemble_predict(x).conditionals)

    def test_fit_reports_first_bad_example(self):
        m = DirichletHistogramClassifier(2, [0.0], [1.0])
        with pytest.raises(ValidationError, match=r"input \[1\.5\]"):
            m.fit([ex([0.5], 0), ex([1.5], 0), ex([0.5], 2)])
        with pytest.raises(FitError):
            m.fit([ex([0.5], 0), ex([0.5], 2), ex([1.5], 0)])

    def test_memory_tracks_occupied_bins(self):
        """4**12 bins x 3 classes would be a 400 MB dense table."""
        import tracemalloc

        rng = np.random.default_rng(12)
        X = rng.uniform(0.0, 1.0, size=(200, 12))
        tracemalloc.start()
        try:
            m = DirichletHistogramClassifier(3, np.zeros(12), np.ones(12))
            m.fit([ex(x, int(c)) for x, c in zip(X, rng.integers(0, 3, size=200))])
            cond = m.conditionals(X[:50])
            exact = m.exact_posterior_predictive(X[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cond.shape == (50, 100, 3)
        assert exact.sum() == pytest.approx(1.0)
        assert peak < 10 * 2**20

    def test_exact_updated_predictive_cross_bin(self):
        m = DirichletHistogramClassifier(2, [0.0], [1.0], bins_per_dim=2)
        m.fit([ex([0.25], 0)])
        # update lands in the other bin: predictive there is untouched
        assert np.allclose(m.exact_updated_predictive([0.75], 1, [0.25]), [2 / 3, 1 / 3])
        assert np.allclose(m.exact_updated_predictive([0.25], 0, [0.25]), [3 / 4, 1 / 4])


# the four model kinds, each fitted on two-feature rows that lie on the
# finite model's grid and in the Dirichlet model's box
GRID2 = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
MODEL_KINDS = {
    "forest": lambda: BootstrapForest(2, num_trees=3, seed=0),
    "dirichlet": lambda: DirichletHistogramClassifier(2, [0.0, 0.0], [1.0, 1.0],
                                                      bins_per_dim=2, num_samples=3),
    "dropout_mlp": lambda: DropoutMLP(2, 2, max_steps=3, num_samples=3),
    "finite": lambda: FiniteHypothesisModel(
        GRID2, np.random.default_rng(0).dirichlet(np.ones(2), size=(3, 4))),
}
# input rows a model must refuse, with the message that names why
BAD_INPUTS = {
    "nan row": (np.where(GRID2 == 1.0, np.nan, GRID2), "finite numbers"),
    "inf row": (np.where(GRID2 == 1.0, np.inf, GRID2), "finite numbers"),
    "narrower": (GRID2[:, :1], "inputs have 1 features, but the model takes 2"),
    "wider": (np.hstack([GRID2, GRID2[:, :1]]),
              "inputs have 3 features, but the model takes 2"),
    "3-d": (GRID2[:, :, None], "1-d"),
}
# each way input rows reach a model
INPUT_ENTRY_POINTS = {
    "fit": lambda m, X: m.fit([ex(x, 0) for x in X]),
    "conditionals": lambda m, X: m.conditionals(X),
    "score_pool candidates":
        lambda m, X: score_pool("epig", m, [ex(x, 0) for x in X], TargetSet(GRID2)),
    "TargetSet targets": lambda m, X: score_pool("epig", m, [ex(GRID2[0], 0)], TargetSet(X)),
}
# each way a list of labelled examples reaches a model's arrays
EXAMPLE_ENTRY_POINTS = {
    "dataset_arrays": lambda m, examples: dataset_arrays(examples, m.num_features),
    "fit": lambda m, examples: m.fit(examples),
    "score_pool": lambda m, examples: score_pool("epig", m, examples, TargetSet(GRID2)),
    "evaluate_accuracy": lambda m, examples: evaluate_accuracy(m, examples),
}


class TestModelInputRule:
    """Every model takes finite input rows of its own width, and nothing else,
    at every entry point (``models.base.as_inputs``)."""

    def fitted(self, kind):
        return MODEL_KINDS[kind]().fit([ex(x, c) for x, c in zip(GRID2, [0, 1, 1, 0])])

    @pytest.mark.parametrize("bad", BAD_INPUTS)
    @pytest.mark.parametrize("entry", INPUT_ENTRY_POINTS)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_rejects(self, kind, entry, bad):
        """Without the rule the finite model reads a narrower row as a grid row,
        the MLP raises numpy's matmul ValueError, the Dirichlet model's NaN
        cast fails, and the forest sends a NaN right at every node."""
        model = self.fitted(kind)
        X, message = BAD_INPUTS[bad]
        with pytest.raises(ValidationError, match=message):
            INPUT_ENTRY_POINTS[entry](model, X)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_model_takes_its_width(self, kind):
        model = self.fitted(kind)
        assert model.num_features == 2
        assert model.conditionals(GRID2).shape == (4, 3, 2)
        assert model.conditionals(np.zeros((0, 5))).shape == (0, 3, 2)

    @pytest.mark.parametrize("kind", ["dirichlet", "finite"])
    def test_fit_on_no_examples(self, kind):
        model = MODEL_KINDS[kind]().fit([])
        assert model.conditionals(GRID2).shape == (4, 3, 2)

    @pytest.mark.parametrize("row, width", [(GRID2[2, :1], 1), (np.append(GRID2[2], 0.0), 3)])
    @pytest.mark.parametrize("entry", EXAMPLE_ENTRY_POINTS)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_rejects_examples_of_mixed_widths(self, kind, entry, row, width):
        """Without the training-set rule numpy's stack raises its bare
        "all input arrays must have the same shape" ValueError."""
        examples = [ex(GRID2[0], 0), ex(GRID2[1], 1), ex(row, 0), ex(GRID2[3], 1)]
        with pytest.raises(ValidationError,
                           match=f"^example 2 has {width} features, but example 0 has 2$"):
            EXAMPLE_ENTRY_POINTS[entry](self.fitted(kind), examples)

    def test_training_set_arrays(self):
        X, y = dataset_arrays([ex([0.0, 1.0], 1), ex([2.0, 3.0], 0)], width=2)
        assert X.tolist() == [[0.0, 1.0], [2.0, 3.0]] and y.tolist() == [1, 0]
        assert dataset_arrays([], width=3)[0].shape == (0, 3)
        assert dataset_arrays([])[0].shape == (0, 0)
        assert dataset_arrays([])[1].shape == (0,)
        with pytest.raises(ValidationError, match="inputs have 2 features, but the model takes 3"):
            dataset_arrays([ex([0.0, 1.0], 1)], width=3)


class TestLabelledExample:
    @pytest.mark.parametrize("label", [1.7, np.float64(2.5), "2", np.nan, 1e30, [1, 0]])
    def test_label_must_be_one_integer(self, label):
        with pytest.raises(ValidationError, match="label"):
            LabelledExample([0.0], label)

    def test_integer_valued_float_label(self):
        assert LabelledExample([0.0], 2.0).label == 2
        assert type(LabelledExample([0.0], np.int64(1)).label) is int

    def test_negative_label(self):
        with pytest.raises(ValidationError, match=r"^label must be non-negative, got -1$"):
            LabelledExample([0.0], -1)

    @pytest.mark.parametrize("features, message", [
        ("abc", "features must be an array of numbers"),
        ([np.nan], "features must be an array of finite numbers"),
        ([[0.0]], "features must be 1-d"),
    ])
    def test_features_must_be_finite_numbers(self, features, message):
        with pytest.raises(ValidationError, match=message):
            LabelledExample(features, 0)


class TestBootstrapForest:
    @pytest.mark.parametrize("a, b", [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
        (1e308, 1.7e308),  # the midpoint overflows to inf
        (-1.7e308, -1e308),  # ... and to -inf
    ])
    def test_threshold_splits_adjacent_and_huge_values(self, a, b):
        rows = np.arange(2)[None, :]  # one tree on the two rows as given
        tree, roots = _grow_trees(np.array([[a], [b]]), np.array([0, 1]), rows, 2, 3, 1, 1.0)
        assert tree.feature[0] == 0
        assert a <= tree.threshold[0] < b
        leaves = [tree.left[0], tree.right[0]]
        assert np.array_equal(_leaf_dists(tree, roots, np.array([[a], [b]]))[0],
                              tree.dist[leaves])
        assert tree.dist[leaves[0]][0] > tree.dist[leaves[1]][0]

    def test_leaf_smoothing_formula(self):
        m = BootstrapForest(2, num_trees=1, max_depth=0, beta=1.0, seed=0)
        m.fit([ex([0.0], 1)] * 3)
        assert np.allclose(m.marginal_predict([0.0]).probs, [0.2, 0.8])

    def test_identical_trees_marginal(self):
        m = BootstrapForest(2, num_trees=2, max_depth=0, beta=1.0, seed=0)
        m.fit([ex([0.0], 1)] * 3)
        e = m.ensemble_predict([0.0])
        assert np.allclose(e.conditionals[0], e.conditionals[1])
        assert np.allclose(m.marginal_predict([0.0]).probs, e.conditionals[0])

    def test_xor_training_accuracy(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1, 1, 0])
        data = [ex(p, int(c)) for p, c in zip(pts, labels)] * 25
        m = BootstrapForest(2, num_trees=50, max_depth=2, seed=4)
        m.fit(data)
        X = np.stack([e_.features for e_ in data])
        y = np.array([e_.label for e_ in data])
        pred = m.marginal_predict_batch(X).argmax(axis=1)
        assert (pred == y).mean() == 1.0

    def test_empty_fit_error(self):
        with pytest.raises(FitError):
            BootstrapForest(2).fit([])

    def test_deterministic_given_seed(self):
        data = [ex([float(i), float(i % 3)], i % 2) for i in range(30)]
        a = BootstrapForest(2, num_trees=5, seed=12).fit(data)
        b = BootstrapForest(2, num_trees=5, seed=12).fit(data)
        X = np.stack([e_.features for e_ in data])
        assert np.array_equal(a.conditionals(X), b.conditionals(X))

    @pytest.mark.parametrize("num_trees", [0, -3])
    def test_rejects_fewer_than_one_tree(self, num_trees):
        with pytest.raises(ValidationError, match="num_trees must be >= 1"):
            BootstrapForest(2, num_trees=num_trees)

    @pytest.mark.parametrize("max_depth", [-1, -3])
    def test_rejects_negative_max_depth(self, max_depth):
        """A negative depth used to grow single-leaf trees, as depth 0 does."""
        with pytest.raises(ValidationError, match=f"^max_depth must be >= 0, got {max_depth}$"):
            BootstrapForest(2, max_depth=max_depth)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_beta_not_finite_and_positive(self, beta):
        """NaN passes a ``beta <= 0`` test, and a NaN or inf beta makes every
        leaf distribution NaN."""
        with pytest.raises(ValidationError,
                           match="^leaf smoothing beta must be positive and finite, got "):
            BootstrapForest(2, beta=beta)

    def test_fit_memory_at_harness_shape(self):
        """32 trees at n=500, d=16, C=10 grow in one block; the level search
        runs in chunks, so the peak stays near 10 MB."""
        import tracemalloc

        rng = np.random.default_rng(16)
        data = [ex(x, int(c)) for x, c in zip(rng.normal(size=(500, 16)),
                                             rng.integers(0, 10, size=500))]
        tracemalloc.start()
        try:
            m = BootstrapForest(10, num_trees=32, max_depth=10, beta=0.05, seed=0).fit(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(m.trees) == 32
        assert peak < 16 * 2**20

    def test_level_search_memory_on_all_tie_data(self):
        """Rows 2k and 2k+1 share the value k and hold one label of each
        class, in every feature: every cell of the root leaves half of each
        side to each class, so every cell of every feature ties and passes
        the screen. Beyond the level's (d, R) sorted values and change mask,
        the search holds less than 4 MiB at any d, because it keeps only each
        node's first lowest cell once the screened cells outgrow a chunk; at
        d=1024 the 261k screened cells alone would hold 12 MiB."""
        import tracemalloc

        C, R = 2, 512
        y = np.arange(R) % C
        total = np.bincount(y, minlength=C)[None, :].astype(float)
        for d in (64, 1024):
            xt = np.repeat((np.arange(R) // C).astype(float)[None, :], d, axis=0)
            order = np.argsort(xt, axis=1, kind="stable")
            tracemalloc.start()
            try:
                feat, column = forest._best_splits(
                    xt, y, np.ones(R), order, np.zeros(1, dtype=np.intp),
                    np.zeros(R, dtype=np.intp), np.ones(1, dtype=bool), total,
                    total.sum(axis=1), 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # ties go to the lowest feature, then the lowest threshold
            assert (feat.tolist(), column.tolist()) == ([0], [C])
            assert peak - xt.size * (8 + 1) < 4 * 2**20

    def test_fit_memory_at_mnist_shape(self, mnist_like):
        """One tree at n=300, d=784, C=10: a block of one tree, searched in
        chunks, so the peak stays near 10 MB."""
        import tracemalloc

        X, y = mnist_like
        data = [ex(x, int(c)) for x, c in zip(X, y)]
        tracemalloc.start()
        try:
            m = BootstrapForest(10, num_trees=1, max_depth=10, seed=0).fit(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(m.trees[0].feature) > 1
        assert peak < 20 * 2**20

    def test_conditionals_memory_at_harness_shape(self):
        """K=32 trees at N=5000 inputs, C=10: one walk over every (tree, input)
        pair holds little beyond its (N, K, C) output."""
        import tracemalloc

        rng = np.random.default_rng(16)
        data = [ex(x, int(c)) for x, c in zip(rng.normal(size=(500, 16)),
                                             rng.integers(0, 10, size=500))]
        m = BootstrapForest(10, num_trees=32, max_depth=10, beta=0.05, seed=0).fit(data)
        X = rng.normal(size=(5000, 16))
        tracemalloc.start()
        try:
            out = m.conditionals(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (5000, 32, 10)
        assert peak < 1.5 * out.nbytes

    def test_marginal_consistency(self):
        data = [ex([float(i % 5), float(i % 3)], i % 2) for i in range(40)]
        m = BootstrapForest(2, num_trees=7, seed=2).fit(data)
        e = m.ensemble_predict([1.0, 2.0])
        assert np.allclose(
            m.marginal_predict([1.0, 2.0]).probs, e.weights @ e.conditionals, atol=1e-9
        )


def tiny_net_fixture():
    data = [
        ex([0.5, -0.2], 0), ex([0.1, 0.4], 1), ex([-0.3, 0.8], 1),
        ex([0.9, -0.5], 0), ex([0.2, 0.1], 1), ex([0.7, 0.3], 0),
    ]
    return data


def numeric_gradient(model, params, X, y, masks, h=1e-6):
    grads = []
    for layer in params:
        layer_grads = []
        for arr in layer:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                lp, _ = model._loss_and_grads(X, y, params, masks)
                arr[idx] = old - h
                lm, _ = model._loss_and_grads(X, y, params, masks)
                arr[idx] = old
                g[idx] = (lp - lm) / (2 * h)
                it.iternext()
            layer_grads.append(g)
        grads.append(layer_grads)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for la, ln in zip(analytic, numeric):
        for ga, gn in zip(la, ln):
            denom = np.maximum(np.abs(gn), 1e-8)
            worst = max(worst, float(np.max(np.abs(ga - gn) / denom)))
    return worst


class TestDropoutMLP:
    def test_zero_dropout_identical_rows(self):
        m = DropoutMLP(2, 2, hidden=(8,), dropout_rate=0.0, max_steps=5,
                       num_samples=6, seed=0)
        m.fit(tiny_net_fixture())
        cond = m.ensemble_predict([0.3, 0.3]).conditionals
        assert np.allclose(cond, cond[0])

    def test_dropout_rows_vary(self):
        m = DropoutMLP(2, 2, hidden=(16,), dropout_rate=0.5, max_steps=5,
                       num_samples=8, seed=0)
        m.fit(tiny_net_fixture())
        cond = m.ensemble_predict([0.3, 0.3]).conditionals
        assert not np.allclose(cond, cond[0])

    def test_separable_blobs_validation_accuracy(self):
        from streamsift import synth_blobs

        # seed 3 gives well-separated classes (mean distance ~ 16 sigma)
        data = synth_blobs(2, 150, dim=2, spread=0.5, seed=3)
        train = data[:100] + data[150:250]
        held_out = data[100:150] + data[250:]
        m = DropoutMLP(2, 2, hidden=(16,), dropout_rate=0.1, learning_rate=0.05,
                       max_steps=200, num_samples=8, seed=3)
        m.fit(train)
        X = np.stack([e_.features for e_ in held_out])
        y = np.array([e_.label for e_ in held_out])
        acc = (m.marginal_predict_batch(X).argmax(axis=1) == y).mean()
        assert acc > 0.95

    def test_gradient_check_nll(self):
        """Analytic vs central finite differences, no weight decay."""
        data = tiny_net_fixture()
        m = DropoutMLP(2, 2, hidden=(3,), dropout_rate=0.0, weight_decay=0.0,
                       max_steps=0, seed=1)
        m.fit(data)
        X = np.stack([e_.features for e_ in data])
        y = np.array([e_.label for e_ in data])
        params = m._init_params()
        _, analytic = m._loss_and_grads(X, y, params, None)
        numeric = numeric_gradient(m, params, X, y, None)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_gradient_check_weight_decay(self):
        """The L2 term's gradient alone, checked independently."""
        data = tiny_net_fixture()
        m = DropoutMLP(2, 2, hidden=(3,), dropout_rate=0.0, weight_decay=0.37,
                       max_steps=0, seed=1)
        m0 = DropoutMLP(2, 2, hidden=(3,), dropout_rate=0.0, weight_decay=0.0,
                        max_steps=0, seed=1)
        m.fit(data)
        m0.fit(data)
        X = np.stack([e_.features for e_ in data])
        y = np.array([e_.label for e_ in data])
        params = m._init_params()
        _, with_wd = m._loss_and_grads(X, y, params, None)
        _, without = m0._loss_and_grads(X, y, params, None)
        for (gW, gb), (hW, hb), (W, b) in zip(with_wd, without, params):
            assert np.allclose(gW - hW, 0.37 * W, atol=1e-12)
            assert np.allclose(gb - hb, 0.37 * b, atol=1e-12)
        numeric = numeric_gradient(m, params, X, y, None)
        assert max_rel_error(with_wd, numeric) < 1e-4

    def test_gradient_check_with_dropout_mask(self):
        data = tiny_net_fixture()
        m = DropoutMLP(2, 2, hidden=(4,), dropout_rate=0.5, weight_decay=0.01,
                       max_steps=0, seed=2)
        m.fit(data)
        X = np.stack([e_.features for e_ in data])
        y = np.array([e_.label for e_ in data])
        params = m._init_params()
        masks = [np.array([1.0, 0.0, 1.0, 1.0])]
        _, analytic = m._loss_and_grads(X, y, params, masks)
        numeric = numeric_gradient(m, params, X, y, masks)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_divergence_error(self):
        m = DropoutMLP(2, 2, hidden=(8,), dropout_rate=0.0, learning_rate=1e12,
                       weight_decay=1.0, max_steps=50, seed=0)
        with pytest.raises(TrainingDivergedError):
            m.fit(tiny_net_fixture())

    @pytest.mark.parametrize("num_samples", [0, -3])
    def test_rejects_fewer_than_one_sample(self, num_samples):
        with pytest.raises(ValidationError, match="num_samples must be >= 1"):
            DropoutMLP(2, 2, num_samples=num_samples)

    @pytest.mark.parametrize("hidden", [(0,), (-1,), (8, 0)])
    def test_rejects_hidden_width_below_one(self, hidden):
        """Without the check a width of 0 divides by zero at fit, and -1 gives
        numpy's "negative dimensions" ValueError."""
        with pytest.raises(ValidationError,
                           match=r"^hidden layer widths must be >= 1, got \["):
            DropoutMLP(2, 2, hidden=hidden)

    @pytest.mark.parametrize("num_features", [0, -1])
    def test_rejects_input_width_below_one(self, num_features):
        """Without the check an input width of 0 divides by zero at fit, in
        the He scale of the first layer, the same failure as a hidden width
        of 0."""
        with pytest.raises(ValidationError,
                           match=f"^num_features must be >= 1, got {num_features}$"):
            DropoutMLP(num_features, 2)

    def test_empty_fit(self):
        with pytest.raises(FitError):
            DropoutMLP(2, 2).fit([])

    def test_label_out_of_range(self):
        with pytest.raises(FitError, match="label 2 out of range for C=2"):
            DropoutMLP(2, 2, max_steps=1).fit([ex([0.0, 0.0], 0), ex([1.0, 1.0], 2)])

    def test_marginal_consistency(self):
        m = DropoutMLP(2, 2, hidden=(8,), dropout_rate=0.2, max_steps=10,
                       num_samples=5, seed=6)
        m.fit(tiny_net_fixture())
        e = m.ensemble_predict([0.1, 0.2])
        assert np.allclose(
            m.marginal_predict([0.1, 0.2]).probs, e.weights @ e.conditionals,
            atol=1e-9,
        )

    def test_refit_reproducible_initialization(self):
        """Refits restart from the same seeded initialization."""
        m = DropoutMLP(2, 2, hidden=(4,), seed=5)
        a = m._init_params()
        m._fit_count += 3
        b = m._init_params()
        assert all(
            np.array_equal(x, y) for la, lb in zip(a, b) for x, y in zip(la, lb)
        )


class TestPosteriorPredictiveAfterUpdate:
    def test_single_hypothesis_no_change(self):
        m = FiniteHypothesisModel([[0.0], [1.0]],
                                  [[[0.6, 0.4], [0.3, 0.7]]])
        m.fit([])
        out = m.posterior_predictive_after_update([0.0], 0, [1.0])
        assert np.allclose(out.probs, m.marginal_predict([1.0]).probs)

    def test_two_hypothesis_by_hand(self):
        grid = [[0.0], [1.0]]
        tables = [
            [[0.9, 0.1], [0.8, 0.2]],
            [[0.1, 0.9], [0.3, 0.7]],
        ]
        m = FiniteHypothesisModel(grid, tables)
        m.fit([])
        out = m.posterior_predictive_after_update([0.0], 0, [1.0])
        # weights become [0.9, 0.1]; marginal at x*=1 is 0.9*0.8 + 0.1*0.3
        assert np.allclose(out.probs, [0.75, 0.25], atol=1e-12)

    def test_dirichlet_matches_conjugate_update(self):
        m = DirichletHistogramClassifier(
            2, [0.0], [1.0], bins_per_dim=1, alpha0=1.0,
            num_samples=10000, seed=21,
        )
        m.fit([ex([0.5], 0), ex([0.5], 0), ex([0.5], 1)])
        implicit = m.posterior_predictive_after_update([0.5], 0, [0.5]).probs
        exact = m.exact_updated_predictive([0.5], 0, [0.5])
        assert np.max(np.abs(implicit - exact)) < 0.01
