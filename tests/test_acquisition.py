"""Acquisition objectives against brute-force oracles and identities."""

import numpy as np
import pytest

from streamsift import (
    BootstrapForest,
    DegenerateEvidenceError,
    DirichletHistogramClassifier,
    DropoutMLP,
    FiniteHypothesisModel,
    LabelledExample,
    TargetSet,
    ValidationError,
    entropy,
    epig,
    epig_scores,
    la_epig,
    la_epig_scores,
    mic,
    mic_scores,
    predictive_ig,
    rho_loss,
    rho_loss_scores,
    score_pool,
)


def ex(features, label):
    return LabelledExample(features, label)


def make_finite(rng, num_hyps, num_classes, grid_size=5):
    grid = np.arange(grid_size, dtype=float)[:, None]
    tables = rng.dirichlet(np.ones(num_classes), size=(num_hyps, grid_size))
    prior = rng.dirichlet(np.ones(num_hyps))
    return FiniteHypothesisModel(grid, tables, prior)


def brute_force_la_epig(model, fitted_on, x, y, targets):
    """Independent oracle: average explicit-refit information gains."""
    gains = []
    for t in targets.inputs:
        before = entropy(model.marginal_predict(t))
        clone = FiniteHypothesisModel(model.grid, model.tables, model.prior)
        clone.fit(fitted_on + [ex(x, y)])
        after = entropy(clone.marginal_predict(t))
        gains.append(before - after)
    return float(np.mean(gains))


class TestPredictiveIG:
    def test_single_hypothesis_zero(self):
        m = FiniteHypothesisModel([[0.0], [1.0]], [[[0.6, 0.4], [0.2, 0.8]]])
        m.fit([])
        assert predictive_ig(m, [0.0], 0, [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_agreeing_hypotheses_zero(self):
        # hypotheses differ at x but agree at x_star
        tables = [
            [[0.9, 0.1], [0.3, 0.7]],
            [[0.2, 0.8], [0.3, 0.7]],
        ]
        m = FiniteHypothesisModel([[0.0], [1.0]], tables)
        m.fit([])
        assert predictive_ig(m, [0.0], 0, [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_two_hypothesis_hand_computed(self):
        # weights [0.5, 0.5]; likelihood of y=0 at x is [0.9, 0.1];
        # class-0 mass at x_star is [0.8, 0.3]. Explicit enumeration gives a
        # prior marginal of 0.55 and an updated marginal of 0.75.
        tables = [
            [[0.9, 0.1], [0.8, 0.2]],
            [[0.1, 0.9], [0.3, 0.7]],
        ]
        m = FiniteHypothesisModel([[0.0], [1.0]], tables)
        m.fit([])
        expected = entropy([0.55, 0.45]) - entropy([0.75, 0.25])
        assert predictive_ig(m, [0.0], 0, [1.0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.12580366909478025, abs=1e-12)

    def test_may_be_negative(self):
        rng = np.random.default_rng(2)
        found_negative = False
        for _ in range(100):
            m = make_finite(rng, 3, 2)
            m.fit([])
            ig = predictive_ig(m, [0.0], 1, [1.0])
            if ig < 0:
                found_negative = True
                break
        assert found_negative


class TestLAEpig:
    def test_m1_equals_predictive_ig(self):
        rng = np.random.default_rng(4)
        m = make_finite(rng, 4, 3)
        m.fit([])
        t = TargetSet([[2.0]])
        assert la_epig(m, [0.0], 1, t) == pytest.approx(
            predictive_ig(m, [0.0], 1, [2.0]), abs=1e-12
        )

    def test_agreeing_hypotheses_zero_everywhere(self):
        table = [[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]]
        m = FiniteHypothesisModel(
            [[0.0], [1.0], [2.0]], [table, table], [0.3, 0.7]
        )
        m.fit([])
        t = TargetSet([[0.0], [1.0], [2.0]])
        for x in (0.0, 1.0, 2.0):
            for y in (0, 1):
                assert la_epig(m, [x], y, t) == pytest.approx(0.0, abs=1e-12)

    def test_matches_explicit_update_oracle(self):
        """Reweighting estimator == brute-force refit average, <= 1e-10."""
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            J = int(rng.integers(2, 6))
            C = int(rng.integers(2, 5))
            m = make_finite(rng, J, C, grid_size=3)
            data = [ex([float(rng.integers(0, 3))], int(rng.integers(0, C)))
                    for _ in range(rng.integers(0, 3))]
            try:
                m.fit(data)
            except DegenerateEvidenceError:
                continue
            x = [float(rng.integers(0, 3))]
            y = int(rng.integers(0, C))
            targets = TargetSet([[0.0], [1.0], [2.0]])
            try:
                fast = la_epig(m, x, y, targets)
            except DegenerateEvidenceError:
                continue
            slow = brute_force_la_epig(m, data, x, y, targets)
            assert fast == pytest.approx(slow, abs=1e-10)
            checked += 1

    def test_degenerate_evidence_raises(self):
        tables = [[[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.4, 0.6]]]
        m = FiniteHypothesisModel([[0.0], [1.0]], tables)
        m.fit([])
        with pytest.raises(DegenerateEvidenceError):
            la_epig(m, [0.0], 1, TargetSet([[1.0]]))


class TestEpig:
    def test_single_hypothesis_zero(self):
        m = FiniteHypothesisModel([[0.0], [1.0]], [[[0.6, 0.4], [0.2, 0.8]]])
        m.fit([])
        assert epig(m, [0.0], TargetSet([[1.0]])) == 0.0

    def test_identical_deterministic_conditionals_zero(self):
        table = [[1.0, 0.0], [0.0, 1.0]]
        m = FiniteHypothesisModel([[0.0], [1.0]], [table, table])
        m.fit([])
        assert epig(m, [0.0], TargetSet([[0.0], [1.0]])) == 0.0

    def test_mixture_identity_with_la_epig(self):
        """EPIG(x) = sum_c p(y=c|x) * LA-EPIG(x, c), shared plug-in joint."""
        rng = np.random.default_rng(13)
        for _ in range(100):
            J = int(rng.integers(2, 6))
            C = int(rng.integers(2, 5))
            m = make_finite(rng, J, C)
            m.fit([])
            x = [float(rng.integers(0, 5))]
            targets = TargetSet(
                rng.integers(0, 5, size=(int(rng.integers(1, 4)), 1)).astype(float)
            )
            marg = m.marginal_predict(x).probs
            mix = sum(
                marg[c] * la_epig(m, x, c, targets)
                for c in range(C) if marg[c] > 0
            )
            assert epig(m, x, targets) == pytest.approx(mix, abs=1e-9)

    def test_no_candidates(self):
        """Three classes (9-cell joints), as the other kernels: shape (0,)."""
        m = make_finite(np.random.default_rng(3), 4, 3)
        m.fit([])
        X, y, targets = np.zeros((0, 1)), np.zeros(0, dtype=int), TargetSet([[1.0], [2.0]])
        assert epig_scores(m, X, targets).shape == (0,)
        for scores in (la_epig_scores(m, X, y, targets), mic_scores(m, X, y),
                       rho_loss_scores(m, m, X, y)):
            assert scores.shape == (0,)

    def test_nonnegative_fuzz(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            m = make_finite(rng, int(rng.integers(1, 6)), int(rng.integers(2, 5)))
            m.fit([])
            x = [float(rng.integers(0, 5))]
            targets = TargetSet([[float(rng.integers(0, 5))]])
            assert epig(m, x, targets) >= 0.0


class TestMic:
    def test_no_update_change_zero(self):
        # single hypothesis: updating cannot move the predictive
        m = FiniteHypothesisModel([[0.0]], [[[0.4, 0.6]]])
        m.fit([])
        assert mic(m, [0.0], 1, eta=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_eta_zero_is_pure_surprise(self):
        rng = np.random.default_rng(3)
        m = make_finite(rng, 3, 3)
        m.fit([])
        for y in range(3):
            expected = -np.log(m.marginal_predict([0.0]).probs[y])
            assert mic(m, [0.0], y, eta=0.0) == pytest.approx(expected, abs=1e-12)

    def test_two_hypothesis_hand_computed(self):
        tables = [
            [[0.9, 0.1]],
            [[0.2, 0.8]],
        ]
        m = FiniteHypothesisModel([[0.0]], tables)
        m.fit([])
        # surprise: -ln(0.55); learnability via Bayes: posterior weights on
        # y=0 are [9/11, 2/11], updated mass = (0.81 + 0.04) / 0.55
        prior_mass = 0.5 * 0.9 + 0.5 * 0.2
        post_mass = (0.5 * 0.81 + 0.5 * 0.04) / prior_mass
        expected = -np.log(prior_mass) + np.log(post_mass)
        assert mic(m, [0.0], 0, eta=1.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_mass_degenerate(self):
        m = FiniteHypothesisModel([[0.0]], [[[1.0, 0.0]]])
        m.fit([])
        with pytest.raises(DegenerateEvidenceError):
            mic(m, [0.0], 1)


class TestRhoLoss:
    def test_aux_equals_model_zero(self):
        rng = np.random.default_rng(31)
        m = make_finite(rng, 3, 3)
        m.fit([])
        assert rho_loss(m, m, [1.0], 2) == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        model = FiniteHypothesisModel([[0.0]], [[[0.25, 0.75]]])
        model.fit([])
        aux = FiniteHypothesisModel([[0.0]], [[[0.5, 0.5]]])
        aux.fit([])
        assert rho_loss(model, aux, [0.0], 0) == pytest.approx(np.log(2), abs=1e-12)

    def test_mic_is_rho_loss_with_implicit_update(self):
        """MIC(x,y,1) == RHO-LOSS against the Bayes-updated model as aux."""
        rng = np.random.default_rng(41)
        for _ in range(50):
            m = make_finite(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            data = [ex([float(rng.integers(0, 5))], int(rng.integers(0, m.num_classes)))]
            try:
                m.fit(data)
            except DegenerateEvidenceError:
                continue
            x = [float(rng.integers(0, 5))]
            y = int(rng.integers(0, m.num_classes))
            try:
                mic_value = mic(m, x, y, eta=1.0)
            except DegenerateEvidenceError:
                continue
            aux = FiniteHypothesisModel(m.grid, m.tables, m.prior)
            aux.fit(data + [ex(x, y)])
            assert mic_value == pytest.approx(rho_loss(m, aux, x, y), abs=1e-10)


class TestScorePool:
    def fixture(self):
        tables = [
            [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]],
            [[0.1, 0.9], [0.3, 0.7], [0.6, 0.4]],
        ]
        m = FiniteHypothesisModel([[0.0], [1.0], [2.0]], tables)
        m.fit([])
        pool = [ex([0.0], 0), ex([1.0], 1), ex([2.0], 0), ex([1.0], 0), ex([2.0], 1)]
        targets = TargetSet([[0.0], [1.0], [2.0]])
        return m, pool, targets

    def test_pool_of_one(self):
        m, pool, targets = self.fixture()
        ranked = score_pool("epig", m, pool[:1], targets)
        assert len(ranked) == 1 and ranked[0].candidate_index == 0

    def test_tie_break_lowest_index(self):
        m, pool, targets = self.fixture()
        same = [ex([1.0], 0), ex([1.0], 0), ex([1.0], 0)]
        ranked = score_pool("mic", m, same)
        assert [s.candidate_index for s in ranked] == [0, 1, 2]

    def test_rank_is_the_best_first_lowest_index_key(self, monkeypatch):
        """The vectorised sort ranks as the key (-value, index) did, on exact
        ties, a signed zero on either side, -inf and degenerate (NaN) scores."""
        values = np.array([0.5, -0.0, 0.0, np.nan, 0.5, -np.inf, 1e-300, 0.0,
                           -0.0, 0.5, np.nan, -1e-300, -np.inf, 2.0, 0.5])
        monkeypatch.setattr("streamsift.acquisition.mic_scores",
                            lambda model, X, y, eta: values.copy())
        pool = [ex([float(i)], 0) for i in range(len(values))]
        ranked = score_pool("mic", None, pool)
        key = np.where(np.isnan(values), -np.inf, values)
        expected = sorted(range(len(values)), key=lambda i: (-key[i], i))
        assert [s.candidate_index for s in ranked] == expected
        assert [s.value for s in ranked] == [float(key[i]) for i in expected]

    def test_matches_per_candidate_oracle(self):
        m, pool, targets = self.fixture()
        for objective in ("epig", "la_epig", "mic"):
            ranked = score_pool(objective, m, pool, targets, seed=0)
            scalar = {
                "epig": lambda e: epig(m, e.features, targets),
                "la_epig": lambda e: la_epig(m, e.features, e.label, targets),
                "mic": lambda e: mic(m, e.features, e.label),
            }[objective]
            expected = sorted(
                range(len(pool)),
                key=lambda i: (-scalar(pool[i]), i),
            )
            assert [s.candidate_index for s in ranked] == expected
            for s in ranked:
                assert s.value == pytest.approx(scalar(pool[s.candidate_index]), abs=1e-9)

    def test_random_is_seeded_and_model_free(self):
        pool = [ex([0.0], 0), ex([1.0], 1), ex([2.0], 0)]
        a = score_pool("random", None, pool, seed=5)
        b = score_pool("random", None, pool, seed=5)
        c = score_pool("random", None, pool, seed=6)
        assert [s.candidate_index for s in a] == [s.candidate_index for s in b]
        assert a[0].value == b[0].value
        assert [s.candidate_index for s in a] != [s.candidate_index for s in c] or (
            a[0].value != c[0].value
        )

    def test_degenerate_candidates_rank_last(self):
        tables = [[[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.4, 0.6]]]
        m = FiniteHypothesisModel([[0.0], [1.0]], tables)
        m.fit([])
        pool = [ex([0.0], 1), ex([1.0], 0)]  # first has zero evidence
        diag = {}
        ranked = score_pool("la_epig", m, pool, TargetSet([[1.0]]), diagnostics=diag)
        assert ranked[-1].candidate_index == 0
        assert ranked[-1].value == -np.inf
        assert diag["degenerate_candidates"] == [0]

    def test_unknown_objective(self):
        with pytest.raises(ValidationError):
            score_pool("foo", None, [ex([0.0], 0)])

    def test_empty_pool(self):
        with pytest.raises(ValidationError):
            score_pool("random", None, [])

    def test_argmax_invariant_to_ignored_dimension(self):
        """Rankings depend only on predictive quantities: duplicating every
        candidate's features in an appended dimension the model ignores
        leaves all scores unchanged."""
        rng = np.random.default_rng(61)
        grid1 = np.arange(4, dtype=float)[:, None]
        tables = rng.dirichlet(np.ones(3), size=(3, 4))
        m1 = FiniteHypothesisModel(grid1, tables)
        grid2 = np.column_stack([grid1[:, 0], grid1[:, 0]])
        m2 = FiniteHypothesisModel(grid2, tables)
        data1 = [ex([0.0], 1), ex([2.0], 0)]
        data2 = [ex([0.0, 0.0], 1), ex([2.0, 2.0], 0)]
        m1.fit(data1)
        m2.fit(data2)
        pool1 = [ex([float(g)], int(rng.integers(0, 3))) for g in range(4)]
        pool2 = [ex([e.features[0], e.features[0]], e.label) for e in pool1]
        t1 = TargetSet(grid1)
        t2 = TargetSet(grid2)
        for objective in ("epig", "la_epig", "mic"):
            r1 = score_pool(objective, m1, pool1, t1, seed=3)
            r2 = score_pool(objective, m2, pool2, t2, seed=3)
            assert [s.candidate_index for s in r1] == [s.candidate_index for s in r2]
            assert np.allclose(
                [s.value for s in r1], [s.value for s in r2], atol=1e-12
            )


class TestInputRule:
    """A 1-D X is N inputs with one feature each, for every model and kernel."""

    X = np.arange(4.0)
    y = np.array([0, 1, 1, 0])

    def fitted(self, kind):
        if kind == "forest":
            model = BootstrapForest(2, num_trees=5, seed=1)
        elif kind == "dirichlet":
            model = DirichletHistogramClassifier(2, [0.0], [3.0], bins_per_dim=2,
                                                 num_samples=5, seed=1)
        elif kind == "dropout_mlp":
            model = DropoutMLP(1, 2, max_steps=5, num_samples=5, seed=1)
        else:
            model = make_finite(np.random.default_rng(1), 3, 2, grid_size=4)
        return model.fit([ex([x], c) for x, c in zip(self.X, self.y)])

    @pytest.mark.parametrize("kind", ["forest", "dirichlet", "dropout_mlp", "finite"])
    def test_one_dimensional_inputs_are_single_feature_rows(self, kind):
        model = self.fitted(kind)
        aux = self.fitted("finite")
        X1, X2 = self.X, self.X[:, None]
        assert np.array_equal(model.conditionals(X1), model.conditionals(X2))
        assert np.array_equal(TargetSet(X1).inputs, TargetSet(X2).inputs)
        targets = TargetSet(X2)
        pairs = [
            (epig_scores(model, X1, targets), epig_scores(model, X2, targets)),
            (la_epig_scores(model, X1, self.y, targets),
             la_epig_scores(model, X2, self.y, targets)),
            (mic_scores(model, X1, self.y), mic_scores(model, X2, self.y)),
            (rho_loss_scores(model, aux, X1, self.y),
             rho_loss_scores(model, aux, X2, self.y)),
        ]
        for one_d, two_d in pairs:
            assert np.array_equal(one_d, two_d, equal_nan=True)

    @pytest.mark.parametrize("kind", ["forest", "dirichlet", "dropout_mlp", "finite"])
    def test_scalar_input_is_one_feature(self, kind):
        """A scalar x is the same input as [x] at every single-input call."""
        model = self.fitted(kind)
        aux = self.fitted("finite")
        targets = TargetSet(self.X[:, None])
        for x, y in ((1.0, 1), (np.float64(2.0), 0)):
            for scalar, row in (
                (model.ensemble_predict(x).conditionals,
                 model.ensemble_predict([x]).conditionals),
                (model.marginal_predict(x).probs, model.marginal_predict([x]).probs),
                (model.posterior_predictive_after_update(x, y, x).probs,
                 model.posterior_predictive_after_update([x], y, [x]).probs),
                (epig(model, x, targets), epig(model, [x], targets)),
                (la_epig(model, x, y, targets), la_epig(model, [x], y, targets)),
                (mic(model, x, y), mic(model, [x], y)),
                (rho_loss(model, aux, x, y), rho_loss(model, aux, [x], y)),
            ):
                assert np.array_equal(scalar, row)
        if kind == "dirichlet":
            assert model.bin_index(2.0) == model.bin_index([2.0]) == 1

    def test_single_input_must_be_one_row(self):
        model = self.fitted("finite")
        with pytest.raises(ValidationError, match=r"scalar or 1-d, got shape \(1, 1\)"):
            model.ensemble_predict([[1.0]])


# each scoring entry point called with label y, as (model, aux, targets, y) -> score
LABEL_ENTRY_POINTS = {
    "mic": lambda m, aux, t, y: mic(m, 1.0, y),
    "la_epig": lambda m, aux, t, y: la_epig(m, 1.0, y, t),
    "rho_loss": lambda m, aux, t, y: rho_loss(m, aux, 1.0, y),
    "mic_scores": lambda m, aux, t, y: mic_scores(m, [0.0, 1.0], [0, y]),
    "la_epig_scores": lambda m, aux, t, y: la_epig_scores(m, [0.0, 1.0], [0, y], t),
    "rho_loss_scores": lambda m, aux, t, y: rho_loss_scores(m, aux, [0.0, 1.0], [0, y]),
    "predictive_ig": lambda m, aux, t, y: predictive_ig(m, 1.0, y, 2.0),
    "posterior_predictive_after_update":
        lambda m, aux, t, y: m.posterior_predictive_after_update(1.0, y, 2.0),
    # the Dirichlet model's exact conjugate quantities
    "exact_updated_predictive": lambda m, aux, t, y: m.exact_updated_predictive(1.0, y),
    "parameter_kl_of_update": lambda m, aux, t, y: m.parameter_kl_of_update(1.0, y),
}


class TestLabelRule:
    """Every scoring entry point takes labels that are integers in [0, C)."""

    @pytest.mark.parametrize("label", [-1, 2, 1.7])
    @pytest.mark.parametrize("kind, name", [
        (kind, name) for name in LABEL_ENTRY_POINTS for kind in ("dirichlet", "finite")
        if kind == "dirichlet" or not name.startswith(("exact", "parameter"))
    ])
    def test_label_outside_the_classes(self, kind, name, label):
        model = TestInputRule().fitted(kind)
        aux = TestInputRule().fitted("finite")
        with pytest.raises(ValidationError,
                           match=rf"^label {label} is not an integer in \[0, 2\)$"):
            LABEL_ENTRY_POINTS[name](model, aux, TargetSet(TestInputRule.X), label)

    @pytest.mark.parametrize("kind", ["dirichlet", "finite"])
    def test_integer_valued_float_labels_score_as_integers(self, kind):
        model = TestInputRule().fitted(kind)
        targets = TargetSet(TestInputRule.X)
        X = TestInputRule.X
        y = TestInputRule.y
        assert np.array_equal(mic_scores(model, X, y), mic_scores(model, X, y.astype(float)))
        assert np.array_equal(la_epig_scores(model, X, y, targets),
                              la_epig_scores(model, X, y.astype(float), targets))

    @pytest.mark.parametrize("count", [3, 7])
    @pytest.mark.parametrize("kernel", ["la_epig_scores", "mic_scores", "rho_loss_scores"])
    @pytest.mark.parametrize("kind", ["dirichlet", "finite"])
    def test_one_label_per_candidate(self, kind, kernel, count):
        """Five candidates with three or seven labels: neither three scores
        nor an IndexError, but an error that names both counts."""
        model = TestInputRule().fitted(kind)
        aux = TestInputRule().fitted("finite")
        X, y = np.array([0.0, 1.0, 2.0, 3.0, 1.0]), np.zeros(count, dtype=int)
        call = {
            "la_epig_scores": lambda: la_epig_scores(model, X, y, TargetSet(X)),
            "mic_scores": lambda: mic_scores(model, X, y),
            "rho_loss_scores": lambda: rho_loss_scores(model, aux, X, y),
        }[kernel]
        with pytest.raises(ValidationError,
                           match=rf"^got labels of shape \({count},\) for 5 inputs$"):
            call()

    @pytest.mark.parametrize("kernel", ["la_epig_scores", "mic_scores", "rho_loss_scores"])
    def test_label_count_follows_the_input_rule(self, kernel):
        """A scalar X breaks the input rule before its labels are counted."""
        model = TestInputRule().fitted("finite")
        X, y = np.float64(1.0), np.zeros(1, dtype=int)
        call = {
            "la_epig_scores": lambda: la_epig_scores(model, X, y, TargetSet([0.0])),
            "mic_scores": lambda: mic_scores(model, X, y),
            "rho_loss_scores": lambda: rho_loss_scores(model, model, X, y),
        }[kernel]
        with pytest.raises(ValidationError, match=r"^inputs must be 1-d or 2-d"):
            call()

    def test_label_shape_is_reported(self):
        """A label array wrapped once too often is named by its shape."""
        model = TestInputRule().fitted("finite")
        with pytest.raises(ValidationError,
                           match=r"^got labels of shape \(1, 1\) for 1 inputs$"):
            la_epig(model, 1.0, np.array([1]), TargetSet(TestInputRule.X))
