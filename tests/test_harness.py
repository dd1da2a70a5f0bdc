"""Experiment driver: protocol invariants, determinism, serialization."""

import json
from pathlib import Path

import numpy as np
import pytest

from streamsift import (
    ConfigError,
    TrainingDivergedError,
    harness,
    run_experiment,
    write_results,
)
from streamsift.config import TRAINING_DEFAULTS, apply_overrides, validate_config
from streamsift.harness import (
    ExperimentConfig,
    _try_fit,
    build_model,
    build_target_set,
    evaluate_accuracy,
)
from streamsift.models import BootstrapForest, FiniteHypothesisModel
from streamsift.streams import StreamSchedule
from streamsift.models.base import LabelledExample
from streamsift.rng import derive_seed


def blob_config(**over):
    cfg = {
        "stream": {
            "kind": "split", "steps": 2, "seed": 0,
            "dataset": {
                "source": "blobs", "num_classes": 4, "per_class": 20,
                "dim": 2, "spread": 0.8, "eval_per_class": 10,
                "target_per_class": 10,
            },
        },
        "model": {"kind": "forest", "max_depth": 4},
        "objective": {"name": "epig"},
        "store": {"m": 8},
        "targets": {"M": 16},
        "sampling": {"K": 8},
        "seeds": [0, 1],
    }
    for key, value in over.items():
        cfg[key] = value
    return cfg


def strip_timing(result_dict):
    out = json.loads(json.dumps(result_dict, default=str))
    out.pop("timing", None)
    return out


class TestRunExperiment:
    def test_random_single_candidate(self):
        cfg = blob_config(
            objective={"name": "random"},
            store={"m": 1},
            stream={
                "kind": "stationary", "steps": 1, "seed": 0,
                "dataset": {
                    "source": "blobs", "num_classes": 2, "per_class": 3,
                    "dim": 2, "spread": 0.3, "eval_per_class": 3,
                    "target_per_class": 2,
                },
            },
            seeds=[0],
        )
        result = run_experiment(cfg)
        run = result.per_seed[0]
        assert run.status == "ok"
        assert run.store_track[-1]["size"] == 1
        assert len(run.accuracies) == 1

    def test_store_grows_by_quota(self):
        result = run_experiment(blob_config())
        for run in result.per_seed:
            for t, track in enumerate(run.store_track):
                assert track["size"] == (t + 1) * 4  # m=8 over 2 steps
                # every stored example is traceable to its originating step
                assert track["origin_steps"] == sorted(track["origin_steps"])
                assert track["origin_steps"].count(t) == 4

    def test_chosen_score_is_max(self):
        result = run_experiment(blob_config())
        for run in result.per_seed:
            for sel in run.selections:
                if sel["summary"]["max"] is not None and np.isfinite(sel["score"]):
                    assert sel["score"] == pytest.approx(sel["summary"]["max"])

    def test_random_never_consumes_targets(self):
        result = run_experiment(blob_config(objective={"name": "random"}))
        for run in result.per_seed:
            assert all(s["target_evaluations"] == 0 for s in run.selections)

    def test_epig_consumes_targets(self):
        result = run_experiment(blob_config())
        run = result.per_seed[0]
        assert any(s["target_evaluations"] > 0 for s in run.selections)

    def test_deterministic_repeat(self):
        a = run_experiment(blob_config())
        b = run_experiment(blob_config())
        assert strip_timing(a.to_dict()) == strip_timing(b.to_dict())

    def test_ledger_matches_strategy_d(self):
        result = run_experiment(blob_config())
        run = result.per_seed[0]
        n = 40  # per_class 20, two classes per split step
        for t in range(2):
            assert run.ledger["storage"][t] == (t + 1) * 4
            assert run.ledger["selection"][t] == n
            assert run.ledger["training"][t] == (t + 1) * 4

    def test_failed_seed_reported_not_fatal(self):
        cfg = blob_config(
            model={"kind": "dropout_mlp", "hidden": [8]},
            training={"lr": 1e12, "max_steps": 30, "weight_decay": 1.0},
            objective={"name": "random"},
            seeds=[0],
        )
        result = run_experiment(cfg)
        assert result.summary["seeds_failed"] == [0]
        assert result.per_seed[0].error.startswith("TrainingDivergedError")

    @pytest.mark.parametrize("error", [IndexError, MemoryError])
    def test_any_exception_fails_only_its_seed(self, monkeypatch, error):
        bad_seed = derive_seed(1, harness._TAG_MODEL)

        class FaultyForest(BootstrapForest):
            def __init__(self, *args, seed, **kwargs):
                super().__init__(*args, seed=seed, **kwargs)
                self.faulty = seed == bad_seed

            def fit(self, examples):
                if self.faulty:
                    raise error("fault in seed 1")
                return super().fit(examples)

        monkeypatch.setattr(harness, "BootstrapForest", FaultyForest)
        result = run_experiment(blob_config(seeds=[0, 1, 2]))
        assert result.summary["seeds_ok"] == [0, 2]
        assert result.summary["seeds_failed"] == [1]
        assert result.per_seed[1].error == f"{error.__name__}: fault in seed 1"

    def test_failed_seed_keeps_what_it_recorded(self, monkeypatch, tmp_path):
        """Seed 1's first fit on a step-1 pick fails: the seed keeps step 0's
        accuracy and store track and the selections made so far, each equal
        to a clean run's, and the summary and results.csv still leave it
        out."""
        clean = run_experiment(blob_config(seeds=[1])).per_seed[0]
        bad_seed = derive_seed(1, harness._TAG_MODEL)

        class FaultyForest(BootstrapForest):
            def __init__(self, *args, seed, **kwargs):
                super().__init__(*args, seed=seed, **kwargs)
                self.faulty = seed == bad_seed

            def fit(self, examples):
                if self.faulty and len(examples) > 4:  # step 0 stores four
                    raise RuntimeError("fault at step 1")
                return super().fit(examples)

        monkeypatch.setattr(harness, "BootstrapForest", FaultyForest)
        result = run_experiment(blob_config(seeds=[0, 1]))
        run = result.per_seed[1]
        assert (run.status, run.error) == ("failed", "RuntimeError: fault at step 1")
        assert run.accuracies == clean.accuracies[:1]
        assert run.store_track == clean.store_track[:1]
        # step 1's slot 0 scores on the model fitted on step 0's store
        assert run.selections == clean.selections[:5]
        assert result.summary["seeds_ok"] == [0]
        assert result.summary["per_step_mean_accuracy"] == result.per_seed[0].accuracies
        paths = write_results(result, tmp_path)
        rows = paths["csv"].read_text().splitlines()[1:]
        assert rows and all(row.startswith("0,") for row in rows)
        saved = json.loads(paths["json"].read_text())["per_seed"][1]
        assert saved["accuracies"] == run.accuracies

    def test_failed_seed_records_where_it_failed(self, monkeypatch, tmp_path):
        """Seed 1's fit fails at step 1, slot 5: a step of eight picks stores
        eight, and that slot's fit adds five. Its record names the step, slot
        and phase; the ok seed's record has no ``failed_at``."""
        bad_seed = derive_seed(1, harness._TAG_MODEL)

        class FaultyForest(BootstrapForest):
            def __init__(self, *args, seed, **kwargs):
                super().__init__(*args, seed=seed, **kwargs)
                self.faulty = seed == bad_seed

            def fit(self, examples):
                if self.faulty and len(examples) == 8 + 5:
                    raise RuntimeError("fault at step 1, slot 5")
                return super().fit(examples)

        monkeypatch.setattr(harness, "BootstrapForest", FaultyForest)
        result = run_experiment(blob_config(store={"m": 16}, seeds=[0, 1]))
        ok, run = result.per_seed
        assert run.status == "failed"
        assert run.failed_at == {"step": 1, "slot": 5, "phase": "fit"}
        assert [(s["step"], s["slot"]) for s in run.selections][-1] == (1, 4)
        assert ok.status == "ok" and ok.failed_at is None
        saved = json.loads(write_results(result, tmp_path)["json"].read_text())["per_seed"]
        assert "failed_at" not in saved[0]
        assert saved[1]["failed_at"] == {"step": 1, "slot": 5, "phase": "fit"}

    @pytest.mark.parametrize("site, failed_at", [
        ("score_pool", {"step": 0, "slot": 2, "phase": "score"}),
        ("evaluate_accuracy", {"step": 0, "slot": None, "phase": "evaluate"}),
        ("prepare_data", {"step": None, "slot": None, "phase": "prepare"}),
    ])
    def test_failed_at_names_the_phase(self, monkeypatch, site, failed_at):
        """The third ``score_pool`` call (step 0, slot 2), the first
        evaluation (after step 0's selections) or the data preparation."""
        calls = []
        original = getattr(harness, site)

        def faulty(*args, **kwargs):
            calls.append(1)
            if len(calls) == (3 if site == "score_pool" else 1):
                raise IndexError(f"fault in {site}")
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, site, faulty)
        run = run_experiment(blob_config(seeds=[0])).per_seed[0]
        assert (run.status, run.error) == ("failed", f"IndexError: fault in {site}")
        assert run.failed_at == failed_at

    def test_mic_and_rho_loss_run(self):
        mic_result = run_experiment(blob_config(objective={"name": "mic"}, seeds=[0]))
        assert mic_result.per_seed[0].status == "ok"
        cfg = blob_config(objective={"name": "rho_loss"}, seeds=[0])
        cfg["stream"]["dataset"]["holdout_per_class"] = 10
        rho_result = run_experiment(cfg)
        assert rho_result.per_seed[0].status == "ok"

    def test_dirichlet_rho_loss_box_covers_holdout(self):
        cfg = blob_config(model={"kind": "dirichlet"}, objective={"name": "rho_loss"})
        cfg["stream"]["dataset"]["holdout_per_class"] = 10
        result = run_experiment(cfg)
        assert result.summary["seeds_failed"] == []

    def test_class_only_in_the_holdout_is_counted(self, tmp_path):
        rows = [f"{i % 5}.0,{c}.5,{c}" for c in range(3) for i in range(20)]
        rows.insert(30, "9.0,9.0,3")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = blob_config(objective={"name": "rho_loss"}, store={"m": 4},
                          seeds=list(range(12)))
        cfg["stream"] = {"kind": "stationary", "steps": 2, "seed": 0, "dataset": {
            "source": "csv", "path": str(path), "label_column": -1,
            "holdout_fraction": 0.4}}
        config = harness.ExperimentConfig.from_dict(cfg)
        examples = harness.load_examples(config)

        def only_in_holdout(seed):
            data = harness.prepare_data(config, seed, examples)
            seen = {ex.label for batch in data["schedule"] for ex in batch}
            seen |= {ex.label for ex in data["eval_set"]}
            return 3 not in seen and 3 in {ex.label for ex in data["holdout"]}

        assert any(only_in_holdout(seed) for seed in config.seeds)  # the case occurs
        result = run_experiment(config)
        assert result.summary["seeds_failed"] == []

    def test_dataset_file_read_once_per_run(self, tmp_path, monkeypatch):
        rows = [f"{i % 5}.0,{c}.5,{c}" for c in range(3) for i in range(20)]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = blob_config(objective={"name": "random"}, store={"m": 4}, seeds=[0, 1, 2, 3])
        cfg["stream"] = {"kind": "stationary", "steps": 2, "seed": 0, "dataset": {
            "source": "csv", "path": str(path), "label_column": -1}}
        calls = []
        load_csv = harness.load_csv

        def counting_load_csv(*args, **kwargs):
            calls.append(args)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(harness, "load_csv", counting_load_csv)
        result = run_experiment(cfg)
        assert result.summary["seeds_ok"] == [0, 1, 2, 3]
        assert len(calls) == 1

    def test_fixed_targets_read_once_per_run(self, tmp_path, monkeypatch):
        path = tmp_path / "targets.csv"
        path.write_text("0.0,0.0\n1.0,-1.0\n2.0,3.0\n")
        cfg = blob_config(targets={"source": "fixed", "path": str(path)}, seeds=[0, 1, 2])
        calls = []
        load_features_csv = harness.load_features_csv

        def counting_load_features_csv(*args, **kwargs):
            calls.append(args)
            return load_features_csv(*args, **kwargs)

        monkeypatch.setattr(harness, "load_features_csv", counting_load_features_csv)
        result = run_experiment(cfg)
        assert result.summary["seeds_ok"] == [0, 1, 2]
        assert len(calls) == 1

    def test_objective_without_targets_never_reads_the_fixed_file(self, tmp_path):
        cfg = blob_config(objective={"name": "mic"}, seeds=[0], targets={
            "source": "fixed", "path": str(tmp_path / "missing.csv")})
        assert run_experiment(cfg).summary["seeds_ok"] == [0]

    def test_missing_fixed_targets_is_config_error(self, tmp_path):
        cfg = blob_config(targets={"source": "fixed", "path": str(tmp_path / "missing.csv")})
        with pytest.raises(ConfigError, match="^cannot read targets.path: .*missing.csv"):
            run_experiment(cfg)

    @pytest.mark.parametrize("refit_every, fit_sizes", [
        # training-set size at each fit: refit slots, then the step-end fit;
        # the step-0 slot-0 fit on the empty store fails, so slot 1 refits
        (1, [0, 1, 2, 3, 4, 4, 5, 6, 7, 8]),
        (2, [0, 1, 3, 4, 4, 6, 8]),
        (4, [0, 1, 4, 4, 8]),
    ])
    def test_refit_every_schedule(self, monkeypatch, refit_every, fit_sizes):
        sizes = []

        class CountingForest(BootstrapForest):
            def fit(self, examples):
                sizes.append(len(examples))
                return super().fit(examples)

        monkeypatch.setattr(harness, "BootstrapForest", CountingForest)
        cfg = blob_config(training={"refit_every": refit_every}, seeds=[0])
        run = run_experiment(cfg).per_seed[0]
        assert run.status == "ok"
        assert sizes == fit_sizes
        cold = [(s["step"], s["slot"]) for s in run.selections if s["cold_start"]]
        assert cold == [(0, 0)]

    def test_dirichlet_and_mlp_models_run(self):
        cfg = blob_config(model={"kind": "dirichlet", "bins_per_dim": 6}, seeds=[0])
        assert run_experiment(cfg).per_seed[0].status == "ok"
        cfg = blob_config(
            model={"kind": "dropout_mlp", "hidden": [8]},
            training={"lr": 0.05, "max_steps": 40},
            seeds=[0],
        )
        assert run_experiment(cfg).per_seed[0].status == "ok"

    def test_quota_larger_than_batch_is_config_error(self):
        cfg = blob_config(store={"m": 100, "quota": 50})
        with pytest.raises(ConfigError, match="requires m <= n"):
            run_experiment(cfg)

    def test_split_stream_class_count_is_config_error(self):
        cfg = blob_config()
        cfg["stream"]["dataset"]["num_classes"] = 2
        with pytest.raises(ConfigError, match="exactly 2\\*T=4 classes, found 2"):
            run_experiment(cfg)


class TestTryFit:
    def test_empty_set_is_a_cold_start(self):
        assert _try_fit(BootstrapForest(2, num_trees=2, seed=0), []) is False

    def test_divergence_on_a_nonempty_set_propagates(self):
        class Diverging:
            def fit(self, examples):
                raise TrainingDivergedError("non-finite training loss: nan")

        with pytest.raises(TrainingDivergedError):
            _try_fit(Diverging(), [LabelledExample([0.0], 0)])


class TestBuildModel:
    DIRICHLET = {"kind": "dirichlet", "bins_per_dim": 4, "alpha0": 1.0,
                 "lower": None, "upper": None}

    def test_dirichlet_box_covers_every_source(self):
        labelled = {"stream": [LabelledExample([0.0, 2.0], 0)], "evaluation": []}
        inputs = [("pool", np.array([[1.0, -1.0], [3.0, 0.5]])), ("empty", np.zeros((0, 0)))]
        model = build_model(self.DIRICHLET, 2, TRAINING_DEFAULTS, 0, labelled, inputs)
        assert model.lower.tolist() == [-1e-6, -1.0 - 1e-6]
        assert model.upper.tolist() == [3.0 + 1e-6, 2.0 + 1e-6]

    def test_explicit_bounds_and_other_models_unchanged(self):
        labelled = {"stream": [LabelledExample([5.0], 0)]}
        spec = dict(self.DIRICHLET, lower=[0.0], upper=[1.0])
        model = build_model(spec, 2, TRAINING_DEFAULTS, 0, labelled)
        assert model.lower.tolist() == [0.0] and model.upper.tolist() == [1.0]
        forest = build_model({"kind": "forest", "max_depth": 4, "min_leaf": 1, "beta": 1.0},
                             2, TRAINING_DEFAULTS, 0, labelled, [("targets", [[7.0]])])
        assert isinstance(forest, BootstrapForest)

    @pytest.mark.parametrize("labels,num_classes", [
        ([0], 2), ([], 2), ([1, 0], 2), ([0, 4], 5),
    ])
    def test_class_count_is_at_least_two(self, labels, num_classes):
        labelled = {"store": [LabelledExample([0.0], labels[0])] if labels else [],
                    "candidates": [LabelledExample([1.0], c) for c in labels[1:]]}
        model = build_model({"kind": "forest", "max_depth": 4, "min_leaf": 1, "beta": 1.0},
                            2, TRAINING_DEFAULTS, 0, labelled)
        assert model.num_classes == num_classes

    def test_input_width_of_the_first_source(self):
        spec = {"kind": "dropout_mlp", "hidden": [4], "dropout_rate": 0.1}
        labelled = {"store": [], "candidates": [LabelledExample([0.0, 1.0, 2.0], 0)]}
        model = build_model(spec, 2, TRAINING_DEFAULTS, 0, labelled, [("t", np.zeros((2, 3)))])
        assert model.num_features == 3

    def test_source_of_another_width_is_config_error(self):
        labelled = {"store": [LabelledExample([0.0, 1.0], 0)], "candidates": []}
        with pytest.raises(ConfigError, match="^t.csv has 3 features per row, but store has 2$"):
            build_model(self.DIRICHLET, 2, TRAINING_DEFAULTS, 0, labelled,
                        [("t.csv", np.zeros((1, 3)))])


class TestEvaluateAccuracy:
    def test_uniform_tie_breaks_to_lowest_class(self):
        m = FiniteHypothesisModel([[0.0]], [[[0.5, 0.5]]])
        m.fit([])
        assert evaluate_accuracy(m, [LabelledExample([0.0], 0)]) == 1.0
        assert evaluate_accuracy(m, [LabelledExample([0.0], 1)]) == 0.0

    def test_perfect_forest_on_training_data(self):
        from streamsift import BootstrapForest, synth_blobs

        # seed 3: class means at least ~5 units apart, spread 0.1
        data = synth_blobs(3, 30, dim=2, spread=0.1, seed=3)
        m = BootstrapForest(3, num_trees=30, max_depth=5, seed=0).fit(data)
        assert evaluate_accuracy(m, data) == 1.0


class TestBuildTargetSet:
    def context(self):
        batches = [
            [LabelledExample([float(i)], 0) for i in range(3)],
            [LabelledExample([10.0 + i], 1) for i in range(3)],
        ]
        return {
            "target_pool": np.arange(20, dtype=float)[:, None],
            "schedule": StreamSchedule(batches, kind="split"),
            "step": 0,
        }

    def test_fixed_file_in_order(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        config = ExperimentConfig.from_dict(blob_config(
            targets={"source": "fixed", "path": str(path), "M": 2}))
        spec, fixed = config.targets, harness.load_fixed_targets(config)
        ts = build_target_set(spec, dict(self.context(), fixed_targets=fixed), seed=0)
        assert np.array_equal(ts.inputs, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_global_seeded(self):
        spec = {"source": "global", "M": 5, "path": None}
        a = build_target_set(spec, self.context(), seed=4)
        b = build_target_set(spec, self.context(), seed=4)
        assert np.array_equal(a.inputs, b.inputs)

    def test_seen_so_far_only_uses_past_steps(self):
        spec = {"source": "seen_so_far", "M": 3, "path": None}
        ts = build_target_set(spec, self.context(), seed=0)
        assert np.all(ts.inputs < 10.0)

    def test_m_exceeding_pool(self):
        spec = {"source": "global", "M": 100, "path": None}
        with pytest.raises(ConfigError):
            build_target_set(spec, self.context(), seed=0)

    def test_global_covers_classes_multinomially(self):
        """Coverage of a 4-chunk pool under uniform draws over many seeds."""
        pool = np.arange(40, dtype=float)[:, None]
        ctx = dict(self.context(), target_pool=pool)
        spec = {"source": "global", "M": 20, "path": None}
        covered = 0
        for seed in range(200):
            ts = build_target_set(spec, ctx, seed=seed)
            chunks = set((ts.inputs[:, 0] // 10).astype(int).tolist())
            covered += chunks == {0, 1, 2, 3}
        # P(miss a chunk) = 4 * C(30,20)/C(40,20) ~ 0.4%; allow noise
        assert covered >= 190


class TestWriteResults:
    def test_files_and_csv_shape(self, tmp_path):
        result = run_experiment(blob_config())
        paths = write_results(result, tmp_path)
        assert paths["json"].exists() and paths["csv"].exists() and paths["svg"].exists()
        lines = paths["csv"].read_text().strip().splitlines()
        assert lines[0] == "seed,step,objective,accuracy"
        assert len(lines) == 1 + 2 * 2  # seeds x steps

    def test_json_round_trips_config(self, tmp_path):
        result = run_experiment(blob_config())
        paths = write_results(result, tmp_path)
        with open(paths["json"], encoding="utf-8") as fh:
            doc = json.load(fh)
        reparsed = validate_config(doc["config"])
        assert reparsed == result.config

    def test_rerun_byte_identical_outputs(self, tmp_path):
        a = write_results(run_experiment(blob_config()), tmp_path / "a")
        b = write_results(run_experiment(blob_config()), tmp_path / "b")
        assert a["csv"].read_bytes() == b["csv"].read_bytes()
        assert a["svg"].read_bytes() == b["svg"].read_bytes()
        da = json.loads(a["json"].read_text(encoding="utf-8"))
        db = json.loads(b["json"].read_text(encoding="utf-8"))
        da.pop("timing"), db.pop("timing")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        cfg = blob_config()
        cfg["bogus"] = 1
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert "bogus" in str(err.value)

    def test_unknown_objective(self):
        with pytest.raises(ConfigError) as err:
            validate_config(blob_config(objective={"name": "foo"}))
        assert "objective.name" in str(err.value)

    def test_quota_default_requires_divisibility(self):
        with pytest.raises(ConfigError) as err:
            validate_config(blob_config(store={"m": 7}))
        assert "divisible" in str(err.value)

    def test_quota_times_steps_bounded_by_m(self):
        with pytest.raises(ConfigError):
            validate_config(blob_config(store={"m": 8, "quota": 5}))

    def test_overrides(self):
        cfg = apply_overrides(blob_config(), ["store.m=4", "seeds=[3]"])
        validated = validate_config(cfg)
        assert validated["store"]["m"] == 4
        assert validated["seeds"] == [3]

    def test_example_config_echo_is_pinned(self):
        """Field order and types of the echo: a schema edit that reorders or
        retypes a field changes the JSON text."""
        with open(Path(__file__).parent.parent / "run_config.example.json",
                  encoding="utf-8") as fh:
            validated = validate_config(json.load(fh))
        expected = {
            "stream": {"kind": "split", "steps": 5, "seed": 0, "examples_per_step": None,
                       "dataset": {"source": "blobs", "num_classes": 10, "per_class": 100,
                                   "dim": 16, "spread": 2.5, "box": 5.0,
                                   "eval_per_class": 40, "target_per_class": 20,
                                   "holdout_per_class": 0}},
            "model": {"kind": "forest", "max_depth": 10, "min_leaf": 1, "beta": 0.05},
            "objective": {"name": "epig", "eta": 1.0},
            "store": {"strategy": "D", "m": 100, "quota": 20, "tau": 1},
            "targets": {"source": "global", "M": 128, "path": None},
            "sampling": {"K": 32},
            "training": {"lr": 0.01, "max_steps": 200, "weight_decay": 0.0001,
                         "val_fraction": 0.1, "refit_every": 1},
            "seeds": [0, 1, 2, 3],
            "output": {"dir": "results"},
        }
        assert validated == expected
        assert json.dumps(validated) == json.dumps(expected)

    @pytest.mark.parametrize("fractions", [
        {"eval_fraction": 1.5}, {"eval_fraction": 0.5, "target_fraction": 0.5},
        {"target_fraction": 0.3, "holdout_fraction": 0.7},
    ])
    def test_fractions_must_leave_a_stream(self, fractions):
        cfg = blob_config()
        cfg["stream"]["dataset"] = {"source": "idx", "images": "i.idx", "labels": "l.idx",
                                    **fractions}
        with pytest.raises(ConfigError, match=r"stream\.dataset\.eval_fraction \+ "
                                              r"stream\.dataset\.target_fraction \+ "
                                              r"stream\.dataset\.holdout_fraction = "
                                              r"[\d.]+ must be below 1"):
            validate_config(cfg)

    def test_defaults_filled(self):
        validated = validate_config(blob_config())
        assert validated["store"]["quota"] == 4
        assert validated["objective"]["eta"] == 1.0
        assert validated["training"]["refit_every"] == 1

    def test_env_seed_default(self, monkeypatch):
        monkeypatch.setenv("STREAMSIFT_SEED", "42")
        cfg = blob_config()
        cfg.pop("seeds")
        assert validate_config(cfg)["seeds"] == [42]

    def test_experiment_config_echo_round_trip(self):
        config = ExperimentConfig.from_dict(blob_config())
        assert validate_config(config.echo()) == config.echo()
