"""Experiment driver: protocol invariants, determinism, serialization."""

import json

import numpy as np
import pytest

from streamsift import (
    ConfigError,
    TrainingDivergedError,
    harness,
    run_experiment,
    write_results,
)
from streamsift.config import apply_overrides, validate_config
from streamsift.harness import (
    ExperimentConfig,
    _try_fit,
    build_target_set,
    evaluate_accuracy,
    infer_box,
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
            def fit(self, examples):
                if self.seed == bad_seed:
                    raise error("fault in seed 1")
                return super().fit(examples)

        monkeypatch.setattr(harness, "BootstrapForest", FaultyForest)
        result = run_experiment(blob_config(seeds=[0, 1, 2]))
        assert result.summary["seeds_ok"] == [0, 2]
        assert result.summary["seeds_failed"] == [1]
        assert result.per_seed[1].error == f"{error.__name__}: fault in seed 1"

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

        def only_in_holdout(seed):
            data = harness.prepare_data(config, seed)
            seen = {ex.label for batch in data["schedule"] for ex in batch}
            seen |= {ex.label for ex in data["eval_set"]}
            return 3 not in seen and 3 in {ex.label for ex in data["holdout"]}

        assert any(only_in_holdout(seed) for seed in config.seeds)  # the case occurs
        result = run_experiment(config)
        assert result.summary["seeds_failed"] == []

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


class TestInferBox:
    def test_covers_every_point_set(self):
        spec = {"kind": "dirichlet", "bins_per_dim": 4, "alpha0": 1.0,
                "lower": None, "upper": None}
        box = infer_box(spec, [np.array([0.0, 2.0]), np.array([[1.0, -1.0], [3.0, 0.5]]),
                               np.zeros((0, 0))])
        assert box["lower"] == [-1e-6, -1.0 - 1e-6]
        assert box["upper"] == [3.0 + 1e-6, 2.0 + 1e-6]

    def test_explicit_bounds_and_other_models_unchanged(self):
        spec = {"kind": "dirichlet", "lower": [0.0], "upper": [1.0]}
        assert infer_box(spec, [np.array([5.0])]) is spec
        forest = {"kind": "forest"}
        assert infer_box(forest, [np.array([5.0])]) is forest


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
        ts = build_target_set({"source": "fixed", "path": str(path), "M": 2},
                              self.context(), seed=0)
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
