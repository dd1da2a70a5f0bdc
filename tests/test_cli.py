"""CLI exit codes, file outputs, and determinism."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamsift import cli, harness
from streamsift.cli import main
from streamsift.models import BootstrapForest


def write_config(tmp_path, filename="config.json", **over):
    cfg = {
        "stream": {
            "kind": "split", "steps": 2, "seed": 0,
            "dataset": {
                "source": "blobs", "num_classes": 4, "per_class": 15,
                "dim": 2, "spread": 0.8, "eval_per_class": 8,
                "target_per_class": 8,
            },
        },
        "model": {"kind": "forest", "max_depth": 4},
        "objective": {"name": "epig"},
        "store": {"m": 6},
        "targets": {"M": 12},
        "sampling": {"K": 8},
        "seeds": [0],
        "output": {"dir": str(tmp_path / "out")},
    }
    for key, value in over.items():
        cfg[key] = value
    path = tmp_path / filename
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_minimal_run_writes_three_files(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "results.json").exists()
        assert (out / "results.csv").exists()
        assert (out / "learning_curve.svg").exists()

    def test_unknown_objective_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, objective={"name": "foo"})
        assert main(["run", "--config", str(path)]) == 2
        assert "objective.name" in capsys.readouterr().err

    def test_unsupported_strategy_exit_2_writes_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, store={"strategy": "A", "m": 6})
        assert main(["run", "--config", str(path)]) == 2
        assert "store.strategy" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_found_in_seed_data_exit_2_writes_nothing(self, tmp_path, capsys):
        # a split stream over 2 steps needs 4 classes; only its data show that
        path = write_config(tmp_path, stream={
            "kind": "split", "steps": 2, "seed": 0,
            "dataset": {"source": "blobs", "num_classes": 2, "per_class": 15,
                        "dim": 2, "eval_per_class": 8, "target_per_class": 8},
        })
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "needs exactly 2*T=4 classes, found 2" in err
        assert "seed 0 failed" not in err
        assert not (tmp_path / "out").exists()

    def test_fractions_leaving_no_stream_rows_exit_2_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("".join(f"{i}.0,{i % 2}\n" for i in range(10)))
        path = write_config(tmp_path, objective={"name": "random"}, stream={
            "kind": "stationary", "steps": 2, "seed": 0, "dataset": {
                "source": "csv", "path": str(data), "label_column": -1, "eval_fraction": 0.6,
                "target_fraction": 0.3, "holdout_fraction": 0.1}})
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("error: stream.dataset.eval_fraction, stream.dataset.target_fraction and "
                "stream.dataset.holdout_fraction take 6, 3 and 1 of the 10 rows, leaving "
                "none for the stream\n") in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_override_seeds(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", "--config", str(path), "--override", "seeds=[1,2]"]) == 0
        doc = json.loads((tmp_path / "out" / "results.json").read_text())
        assert doc["config"]["seeds"] == [1, 2]
        assert len(doc["per_seed"]) == 2

    def test_all_seeds_failing_exit_3(self, tmp_path):
        path = write_config(
            tmp_path,
            model={"kind": "dropout_mlp", "hidden": [8]},
            training={"lr": 1e12, "max_steps": 30, "weight_decay": 1.0},
        )
        assert main(["run", "--config", str(path)]) == 3

    def test_fault_outside_the_library_fails_seeds_exit_3(self, tmp_path,
                                                         monkeypatch, capsys):
        class FaultyForest(BootstrapForest):
            def fit(self, examples):
                raise IndexError("index 0 is out of bounds")

        monkeypatch.setattr(harness, "BootstrapForest", FaultyForest)
        path = write_config(tmp_path, seeds=[0, 1])
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        for seed in (0, 1):
            assert f"seed {seed} failed: IndexError: index 0 is out of bounds" in err
        assert (tmp_path / "out" / "results.json").exists()

    @pytest.mark.parametrize("model,message", [
        ({"kind": "forest", "min_leaf": 0}, "model (forest): min_leaf must be >= 1"),
        ({"kind": "forest", "min_leaf": "x"}, "model.min_leaf must be an integer"),
        ({"kind": "forest", "max_depth": -3}, "model (forest): max_depth must be >= 0, got -3"),
        ({"kind": "forest", "beta": float("nan")}, "model.beta must be a finite number, got nan"),
        ({"kind": "dropout_mlp", "hidden": [8, "x"]}, "model.hidden[1] must be an integer"),
        ({"kind": "dirichlet", "lower": ["x", 0], "upper": [1, 1]},
         "model (dirichlet): lower must be an array of numbers"),
        ({"kind": "finite_hypothesis", "grid": [[0.0, 0.0]], "tables": [[[1.0, "y"]]]},
         "model (finite_hypothesis): tables must be an array of numbers"),
        ({"kind": "dirichlet", "lower": [float("nan"), -10], "upper": [10, 10]},
         "model (dirichlet): lower must be an array of finite numbers"),
        ({"kind": "dropout_mlp", "hidden": [0]},
         "model (dropout_mlp): hidden layer widths must be >= 1, got [0]"),
        ({"kind": "dropout_mlp", "hidden": [8, -1]},
         "model (dropout_mlp): hidden layer widths must be >= 1, got [8, -1]"),
        ({"kind": "dirichlet", "bins_per_dim": 2**32},  # over the data's 2-wide box
         "model (dirichlet): 4294967296**2 bins are more than a bin index can hold"),
    ])
    def test_bad_model_field_exit_2_writes_nothing(self, tmp_path, capsys, caplog,
                                                   model, message):
        path = write_config(tmp_path, model=model)
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not caplog.records
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("dim", "x", "stream.dataset.dim must be an integer"),
        ("dim", 2.0, "stream.dataset.dim must be an integer"),
        ("spread", "a", "stream.dataset.spread must be a number"),
        ("box", [1, 2], "stream.dataset.box must be a number"),
        ("label_column", "x", "stream.dataset.label_column must be an integer"),
        ("header", "yes", "stream.dataset.header must be true or false"),
        ("path", 5, "stream.dataset.path must be a string, got 5"),
        ("images", 5, "stream.dataset.images must be a string, got 5"),
        ("labels", ["l.idx"], "stream.dataset.labels must be a string, got ['l.idx']"),
        ("dim", -1, "stream.dataset.dim must be >= 1, got -1"),
        ("dim", 0, "stream.dataset.dim must be >= 1, got 0"),
        ("spread", -0.5, "stream.dataset.spread must be >= 0.0, got -0.5"),
        ("box", -1.0, "stream.dataset.box must be >= 0.0, got -1.0"),
        ("eval_per_class", -3, "stream.dataset.eval_per_class must be >= 1, got -3"),
        ("eval_per_class", 0, "stream.dataset.eval_per_class must be >= 1, got 0"),
        ("target_per_class", -1, "stream.dataset.target_per_class must be >= 0, got -1"),
        ("holdout_per_class", -1, "stream.dataset.holdout_per_class must be >= 0, got -1"),
        ("holdout_per_class", 1.0, "stream.dataset.holdout_per_class must be an integer"),
        ("eval_fraction", -0.1, "stream.dataset.eval_fraction must be >= 0.0, got -0.1"),
        ("target_fraction", "x", "stream.dataset.target_fraction must be a number"),
        ("holdout_fraction", -0.5, "stream.dataset.holdout_fraction must be >= 0.0, got -0.5"),
        ("eval_fraction", 1.5, "stream.dataset.eval_fraction + stream.dataset.target_fraction"
                               " + stream.dataset.holdout_fraction = 1.6 must be below 1"),
    ])
    def test_bad_dataset_field_exit_2_writes_nothing(self, tmp_path, capsys, caplog,
                                                     field, value, message):
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{i % 7}.5,{i % 3}.25,{i % 4}\n" for i in range(80)))
        if field in ("images", "labels"):
            dataset = {"source": "idx", "images": str(tmp_path / "i.idx"),
                       "labels": str(tmp_path / "l.idx")}
        elif field in ("path", "label_column", "header") or field.endswith("_fraction"):
            dataset = {"source": "csv", "path": str(data), "label_column": -1}
        else:
            dataset = {"source": "blobs", "num_classes": 4, "per_class": 15}
        dataset[field] = value
        path = write_config(tmp_path, stream={"kind": "split", "steps": 2, "seed": 0,
                                              "dataset": dataset})
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not caplog.records
        assert not (tmp_path / "out").exists()

    def test_bad_data_file_exit_2_writes_nothing(self, tmp_path, capsys, caplog):
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{i % 7}.5,{i % 3}.25,{i % 4}\n" for i in range(80))
                        + "nan,0.5,1\n")
        path = write_config(tmp_path, stream={"kind": "split", "steps": 2, "seed": 0,
                                              "dataset": {"source": "csv", "path": str(data),
                                                          "label_column": -1}})
        assert main(["run", "--config", str(path)]) == 2
        assert "feature 'nan' is not a finite number (row 80, column 0)" in (
            capsys.readouterr().err)
        assert not caplog.records
        assert not (tmp_path / "out").exists()

    def test_negative_label_exit_2_writes_nothing(self, tmp_path, capsys, caplog):
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{i % 7}.5,{i % 3}.25,{i % 4}\n" for i in range(80))
                        + "3.0,0.5,-1\n")
        path = write_config(tmp_path, stream={"kind": "split", "steps": 2, "seed": 0,
                                              "dataset": {"source": "csv", "path": str(data),
                                                          "label_column": -1}})
        assert main(["run", "--config", str(path)]) == 2
        assert "label -1 is negative (row 80, column 2)" in capsys.readouterr().err
        assert not caplog.records
        assert not (tmp_path / "out").exists()

    def test_unreadable_data_file_exit_2_writes_nothing(self, tmp_path, capsys, caplog):
        path = write_config(tmp_path, stream={"kind": "split", "steps": 2, "seed": 0,
                                              "dataset": {"source": "csv",
                                                          "path": str(tmp_path / "no.csv"),
                                                          "label_column": -1}})
        assert main(["run", "--config", str(path)]) == 2
        assert "cannot read stream.dataset" in capsys.readouterr().err
        assert not caplog.records
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["stationary", "permuted"])
    def test_option_that_does_nothing_exit_2_writes_nothing(self, tmp_path, capsys, kind):
        path = write_config(tmp_path, stream={
            "kind": kind, "steps": 2, "seed": 0, "examples_per_step": 3,
            "dataset": {"source": "blobs", "num_classes": 4, "per_class": 15},
        })
        assert main(["run", "--config", str(path)]) == 2
        assert ("stream.examples_per_step applies only to stream.kind 'split', "
                f"not '{kind}'") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_byte_identical_excluding_timing(self, tmp_path):
        path_a = write_config(tmp_path, "ca.json", output={"dir": str(tmp_path / "a")})
        path_b = write_config(tmp_path, "cb.json", output={"dir": str(tmp_path / "b")})
        assert main(["run", "--config", str(path_a)]) == 0
        assert main(["run", "--config", str(path_b)]) == 0
        csv_a = (tmp_path / "a" / "results.csv").read_bytes()
        csv_b = (tmp_path / "b" / "results.csv").read_bytes()
        assert csv_a == csv_b
        da = json.loads((tmp_path / "a" / "results.json").read_text())
        db = json.loads((tmp_path / "b" / "results.json").read_text())
        da.pop("timing"), db.pop("timing")
        da["config"]["output"] = db["config"]["output"] = None
        assert da == db


class TestDemoCommand:
    def test_default_flags_ten_files(self, tmp_path):
        out = tmp_path / "demo"
        code = main([
            "demo", "--resolution", "6", "--targets", "16",
            "--hypotheses", "32", "--seed", "1", "--output-dir", str(out),
        ])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 10
        assert sum(f.endswith(".csv") for f in files) == 5
        assert sum(f.endswith(".svg") for f in files) == 5

    def test_resolution_one(self, tmp_path):
        out = tmp_path / "demo1"
        code = main([
            "demo", "--resolution", "1", "--targets", "8",
            "--hypotheses", "16", "--seed", "0", "--output-dir", str(out),
        ])
        assert code == 0
        body = (out / "epig_none.csv").read_text().splitlines()
        assert len(body) == 2  # header + single row
        assert len(body[1].split(",")) == 1

    def test_fixed_seed_byte_identical(self, tmp_path):
        args = ["demo", "--resolution", "5", "--targets", "12",
                "--hypotheses", "16", "--seed", "9"]
        assert main(args + ["--output-dir", str(tmp_path / "x")]) == 0
        assert main(args + ["--output-dir", str(tmp_path / "y")]) == 0
        for name in ("epig_none.csv", "la_epig_true.csv", "mic_flip.csv"):
            assert (tmp_path / "x" / name).read_bytes() == (
                tmp_path / "y" / name
            ).read_bytes()

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STREAMSIFT_SEED", "4")
        out_env = tmp_path / "env"
        assert main(["demo", "--resolution", "4", "--targets", "8",
                     "--hypotheses", "16", "--output-dir", str(out_env)]) == 0
        out_explicit = tmp_path / "explicit"
        assert main(["demo", "--resolution", "4", "--targets", "8",
                     "--hypotheses", "16", "--seed", "4",
                     "--output-dir", str(out_explicit)]) == 0
        assert (out_env / "epig_none.csv").read_bytes() == (
            out_explicit / "epig_none.csv"
        ).read_bytes()


def finite_fixture_files(tmp_path):
    store = tmp_path / "store.csv"
    store.write_text("0.0,1\n1.0,0\n")
    cands = tmp_path / "cands.csv"
    cands.write_text("0.0,0\n1.0,1\n2.0,0\n")
    targets = tmp_path / "targets.csv"
    targets.write_text("0.0\n1.0\n2.0\n")
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({
        "kind": "finite_hypothesis",
        "grid": [[0.0], [1.0], [2.0]],
        "tables": [
            [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]],
            [[0.1, 0.9], [0.3, 0.7], [0.6, 0.4]],
        ],
    }))
    return store, cands, targets, spec


class TestScoreCommand:
    def test_single_candidate_rank_one(self, tmp_path, capsys):
        store, cands, targets, spec = finite_fixture_files(tmp_path)
        single = tmp_path / "one.csv"
        single.write_text("1.0,1\n")
        code = main([
            "score", "--model", f"@{spec}", "--store", str(store),
            "--candidates", str(single), "--targets", str(targets),
            "--objective", "epig",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,score,rank"
        assert lines[1].startswith("0,") and lines[1].endswith(",1")

    def test_random_reproducible(self, tmp_path, capsys):
        store, cands, targets, spec = finite_fixture_files(tmp_path)
        args = ["score", "--model", f"@{spec}", "--store", str(store),
                "--candidates", str(cands), "--objective", "random",
                "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_ranking_matches_library_scores(self, tmp_path, capsys):
        from streamsift import (
            FiniteHypothesisModel, LabelledExample, TargetSet, score_pool,
        )

        store, cands, targets, spec = finite_fixture_files(tmp_path)
        assert main([
            "score", "--model", f"@{spec}", "--store", str(store),
            "--candidates", str(cands), "--targets", str(targets),
            "--objective", "la_epig",
        ]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()[1:]
        doc = json.loads(spec.read_text())
        model = FiniteHypothesisModel(doc["grid"], doc["tables"])
        model.fit([LabelledExample([0.0], 1), LabelledExample([1.0], 0)])
        pool = [LabelledExample([0.0], 0), LabelledExample([1.0], 1),
                LabelledExample([2.0], 0)]
        expected = score_pool("la_epig", model, pool,
                              TargetSet([[0.0], [1.0], [2.0]]))
        got = [(int(line.split(",")[0]), float(line.split(",")[1]))
               for line in out_lines]
        for (gi, gv), want in zip(got, expected):
            assert gi == want.candidate_index
            assert gv == pytest.approx(want.value, abs=1e-12)

    def test_missing_targets_exit_2(self, tmp_path):
        store, cands, _, spec = finite_fixture_files(tmp_path)
        assert main([
            "score", "--model", f"@{spec}", "--store", str(store),
            "--candidates", str(cands), "--objective", "epig",
        ]) == 2

    def test_bad_model_spec_exit_2(self, tmp_path):
        store, cands, targets, _ = finite_fixture_files(tmp_path)
        assert main([
            "score", "--model", "{not json", "--store", str(store),
            "--candidates", str(cands), "--objective", "mic",
        ]) == 2

    def test_negative_store_label_exit_2(self, tmp_path, capsys):
        _, cands, _, _ = finite_fixture_files(tmp_path)
        store = tmp_path / "neg.csv"
        store.write_text("0.0,1\n3.0,-1\n")
        assert main([
            "score", "--model", '{"kind": "forest"}', "--store", str(store),
            "--candidates", str(cands), "--objective", "mic",
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "label -1 is negative (row 1, column 1)" in err

    def test_bad_model_value_exit_2(self, tmp_path, capsys):
        store, cands, targets, _ = finite_fixture_files(tmp_path)
        assert main([
            "score", "--model", '{"kind": "forest", "beta": 0}', "--store", str(store),
            "--candidates", str(cands), "--objective", "mic",
        ]) == 2
        assert "model (forest): leaf smoothing beta must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("model,count", [
        ({"kind": "forest"}, "0"),
        ({"kind": "forest"}, "-3"),
        ({"kind": "dirichlet"}, "0"),
        ({"kind": "dropout_mlp"}, "-3"),
    ])
    def test_sample_count_below_one_exit_2(self, tmp_path, capsys, monkeypatch, model, count):
        """sampling.K's rule, applied by argparse before any CSV is read."""
        store, cands, targets, _ = finite_fixture_files(tmp_path)
        monkeypatch.setattr(cli, "load_csv", lambda *a, **k: pytest.fail("a CSV was read"))
        with pytest.raises(SystemExit) as exc:
            main([
                "score", "--model", json.dumps(model), "--store", str(store),
                "--candidates", str(cands), "--targets", str(targets),
                "--objective", "epig", "--sample-count", count,
            ])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --sample-count: value must be >= 1, got {count}" in err

    def test_bad_dirichlet_bounds_exit_2(self, tmp_path, capsys):
        store, cands, targets, _ = finite_fixture_files(tmp_path)
        assert main([
            "score", "--model", '{"kind": "dirichlet", "lower": ["x"], "upper": [1]}',
            "--store", str(store), "--candidates", str(cands), "--objective", "mic",
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "model (dirichlet): lower must be an array of numbers" in err

    @pytest.mark.parametrize("model,message", [
        ('{"kind": "dirichlet", "lower": [NaN], "upper": [10]}',
         "model (dirichlet): lower must be an array of finite numbers"),
        ('{"kind": "finite_hypothesis", "grid": [[0.0], [1.0], [2.0]], '
         '"tables": [[[0.9, 0.1], [0.8, 0.2], [NaN, 0.7]]]}',
         "model (finite_hypothesis): tables must be an array of finite numbers"),
        ('{"kind": "finite_hypothesis", "grid": [[0.0], [1.0], [2.0]], '
         '"tables": [[[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]], '
         '[[0.1, 0.9], [0.3, 0.7], [0.6, 0.4]]], "prior": [NaN, 0.5]}',
         "model (finite_hypothesis): prior must be an array of finite numbers"),
        ('{"kind": []}', "unknown model.kind []"),
        ('{"kind": "forest", "max_depth": -3}', "model (forest): max_depth must be >= 0, got -3"),
        ('{"kind": "forest", "beta": Infinity}', "model.beta must be a finite number, got inf"),
        ('{"kind": "dropout_mlp", "hidden": [0]}',
         "model (dropout_mlp): hidden layer widths must be >= 1, got [0]"),
        (json.dumps({"kind": "dirichlet", "bins_per_dim": 20, "lower": [0] * 16,
                     "upper": [1] * 16}),
         "model (dirichlet): 20**16 bins are more than a bin index can hold"),
    ])
    def test_bad_model_values_exit_2(self, tmp_path, capsys, model, message):
        store, cands, targets, _ = finite_fixture_files(tmp_path)
        assert main([
            "score", "--model", model, "--store", str(store), "--candidates", str(cands),
            "--targets", str(targets), "--objective", "epig",
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("kind", ["forest", "dirichlet"])
    @pytest.mark.parametrize("part,cell", [("store", "nan"), ("candidates", "inf"),
                                           ("targets", "-inf")])
    def test_non_finite_feature_exit_2(self, tmp_path, capsys, kind, part, cell):
        files = dict(zip(("store", "candidates", "targets"), finite_fixture_files(tmp_path)))
        lines = files[part].read_text().splitlines()
        lines[1] = ",".join([cell] + lines[1].split(",")[1:])
        files[part].write_text("\n".join(lines) + "\n")
        assert main([
            "score", "--model", json.dumps({"kind": kind}), "--store", str(files["store"]),
            "--candidates", str(files["candidates"]), "--targets", str(files["targets"]),
            "--objective", "epig",
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"feature '{cell}' is not a finite number (row 1, column 0)" in err

    def test_model_spec_not_an_object_exit_2(self, tmp_path, capsys):
        store, cands, _, _ = finite_fixture_files(tmp_path)
        assert main([
            "score", "--model", "5", "--store", str(store),
            "--candidates", str(cands), "--objective", "mic",
        ]) == 2
        assert "model must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("model,part,width", [
        ({"kind": "forest"}, "targets", 1),
        ({"kind": "forest"}, "targets", 4),
        ({"kind": "dropout_mlp"}, "candidates", 3),
    ])
    def test_feature_width_mismatch_exit_2(self, tmp_path, capsys, model, part, width):
        rng = np.random.default_rng(0)
        files = {}
        for name, rows, cols, labelled in (("store", 6, 2, True), ("candidates", 4, 2, True),
                                           ("targets", 3, 2, False)):
            cols = width if name == part else cols
            path = tmp_path / f"{name}.csv"
            path.write_text("".join(
                ",".join(map(repr, row)) + (f",{i % 2}" if labelled else "") + "\n"
                for i, row in enumerate(rng.normal(size=(rows, cols)).tolist())
            ))
            files[name] = str(path)
        code = main([
            "score", "--model", json.dumps(model), "--store", files["store"],
            "--candidates", files["candidates"], "--targets", files["targets"],
            "--objective", "epig",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{files[part]} has {width} features per row" in err
        assert f"{files['store']} has 2" in err

    @pytest.mark.parametrize("part", ["store", "candidates", "targets"])
    def test_missing_input_file_exit_2(self, tmp_path, capsys, part):
        files = dict(zip(("store", "candidates", "targets"), finite_fixture_files(tmp_path)))
        files[part] = tmp_path / "missing.csv"
        assert main([
            "score", "--model", '{"kind": "forest"}', "--store", str(files["store"]),
            "--candidates", str(files["candidates"]), "--targets", str(files["targets"]),
            "--objective", "epig",
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"cannot read --{part}: [Errno 2] No such file or directory: " in err
        assert str(files[part]) in err

    def test_reader_closing_stdout_early_exits_0(self, tmp_path):
        """``streamsift score ... | head -n 1``: the ranking outgrows the pipe's
        buffer, the reader closes after one line, and the command still exits 0
        without a traceback."""
        store, _, _, spec = finite_fixture_files(tmp_path)
        cands = tmp_path / "many.csv"
        cands.write_text("".join(f"{i % 3}.0,{i % 2}\n" for i in range(6000)))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "streamsift.cli", "score", "--model", f"@{spec}",
             "--store", str(store), "--candidates", str(cands), "--objective", "random"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"index,score,rank\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0, err
        assert "Traceback" not in err

    def test_model_spec_path_is_a_directory_exit_2(self, tmp_path, capsys):
        store, cands, _, _ = finite_fixture_files(tmp_path)
        assert main([
            "score", "--model", f"@{tmp_path}", "--store", str(store),
            "--candidates", str(cands), "--objective", "mic",
        ]) == 2
        err = capsys.readouterr().err
        assert "cannot read model spec: [Errno 21] Is a directory: " in err
        assert str(tmp_path) in err


def parity_files(tmp_path, case):
    """One CSV data set as a run config and as score's store, candidates and
    targets files, for the ``case`` the run/score parity test names."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(40, 2))
    y = np.zeros(40, int) if case == "one_class" else (X[:, 0] > 0.5).astype(int)
    rows = [f"{a!r},{b!r},{c}\n" for (a, b), c in zip(X.tolist(), y.tolist())]
    for name, part in (("data", rows), ("store", rows[:10]), ("cands", rows[10:20])):
        (tmp_path / f"{name}.csv").write_text("".join(part))
    targets = tmp_path / "targets.csv"
    targets.write_text({"one_class": "0.5,0.5\n0.2,0.8\n",
                        "wide_targets": "0.5,0.5,0.5\n0.2,0.8,0.1\n",
                        "outside": "5.0,5.0\n-3.0,0.5\n"}[case])
    model = {"kind": "dirichlet"} if case == "outside" else {"kind": "forest", "max_depth": 3}
    config = write_config(
        tmp_path, model=model, store={"m": 4}, sampling={"K": 4},
        targets={"source": "fixed", "path": str(targets)},
        stream={"kind": "stationary", "steps": 2, "seed": 0, "dataset": {
            "source": "csv", "path": str(tmp_path / "data.csv"), "label_column": -1}},
    )
    run = ["run", "--config", str(config)]
    score = ["score", "--model", json.dumps(model), "--store", str(tmp_path / "store.csv"),
             "--candidates", str(tmp_path / "cands.csv"), "--targets", str(targets),
             "--objective", "epig", "--sample-count", "4"]
    return run, score, targets


class TestRunAndScoreAgree:
    @pytest.mark.parametrize("case,code", [
        ("one_class", 0), ("wide_targets", 2), ("outside", 0),
    ])
    def test_same_outcome(self, tmp_path, capsys, case, code):
        run, score, targets = parity_files(tmp_path, case)
        assert main(run) == code
        run_err = capsys.readouterr().err
        assert main(score) == code
        out, score_err = capsys.readouterr()
        if code == 0:
            assert out.startswith("index,score,rank\n")
            assert (tmp_path / "out" / "results.csv").exists()
        else:
            assert out == ""
            assert "error: targets.path has 3 features per row, but stream has 2" in run_err
            assert f"error: {targets} has 3 features per row, but " in score_err
            assert not (tmp_path / "out").exists()


def bad_input(tmp_path, case):
    """``(argv, environment, message)`` for one outside input that must exit 2;
    the message names the flag, field, file or variable at fault. Every case
    writes to ``tmp_path / "out"`` if it writes at all."""
    store, cands, _, _ = finite_fixture_files(tmp_path)
    config = write_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    run = ["run", "--config", str(config)]
    demo = ["demo", "--resolution", "4", "--targets", "8", "--hypotheses", "16",
            "--output-dir", str(tmp_path / "out")]
    score = ["score", "--model", '{"kind": "forest"}', "--store", str(store),
             "--candidates", str(cands), "--objective", "mic"]
    if case == "config_is_a_directory":
        return ["run", "--config", str(tmp_path)], {}, "cannot read --config: [Errno 21]"
    if case == "config_not_utf8":
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}\n")
        return (["run", "--config", str(tmp_path / "bad.json")], {},
                "cannot read --config: 'utf-8' codec can't decode")
    if case == "store_not_utf8":
        store.write_bytes(b"\xff\xfe,1\n")
        return score, {}, "cannot read --store: 'utf-8' codec can't decode"
    if case.startswith("demo_"):  # demo_<flag>_<value>
        _, name, value = case.split("_")
        minimum = 0 if name == "seed" else 1
        return (demo + [f"--{name}", value], {},
                f"argument --{name}: value must be >= {minimum}, got {value}")
    if case == "score_seed_-1":
        return score + ["--seed", "-1"], {}, "argument --seed: value must be >= 0, got -1"
    if case == "score_sample-count_0":  # the same rule as sampling.K
        return (score + ["--sample-count", "0"], {},
                "argument --sample-count: value must be >= 1, got 0")
    if case == "env_seed_-3":
        return demo, {"STREAMSIFT_SEED": "-3"}, "STREAMSIFT_SEED must be >= 0, got -3"
    if case == "score_eta_nan":
        return (score + ["--eta", "nan"], {},
                "argument --eta: value must be a finite number, got nan")
    if case == "override_eta_nan":
        return (run + ["--override", "objective.name=mic", "--override", "objective.eta=NaN"],
                {}, "objective.eta must be a finite number, got nan")
    if case == "override_spread_infinity":
        return (run + ["--override", "stream.dataset.spread=Infinity"], {},
                "stream.dataset.spread must be a finite number, got inf")
    if case == "idx_header_overflow":
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, *[0xFFFFFFFF] * 3))
        labels.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        config = write_config(tmp_path, "idx.json", stream={
            "kind": "stationary", "steps": 2, "seed": 0,
            "dataset": {"source": "idx", "images": str(images), "labels": str(labels)}})
        return ["run", "--config", str(config)], {}, f"truncated pixel data in {images}"
    if case == "score_rho_loss":
        return (score[:-1] + ["rho_loss"], {},
                "argument --objective: invalid choice: 'rho_loss'")
    if case == "override_on_a_list":
        (tmp_path / "list.json").write_text("[]\n")
        return (["run", "--config", str(tmp_path / "list.json"), "--override", "seeds=[0]"],
                {}, "error: config must be an object")
    if case == "file_as_demo_output_dir":
        return (demo + ["--output-dir", str(afile)], {},
                f"argument --output-dir: value '{afile}' exists and is not a directory")
    if case == "file_as_run_output_dir":
        return (run + ["--override", f"output.dir={afile}"], {},
                f"output.dir '{afile}' exists and is not a directory")
    if case == "under_file_as_demo_output_dir":
        return (demo + ["--output-dir", str(afile / "sub")], {},
                f"argument --output-dir: value '{afile / 'sub'}' is under '{afile}', "
                "which exists and is not a directory")
    if case == "under_file_as_run_output_dir":
        return (run + ["--override", f"output.dir={afile / 'sub'}"], {},
                f"output.dir '{afile / 'sub'}' is under '{afile}', "
                "which exists and is not a directory")
    raise AssertionError(case)


BAD_INPUTS = [
    "config_is_a_directory", "config_not_utf8", "store_not_utf8",
    "demo_resolution_0", "demo_resolution_-2", "demo_hypotheses_0", "demo_targets_0",
    "demo_seed_-1", "score_seed_-1", "score_sample-count_0", "env_seed_-3", "score_eta_nan",
    "override_eta_nan", "override_spread_infinity", "idx_header_overflow", "score_rho_loss",
    "override_on_a_list", "file_as_demo_output_dir", "file_as_run_output_dir",
    "under_file_as_demo_output_dir", "under_file_as_run_output_dir",
]


class TestOutsideInputs:
    """Every outside input the program cannot use exits 2 before any work,
    with a message naming what to fix and no traceback."""

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_exit_2_names_the_input(self, tmp_path, capsys, monkeypatch, case):
        argv, env, message = bad_input(tmp_path, case)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(harness, "_run_seed", lambda *a: pytest.fail("a seed ran"))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_score_lists_the_objectives_it_runs(self, tmp_path, capsys):
        store, cands, _, _ = finite_fixture_files(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["score", "--model", '{"kind": "forest"}', "--store", str(store),
                  "--candidates", str(cands), "--objective", "rho_loss"])
        assert exc.value.code == 2
        choices = capsys.readouterr().err.partition("choose from")[2]
        for name in ("random", "mic", "epig", "la_epig"):
            assert name in choices
        assert "rho_loss" not in choices
