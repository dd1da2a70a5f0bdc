"""The benchmark's own tests: its spec, its correctness gate and its tracer.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import measure
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY_CONFIG = {
    "stream": {
        "kind": "split", "steps": 2, "seed": 0,
        "dataset": {"source": "blobs", "num_classes": 4, "per_class": 20,
                    "dim": 2, "spread": 0.8, "eval_per_class": 10,
                    "target_per_class": 10},
    },
    "model": {"kind": "forest", "max_depth": 4},
    "objective": {"name": "epig"},
    "store": {"m": 8},
    "targets": {"M": 16},
    "sampling": {"K": 8},
    "seeds": [0],
}


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_names_units_and_caps(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def _fake_output(workload, ref):
    """An op output that reproduces the reference exactly."""
    if workload == "harness_epig":
        n = len(ref["chosen"])
        return {"status": "ok", "error": "", "chosen": ref["chosen"],
                "scores": [0.5] * n, "accuracies": ref["accuracies"],
                "ledger": {"selection": [1.0], "training": [1.0]}}
    if workload == "demo_heatmap":
        return {"panels": ref["panels"], "grids": ref["grids"].copy(),
                "files": 2 * len(ref["grids"])}
    return {"exit_code": 0, "header": "index,score,rank", "index": ref["index"],
            "score": ref["score"], "rank": ref["rank"], "output_bytes": 1}


def _perturb(workload, ref):
    ref = copy.deepcopy(ref)
    if workload == "harness_epig":
        ref["accuracies"][-1] += 1e-12
    elif workload == "demo_heatmap":
        ref["grids"][0, 0, 0] += 1e-6
    else:
        ref["score"][0] += 1e-6
    return ref


def _closed_loop(workload, seed, op, tmp_path, reference=None):
    def issue(index, kind):
        return measure.one_op(workload, {"seed": seed}, kind, tmp_path, op=op,
                              reference=reference)

    return measure.closed_loop(0.02, ("plain",), issue)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_reference_raises_fail_frac_to_one(workload, tmp_path):
    ref = workloads.load_reference(measure.REFERENCE_DIR, workload)

    def op(*_):
        return _fake_output(workload, ref)

    seed = checks.REFERENCE_SEED
    records = _closed_loop(workload, seed, op, tmp_path)
    assert not any(r["errors"] for r in records)
    records = _closed_loop(workload, seed, op, tmp_path, _perturb(workload, ref))
    assert len(records) >= 2 and all(r["errors"] for r in records)


def test_an_op_that_changes_between_repeats_fails(tmp_path):
    ref = workloads.load_reference(measure.REFERENCE_DIR, "score_d784")
    calls = []

    def op(*_):
        calls.append(1)
        out = _fake_output("score_d784", ref)
        if len(calls) > 1:
            out["output_bytes"] = 2
        return out

    errors = [r["errors"] for r in _closed_loop("score_d784", 1, op, tmp_path)]
    assert errors[0] == [] and len(errors) >= 2 and all(errors[1:])


def test_invariants_hold_at_any_seed():
    ref = workloads.load_reference(measure.REFERENCE_DIR, "score_d784")
    out = _fake_output("score_d784", ref)
    assert checks.check_op("score_d784", out) == []
    out["score"] = list(reversed(out["score"]))
    assert checks.check_op("score_d784", out)
    harness = _fake_output("harness_epig",
                           workloads.load_reference(measure.REFERENCE_DIR, "harness_epig"))
    harness["accuracies"] = [1.5]
    assert checks.check_op("harness_epig", harness)


def _traced_tiny_run(function_sites):
    from streamsift import harness

    tracer = tracing.Tracer()
    tracer.op = 0
    original = harness.score_pool
    tracer.install(function_sites=function_sites)
    try:
        result = harness.run_experiment(TINY_CONFIG)
    finally:
        tracer.uninstall()
    assert harness.score_pool is original
    assert result.per_seed[0].status == "ok"
    return tracer


def test_every_import_site_is_patched_and_exceptions_pass_through():
    tracer = _traced_tiny_run(tracing.FUNCTION_SITES)
    assert tracer.missing_sites("harness_epig") == []
    fit = tracer.layer_times(0)["models.fit"]
    # the cold-start FitError reached _try_fit through the wrapper
    assert fit["failed"] == 1 and fit["calls"] > fit["failed"]


def test_layer_metrics_are_the_per_layer_metrics_of_the_spec(spec):
    tracer = _traced_tiny_run(tracing.FUNCTION_SITES)
    ref = workloads.load_reference(measure.REFERENCE_DIR, "harness_epig")
    layers = measure.layer_metrics("harness_epig", tracer, 1.0,
                                   _fake_output("harness_epig", ref))
    assert set(layers) | {"trace.op_s", "trace.overhead_frac"} == {
        m["name"] for m in spec["per_layer"]}


def test_an_unpatched_import_site_fails_the_zero_call_check():
    sites = [s for s in tracing.FUNCTION_SITES
             if s[:2] != ("streamsift.harness", "score_pool")]
    tracer = _traced_tiny_run(sites)
    assert tracer.missing_sites("harness_epig") == ["streamsift.harness.score_pool"]


def test_span_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.op = 0

    def leaf():
        return sum(range(20000))

    inner = tracer.wrap("t.leaf", "leaf", leaf)
    outer = tracer.wrap("t.outer", "outer", lambda: inner() + inner())
    outer()
    times = tracer.layer_times(0)
    assert times["leaf"]["calls"] == 2
    assert times["outer"]["self_s"] == pytest.approx(
        times["outer"]["s"] - times["leaf"]["s"], abs=1e-12)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harness_epig", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not np.any([line.startswith("{") for line in proc.stdout.splitlines()])
