"""The three benchmark workloads: input generation and one op each.

Every op goes through streamsift's public API. Inputs come only from the
benchmark seed, so the same seed gives the same inputs, and each op returns
a plain-data output that ``checks.py`` compares against references and
invariants.

The ``streamsift`` package is imported lazily, inside the functions, so that
the worker process can time its own import as set-up.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("harness_epig", "demo_heatmap", "score_d784")

# Criterion-07 experiment (tests/test_acceptance.py) for a single run seed.
HARNESS_CONFIG = {
    "stream": {
        "kind": "split", "steps": 5, "seed": 0,
        "dataset": {
            "source": "blobs", "num_classes": 10, "per_class": 100,
            "dim": 16, "spread": 2.5, "eval_per_class": 40,
            "target_per_class": 20,
        },
    },
    "model": {"kind": "forest", "max_depth": 10, "min_leaf": 1, "beta": 0.05},
    "objective": {"name": "epig"},
    "store": {"m": 100},
    "targets": {"M": 128},
    "sampling": {"K": 32},
}

DEMO_ARGS = {"resolution": 64, "num_targets": 256, "num_hypotheses": 256}
DEMO_PANELS = 5

# MNIST-shaped synthetic inputs for `streamsift score`.
SCORE_SHAPE = {"dim": 784, "classes": 10, "store": 300, "candidates": 1000,
               "targets": 128}
SCORE_MODEL = '{"kind": "forest", "max_depth": 10}'
SCORE_SAMPLE_COUNT = 20

#: work units one op completes: selections, scored cell x panel, ranked
#: candidates
WORK_PER_OP = {
    "harness_epig": HARNESS_CONFIG["store"]["m"],
    "demo_heatmap": DEMO_ARGS["resolution"] ** 2 * DEMO_PANELS,
    "score_d784": SCORE_SHAPE["candidates"],
}


def harness_config(seed):
    return {**HARNESS_CONFIG, "seeds": [int(seed)]}


# --- input generation (benchmark side, not timed) ---------------------------


def _mnist_like(rng, prototypes, labels):
    """28x28 images: a class prototype shifted by up to 2 px plus pixel noise,
    quantised to k/255 with a zero background, as in MNIST."""
    images = prototypes[labels].reshape(-1, 28, 28)
    shifts = rng.integers(-2, 3, size=(len(labels), 2))
    out = np.empty_like(images)
    for i, (dy, dx) in enumerate(shifts):
        out[i] = np.roll(images[i], (dy, dx), axis=(0, 1))
    out = out.reshape(len(labels), -1) + rng.normal(0.0, 0.3, size=(len(labels), 784))
    out = np.round(np.clip(out, 0.0, 1.0) * 255.0) / 255.0
    out[out < 0.15] = 0.0
    return out


def _prototypes(rng, classes):
    """One smooth blob-stroke image per class, values in [0, 1]."""
    yy, xx = np.mgrid[0:28, 0:28]
    protos = np.zeros((classes, 784))
    for c in range(classes):
        img = np.zeros((28, 28))
        for cy, cx in rng.uniform(6, 22, size=(6, 2)):
            img += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 2.0 ** 2))
        protos[c] = (img / img.max()).ravel()
    return protos


def _write_labelled(path, X, y):
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(X.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def make_inputs(workload, seed, workdir):
    """Generate the workload's inputs from ``seed`` under ``workdir``."""
    workdir = Path(workdir)
    if workload != "score_d784":
        return {"seed": int(seed)}
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 784]))
    protos = _prototypes(rng, SCORE_SHAPE["classes"])
    paths = {}
    for part in ("store", "candidates"):
        n = SCORE_SHAPE[part]
        # every class present in the store so the forest sees all C labels
        y = np.arange(n) % SCORE_SHAPE["classes"]
        y = rng.permutation(y)
        paths[part] = str(workdir / f"{part}.csv")
        _write_labelled(paths[part], _mnist_like(rng, protos, y), y)
    t_labels = rng.integers(0, SCORE_SHAPE["classes"], size=SCORE_SHAPE["targets"])
    T = _mnist_like(rng, protos, t_labels)
    paths["targets"] = str(workdir / "targets.csv")
    with open(paths["targets"], "w", encoding="utf-8") as fh:
        for row in T.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
    return {"seed": int(seed), **paths}


# --- program set-up and ops ----------------------------------------------


def setup(workload):
    """The program's own set-up before the first op: the imports and, for
    the harness, config validation."""
    import streamsift  # noqa: F401  (the imports are the set-up being timed)
    import streamsift.cli  # noqa: F401

    if workload == "harness_epig":
        from streamsift import ExperimentConfig

        ExperimentConfig.from_dict(harness_config(0))


def run_op(workload, inputs, op_dir):
    """Issue one op; returns its output as plain data."""
    if workload == "harness_epig":
        from streamsift import harness

        result = harness.run_experiment(harness_config(inputs["seed"]))
        run = result.per_seed[0]
        return {
            "status": run.status,
            "error": run.error,
            "chosen": [[s["step"], s["slot"], s["chosen"]] for s in run.selections],
            "scores": [s["score"] for s in run.selections],
            "accuracies": list(run.accuracies),
            "ledger": run.ledger,
        }
    if workload == "demo_heatmap":
        from streamsift import demo

        out = demo.run_demo(seed=inputs["seed"], outdir=op_dir, **DEMO_ARGS)
        return {
            "panels": [[g.objective, g.label_mode] for g in out["grids"]],
            "grids": np.stack([g.values for g in out["grids"]]),
            "files": len(out["files"]),
        }
    if workload == "score_d784":
        from streamsift import cli

        argv = [
            "score", "--model", SCORE_MODEL, "--store", inputs["store"],
            "--candidates", inputs["candidates"], "--targets", inputs["targets"],
            "--objective", "epig", "--sample-count", str(SCORE_SAMPLE_COUNT),
            "--seed", str(inputs["seed"]),
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        return {
            "exit_code": code,
            "header": lines[0] if lines else "",
            "index": [int(r[0]) for r in rows],
            "score": [float(r[1]) for r in rows],
            "rank": [int(r[2]) for r in rows],
            "output_bytes": len(text.encode("utf-8")),
        }
    raise ValueError(f"unknown workload {workload!r}")


def to_reference(workload, output):
    """The part of an op output that is committed as a reference."""
    if workload == "demo_heatmap":
        return {"panels": output["panels"], "grids": output["grids"]}
    if workload == "score_d784":
        return {k: output[k] for k in ("index", "score", "rank")}
    return {k: output[k] for k in ("chosen", "accuracies")}


def load_reference(ref_dir, workload):
    ref_dir = Path(ref_dir)
    if workload == "demo_heatmap":
        with np.load(ref_dir / "demo_heatmap.npz") as data:
            return {"panels": json.loads(str(data["panels"])), "grids": data["grids"]}
    with open(ref_dir / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(ref_dir, workload, output):
    ref = to_reference(workload, output)
    ref_dir = Path(ref_dir)
    ref_dir.mkdir(parents=True, exist_ok=True)
    if workload == "demo_heatmap":
        np.savez_compressed(ref_dir / "demo_heatmap.npz",
                            panels=json.dumps(ref["panels"]), grids=ref["grids"])
    else:
        with open(ref_dir / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
            fh.write("\n")
