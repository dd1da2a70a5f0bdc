"""Closed-loop measurement: one op per fresh process, one op at a time.

Every op runs in a process of its own (``worker.py``), so each op pays the
first-call costs that a user of ``streamsift score`` or ``streamsift demo``
pays, and no op inherits warm allocator or cache state from the one before.
Ops repeat on the same inputs until the time left is under half a typical
op, so a run lasts about ``seconds`` whatever the op length.

A traced run cycles through three kinds of op, at least one of each:
``plain`` times the program alone, ``spans`` records layer spans and counts,
and ``memory`` repeats the spans under ``tracemalloc`` for the peak
allocations only, because tracemalloc slows allocation-heavy layers such as
forest fitting far more than others and would skew the time shares.
"""

import hashlib
import json
import platform
import resource
import shutil
import statistics
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads
from tracing import Tracer

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MB = 2.0 ** 20

ACQUISITION_SPANS = ("acquisition.score_pool", "acquisition.epig",
                     "acquisition.la_epig", "acquisition.mic")


def layer_metrics(workload, tracer, op_s, out):
    """Per-layer metrics of one traced op.

    Span times are given as shares of the op's wall time; the hot layers
    that every workload reaches are also given in seconds.
    """
    t = tracer.layer_times(tracer.op)
    c = tracer.counts[tracer.op]

    def share(name, key="s"):
        return t[name][key] / op_s

    fit = t["models.fit"]
    selections = len(out["chosen"]) if workload == "harness_epig" else 0
    ledger = out.get("ledger", {})
    grids = out.get("grids")
    return {
        "prob.mi.calls": t["prob.mi"]["calls"],
        "prob.mi.s": t["prob.mi"]["s"],
        "prob.mi.share": share("prob.mi"),
        "prob.mi.cells": c["prob.mi.cells"],
        "prob.entropy.s": t["prob.entropy"]["s"],
        "prob.entropy.share": share("prob.entropy"),
        "models.fit.calls": fit["calls"],
        "models.fit.failed": fit["failed"],
        "models.fit.s": fit["s"],
        "models.fit.share": share("models.fit"),
        "models.fit.rows": c["models.fit.rows"],
        "models.fit.nodes": c["models.fit.nodes"],
        "models.fit.peak_alloc_mb": fit["peak_bytes"] / MB,
        "models.conditionals.calls": t["models.conditionals"]["calls"],
        "models.conditionals.s": t["models.conditionals"]["s"],
        "models.conditionals.share": share("models.conditionals"),
        "models.conditionals.rows": c["models.conditionals.rows"],
        "models.dataset_arrays.calls": t["models.dataset_arrays"]["calls"],
        "models.dataset_arrays.share": share("models.dataset_arrays"),
        "acquisition.score_pool.calls": t["acquisition.score_pool"]["calls"],
        "acquisition.score_pool.self_share": share("acquisition.score_pool", "self_s"),
        "acquisition.epig.s": t["acquisition.epig"]["s"],
        "acquisition.epig.share": share("acquisition.epig"),
        "acquisition.la_epig.share": share("acquisition.la_epig"),
        "acquisition.mic.share": share("acquisition.mic"),
        "acquisition.candidates": c["acquisition.candidates"],
        "acquisition.pairs": c["acquisition.pairs"],
        "acquisition.joint_bytes_max": c["acquisition.joint_bytes_max"],
        "acquisition.peak_alloc_mb":
            max(t[name]["peak_bytes"] for name in ACQUISITION_SPANS) / MB,
        "acquisition.degenerate_frac":
            c["acquisition.degenerate"] / max(c["acquisition.candidates"], 1),
        "streams.load.calls": t["streams.load"]["calls"],
        "streams.load.share": share("streams.load"),
        "streams.load.bytes": c["streams.load.bytes"],
        "streams.generate.share": share("streams.generate"),
        "store.selection_units": sum(ledger.get("selection", ())),
        "store.training_units": sum(ledger.get("training", ())),
        "harness.prepare.share": share("harness.prepare"),
        "harness.evaluate.share": share("harness.evaluate"),
        "harness.self_share": share("harness.seed", "self_s"),
        "harness.selections": selections,
        "harness.fits_per_selection":
            (fit["calls"] - fit["failed"]) / selections if selections else 0.0,
        "demo.build_model.share": share("demo.build_model"),
        "demo.write.share": share("demo.write"),
        "demo.cells": grids.shape[1] * grids.shape[2] if grids is not None else 0,
        "cli.score.self_share": share("cli.main", "self_s"),
        "cli.output_bytes": out.get("output_bytes", 0),
    }


def digest(out):
    """Hash of an op output, equal only for bit-identical outputs."""
    h = hashlib.sha256()
    for key in sorted(out):
        value = out[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.shape).encode() + value.tobytes())
        else:
            h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


def program_environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def one_op(workload, inputs, kind, workdir, op=workloads.run_op, reference=None,
           spans_path=None):
    """Issue one op in this process and check it; returns its record.

    ``reference`` defaults to the committed reference at the reference seed
    and to none at other seeds.
    """
    if reference is None and inputs["seed"] == checks.REFERENCE_SEED:
        reference = workloads.load_reference(REFERENCE_DIR, workload)
    tracer = Tracer()
    tracer.op = 0
    op_dir = Path(workdir) / "op"
    if kind != "plain":
        tracer.install()
    if kind == "memory":
        tracemalloc.start()
    t0 = time.perf_counter()
    try:
        out = op(workload, inputs, op_dir)
        errors = None
    except Exception:  # an op that raises is a failed op, not a failed run
        out, errors = None, [traceback.format_exc(limit=5)]
    op_s = time.perf_counter() - t0
    if kind == "memory":
        tracemalloc.stop()
    tracer.uninstall()
    shutil.rmtree(op_dir, ignore_errors=True)
    record = {"kind": kind, "s": op_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if errors is None:
        errors = checks.check_op(workload, out, reference)
        record["digest"] = digest(out)
    record["errors"] = errors
    if kind != "plain":
        record["missing_sites"] = tracer.missing_sites(workload)
        if not errors:
            record["layers"] = layer_metrics(workload, tracer, op_s, out)
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    return record


def closed_loop(seconds, kinds, issue):
    """Call ``issue(index, kind)`` for one op at a time until the time is
    used, cycling through ``kinds`` at least once. An op whose output
    differs from the first correct op of the run gets an error."""
    records, first = [], None
    start = time.perf_counter()
    while True:
        index = len(records)
        record = issue(index, kinds[index % len(kinds)])
        if not record["errors"]:
            if first is None:
                first = record["digest"]
            elif record["digest"] != first:
                record["errors"] = ["output differs from the first op on the same input"]
        records.append(record)
        typical = statistics.median(r["s"] for r in records)
        left = seconds - (time.perf_counter() - start)
        if left < typical / 2 and len(records) >= len(kinds):
            return records


def traced_layers(records):
    """Median per-layer metrics over the correct ``spans`` ops, with peak
    allocations from the correct ``memory`` ops; empty if either is missing."""
    spans = [r["layers"] for r in records if r["kind"] == "spans" and not r["errors"]]
    memory = [r["layers"] for r in records if r["kind"] == "memory" and not r["errors"]]
    if not spans or not memory:
        return {}
    layers = {k: statistics.median(m[k] for m in spans) for k in spans[0]}
    for key in ("models.fit.peak_alloc_mb", "acquisition.peak_alloc_mb"):
        layers[key] = max(m[key] for m in memory)
    return layers
