"""streamsift benchmark: closed-loop workloads with checked outputs.

Run from anywhere inside a checkout that holds ``src/streamsift``:

    python3 perfbench/run.py --workload harness_epig --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer metrics with ``--trace 1``. The line before it reports the
environment, every op time and the failure share. Inputs are generated from
``--seed`` into a scratch directory inside the checkout and removed at the
end; the spans of a traced run are kept under ``.perfbench_out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import measure  # noqa: E402
import workloads  # noqa: E402

#: fresh processes timed for set-up only, besides the one of each op
SETUP_PROBES = 5
#: every run must end within this many seconds
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set for every op process. glibc raises its mmap threshold after the
#: first large free, at a point that varied from process to process: on a
#: 2-vCPU Xeon VM the same score_d784 op took either ~150k page faults or
#: ~500k, with 10% more time and 6% less peak RSS. Pinning the threshold (and
#: the trim threshold glibc pairs with it) at its adaptive ceiling keeps the
#: common mode; a fixed hash seed removes the interpreter's own per-process
#: variation.
WORKER_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
    "PYTHONHASHSEED": "0",
}
#: BLAS threads default to one unless the caller sets them: on the same VM a
#: second OpenBLAS thread left op wall time unchanged, kept the second core
#: 75% busy and made op times follow the load on that core.
DEFAULT_THREADS = "1"


def _worker_env():
    env = {var: os.environ.get(var, DEFAULT_THREADS) for var in THREAD_VARS}
    env.update(WORKER_ENV)
    return env


def _spawn_worker(extra, out, timeout):
    """Run worker.py with ``extra`` arguments; returns the record it wrote."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--spawned-at", repr(spawned_at), "--out", str(out), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env={**os.environ, **_worker_env()})
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err.decode()[-2000:]}")
    return json.loads(Path(out).read_text(encoding="utf-8"))


def _git():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def _environment():
    nproc = len(os.sched_getaffinity(0))
    worker_env = _worker_env()
    for var in THREAD_VARS:
        value = worker_env[var]
        if value.isdigit() and int(value) > nproc:
            print(f"warning: {var}={value} exceeds nproc={nproc}", file=sys.stderr)
    return {"git": _git(), "nproc": nproc, "cpu_count": os.cpu_count(),
            "worker_env": worker_env}


def _percentile_beyond_ten(values):
    """Highest of a few standard percentiles with >= 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return p, cut[int(round(p * 10)) - 1]
    return None


def _metric_specs(trace):
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (report, result) as printed."""
    began = time.monotonic()
    env = _environment()
    env["loadavg_before"] = os.getloadavg()
    workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        inputs = workloads.make_inputs(workload, seed, workdir)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
        setups = [
            _spawn_worker(["--workload", workload], workdir / f"setup{i}.json",
                          timeout=60)["setup_s"]
            for i in range(SETUP_PROBES)
        ]

        def issue(index, kind):
            extra = ["--workload", workload, "--inputs", str(inputs_path),
                     "--kind", kind]
            if kind != "plain":
                extra += ["--spans", str(OUT / f"spans-{workload}-seed{seed}-op{index}.json")]
            left = RUN_LIMIT_S - (time.monotonic() - began)
            return _spawn_worker(extra, workdir / f"op{index}.json", timeout=max(1.0, left))

        kinds = ("plain", "spans", "memory") if trace else ("plain",)
        records = measure.closed_loop(seconds, kinds, issue)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    env["program"] = records[0]["program"]

    failed = sum(1 for r in records if r["errors"])
    plain = [r["s"] for r in records if r["kind"] == "plain"]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "op_count": len(plain), "op_s": plain, "fail_frac": failed / len(records),
        "errors": [e for r in records for e in r["errors"]][:5], "env": env,
    }
    tail = _percentile_beyond_ten(plain)
    if tail:
        report[f"op_p{tail[0]:g}_s"] = tail[1]
    if trace:
        layers = measure.traced_layers(records)
        missing = sorted({s for r in records for s in r.get("missing_sites", ())})
        values = {m["name"]: 0.0 for m in _metric_specs(True)}
        values.update(layers)
        values["trace.op_s"] = statistics.median(
            r["s"] for r in records if r["kind"] == "spans")
        values["trace.overhead_frac"] = values["trace.op_s"] / statistics.median(plain) - 1
        report["traced_op_s"] = {k: [r["s"] for r in records if r["kind"] == k]
                                 for k in ("spans", "memory")}
        report["missing_sites"] = missing
        correct = failed == 0 and not missing and bool(layers)
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in records]),
            "op_p50_s": statistics.median(plain),
            "work_per_s": workloads.WORK_PER_OP[workload] * (len(records) - failed)
                          / sum(plain),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        }
        correct = failed == 0
    specs = _metric_specs(trace)
    if set(values) != {m["name"] for m in specs}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {m['name'] for m in specs})} "
                           "do not match BENCHMARK.json")
    result = {
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    return report, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "streamsift" / "__init__.py").is_file():
        print(f"error: no streamsift sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            report, results[name] = run_workload(name, args.seed, args.seconds,
                                                 bool(args.trace))
            print(json.dumps(report))
            if len(names) > 1:
                print(json.dumps(results[name]))
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
