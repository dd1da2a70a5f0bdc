"""End-to-end experiment driver: greedy subsampling interleaved with model
training over a stream, with accuracy tracking, cost accounting, seeded
repeats and results serialization.

The driver runs the addition-based store strategy (D) through
``store.strategy_steps``: its selector moves ``quota`` examples from each
step's batch into the store one at a time, refitting the model before each
decision; after each step the driver refits on the full store and records
test accuracy. Seeds run in turn; a seed that raises any ``Exception``
(a ``StreamsiftError``, but also an ``IndexError`` or ``MemoryError``) is
recorded as failed with ``"<Type>: <message>"``, keeps the accuracies,
selections and store track it recorded, is excluded from aggregates, and
never aborts the batch. A ``ConfigError`` that shows only once a seed's
data exist (a split stream without 2*T classes, ``targets.M`` above the
target pool, a quota above a batch, a model field the model rejects, inputs
of another width) is the configuration's fault, not the seed's; so is a
``DataFormatError``. Either propagates and the run produces no results.
"""

import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acquisition import TARGET_OBJECTIVES, TargetSet, score_pool
from .config import read_file, validate_config
from .errors import ConfigError, DataFormatError, FitError, StreamsiftError, ValidationError
from .models import (
    BootstrapForest,
    DirichletHistogramClassifier,
    DropoutMLP,
    FiniteHypothesisModel,
    dataset_arrays,
)
from .rng import derive_seed, rng_from
from .store import CostLedger, strategy_steps
from .streams import (
    load_csv,
    load_features_csv,
    load_idx,
    permuted_stream,
    split_stream,
    stationary_stream,
    synth_blobs,
)
from .svgrender import learning_curve_svg

_log = logging.getLogger(__name__)

# purpose tags for seed derivation
_TAG_DATA, _TAG_MODEL, _TAG_SELECT, _TAG_TARGETS, _TAG_AUX, _TAG_SPLIT = range(6)


@dataclass
class ExperimentConfig:
    """Validated experiment description (see config.validate_config)."""

    stream: dict
    model: dict
    objective: dict
    store: dict
    targets: dict
    sampling: dict
    training: dict
    seeds: list
    output: dict

    @classmethod
    def from_dict(cls, raw):
        return cls(**validate_config(raw))

    def echo(self):
        return dict(vars(self))


@dataclass
class SeedRun:
    seed: int
    status: str = "ok"
    error: str = ""
    accuracies: list = field(default_factory=list)
    store_track: list = field(default_factory=list)
    selections: list = field(default_factory=list)
    ledger: dict = field(default_factory=dict)


@dataclass
class ExperimentResult:
    config: dict
    per_seed: list
    summary: dict
    timing: dict

    def to_dict(self):
        return {
            "config": self.config,
            "objective": self.config["objective"]["name"],
            "per_seed": [vars(run).copy() for run in self.per_seed],
            "summary": self.summary,
            "timing": self.timing,
        }


# --- data preparation ---------------------------------------------------------


def _split_indices(n, fractions, rng):
    """Shuffle 0..n-1 and split off len(fractions) tail pools."""
    perm = rng.permutation(n)
    counts = [int(np.floor(f * n)) for f in fractions]
    pools, start = [], 0
    for c in counts:
        pools.append(perm[start:start + c])
        start += c
    return perm[start:], pools


def load_examples(config):
    """The examples of a file source (csv or idx), read once per run and
    split by each seed; None for a synthetic source."""
    ds = config.stream["dataset"]
    if ds["source"] == "csv":
        return read_file("stream.dataset", load_csv, ds["path"], ds["label_column"],
                         header=ds["header"])
    if ds["source"] == "idx":
        return read_file("stream.dataset", load_idx, ds["images"], ds["labels"])
    return None


def load_fixed_targets(config):
    """The inputs of a ``fixed`` target file, read once per run when the
    objective uses targets; None otherwise."""
    if config.objective["name"] in TARGET_OBJECTIVES and config.targets["source"] == "fixed":
        return read_file("targets.path", load_features_csv, config.targets["path"])
    return None


def prepare_data(config, run_seed, examples):
    """Build the per-seed stream schedule, eval set, target pool and holdout.

    Synthetic sources draw fresh data per run seed (shared class means come
    from the same generative draw); a file source's ``examples`` (see
    :func:`load_examples`) are split per run seed. The objective never
    enters any of this, so paired comparisons across objectives see
    identical data at equal seeds.
    """
    ds = config.stream["dataset"]
    stream_seed = config.stream["seed"]
    data_seed = derive_seed(stream_seed, run_seed, _TAG_DATA)

    if ds["source"] == "blobs":
        total_per_class = (
            ds["per_class"] + ds["eval_per_class"] + ds["target_per_class"]
            + ds["holdout_per_class"]
        )
        full = synth_blobs(
            ds["num_classes"], total_per_class, dim=ds["dim"],
            spread=ds["spread"], seed=data_seed, box=ds["box"],
        )
        rng = rng_from(data_seed, _TAG_SPLIT)
        stream_data, eval_set, target_data, holdout = [], [], [], []
        for c in range(ds["num_classes"]):
            members = [ex for ex in full if ex.label == c]
            order = rng.permutation(len(members))
            cut1 = ds["per_class"]
            cut2 = cut1 + ds["eval_per_class"]
            cut3 = cut2 + ds["target_per_class"]
            stream_data += [members[i] for i in order[:cut1]]
            eval_set += [members[i] for i in order[cut1:cut2]]
            target_data += [members[i] for i in order[cut2:cut3]]
            holdout += [members[i] for i in order[cut3:]]
    else:
        rng = rng_from(data_seed, _TAG_SPLIT)
        keep, (ev, tg, ho) = _split_indices(
            len(examples),
            [ds["eval_fraction"], ds["target_fraction"], ds["holdout_fraction"]],
            rng,
        )
        if not len(keep):
            raise ConfigError(
                "stream.dataset.eval_fraction, stream.dataset.target_fraction and "
                f"stream.dataset.holdout_fraction take {len(ev)}, {len(tg)} and "
                f"{len(ho)} of the {len(examples)} rows, leaving none for the stream"
            )
        stream_data = [examples[i] for i in sorted(keep)]
        eval_set = [examples[i] for i in sorted(ev)]
        target_data = [examples[i] for i in sorted(tg)]
        holdout = [examples[i] for i in sorted(ho)]

    if not eval_set:
        raise ConfigError("evaluation set is empty; increase its share of the data")

    kind = config.stream["kind"]
    sched_seed = derive_seed(stream_seed, run_seed, _TAG_SPLIT, 1)
    if kind == "split":
        schedule = split_stream(
            stream_data, config.stream["steps"], seed=sched_seed,
            examples_per_step=config.stream["examples_per_step"],
        )
    elif kind == "permuted":
        schedule = permuted_stream(stream_data, config.stream["steps"], seed=sched_seed)
    else:
        schedule = stationary_stream(stream_data, config.stream["steps"], seed=sched_seed)

    return {
        "schedule": schedule,
        "eval_set": eval_set,
        "target_pool": dataset_arrays(target_data)[0],
        "holdout": holdout,
    }


def build_model(spec, K, training, seed, labelled, inputs=()):
    """Instantiate a model from its validated spec dict, set up for the data
    it will see: ``labelled`` maps a source name to labelled examples and
    ``inputs`` holds ``(name, array)`` pairs of unlabelled input rows.

    The class count is ``max(2, 1 + the largest label)``. The input width is
    the first non-empty source's, and every other non-empty source must have
    it. A dirichlet spec without lower/upper bounds gets the bounding box of
    every source's rows, widened by 1e-6 per side. A source of another width
    or a value the model rejects is a :class:`ConfigError`.
    """
    arrays = [(name, *dataset_arrays(examples)) for name, examples in labelled.items()]
    sources = [(name, rows) for name, rows, *_ in arrays + list(inputs) if len(rows)]
    num_classes = max([2] + [int(y.max()) + 1 for _, _, y in arrays if len(y)])
    num_features = len(sources[0][1][0]) if sources else None
    for name, rows in sources[1:]:
        if len(rows[0]) != num_features:
            raise ConfigError(f"{name} has {len(rows[0])} features per row, but "
                              f"{sources[0][0]} has {num_features}")
    kind = spec["kind"]
    try:
        if kind == "forest":
            return BootstrapForest(
                num_classes, num_trees=K, max_depth=spec["max_depth"],
                min_leaf=spec["min_leaf"], beta=spec["beta"], seed=seed,
            )
        if kind == "dropout_mlp":
            return DropoutMLP(
                num_features, num_classes, hidden=tuple(spec["hidden"]),
                dropout_rate=spec["dropout_rate"], learning_rate=training["lr"],
                max_steps=training["max_steps"], weight_decay=training["weight_decay"],
                val_fraction=training["val_fraction"], num_samples=K, seed=seed,
            )
        if kind == "dirichlet":
            lower, upper = spec["lower"], spec["upper"]
            if lower is None or upper is None:
                stacked = np.vstack([rows for _, rows in sources])
                lower = (stacked.min(axis=0) - 1e-6).tolist()
                upper = (stacked.max(axis=0) + 1e-6).tolist()
            return DirichletHistogramClassifier(
                num_classes, lower, upper, bins_per_dim=spec["bins_per_dim"],
                alpha0=spec["alpha0"], num_samples=K, seed=seed,
            )
        if kind == "finite_hypothesis":
            return FiniteHypothesisModel(spec["grid"], spec["tables"], spec["prior"])
    except ValidationError as exc:
        raise ConfigError(f"model ({kind}): {exc}") from None
    raise ConfigError(f"unknown model.kind {kind!r}")


def build_target_set(spec, context, seed):
    """Draw a TargetSet per the configured source.

    "global" samples without replacement from the held-out unlabelled pool,
    "seen_so_far" from inputs of the current and earlier stream steps,
    "fixed" takes the inputs of the target file verbatim (see
    :func:`load_fixed_targets`).
    """
    source = spec["source"]
    if source == "fixed":
        return TargetSet(context["fixed_targets"])
    if source == "global":
        pool = context["target_pool"]
    elif source == "seen_so_far":
        steps = context["schedule"].steps[: context["step"] + 1]
        pool = dataset_arrays([ex for batch in steps for ex in batch])[0]
    else:
        raise ConfigError(f"unknown targets.source {source!r}")
    M = spec["M"]
    if M > len(pool):
        raise ConfigError(
            f"targets.M = {M} exceeds the available pool of {len(pool)} inputs"
        )
    rng = rng_from(seed)
    idx = np.sort(rng.choice(len(pool), size=M, replace=False))
    return TargetSet(pool[idx])


def evaluate_accuracy(model, eval_set):
    """Zero-one accuracy of argmax predictions; ties go to the lowest class."""
    if not eval_set:
        raise ConfigError("evaluation set is empty")
    X, y = dataset_arrays(eval_set)
    marg = model.marginal_predict_batch(X)
    return float((marg.argmax(axis=1) == y).mean())


# --- main loop ----------------------------------------------------------------


def _try_fit(model, examples):
    """Fit on ``examples``; False when they are empty and the model cannot
    fit an empty set (a cold start). Any other fit failure propagates."""
    try:
        model.fit(examples)
        return True
    except FitError:
        if examples:
            raise
        return False


def _score_summary(ranked):
    finite = [s.value for s in ranked if np.isfinite(s.value)]
    if not finite:
        return {"max": None, "mean": None, "min": None}
    return {
        "max": float(max(finite)),
        "mean": float(np.mean(finite)),
        "min": float(min(finite)),
    }


@contextmanager
def _timed(timing, phase):
    """Add the wall time of the ``with`` body to ``timing[phase]``."""
    t0 = time.perf_counter()
    yield
    timing[phase] += time.perf_counter() - t0


def _run_seed(config, run, examples, fixed_targets, timing):
    """Run one seed, recording into the ``SeedRun`` ``run`` as it goes, so a
    seed that raises keeps what it recorded."""
    run_seed = run.seed
    objective = config.objective["name"]
    eta = config.objective["eta"]
    refit_every = config.training["refit_every"]

    with _timed(timing, "data_prep"):
        data = prepare_data(config, run_seed, examples)

    labelled = {"stream": [ex for batch in data["schedule"] for ex in batch],
                "evaluation": data["eval_set"], "holdout": data["holdout"]}
    inputs = [("targets", data["target_pool"])]
    if fixed_targets is not None:
        inputs.append(("targets.path", fixed_targets))
    K = config.sampling["K"]
    model = build_model(config.model, K, config.training,
                        derive_seed(run_seed, _TAG_MODEL), labelled, inputs)
    aux_model = None
    if objective == "rho_loss":
        if not data["holdout"]:
            raise ConfigError(
                "rho_loss needs a non-empty holdout split for the auxiliary model"
            )
        aux_model = build_model(config.model, K, config.training,
                                derive_seed(run_seed, _TAG_AUX), labelled, inputs)
        with _timed(timing, "fitting"):
            aux_model.fit(data["holdout"])

    def select(batch, quota, t, store):
        """Greedy per-slot selection: score the remaining candidates with the
        model fitted on the store plus this step's picks, take the best."""
        remaining = list(range(len(batch)))
        picked = []
        targets = None
        if objective in TARGET_OBJECTIVES:
            targets = build_target_set(
                config.targets,
                {"target_pool": data["target_pool"], "schedule": data["schedule"],
                 "step": t, "fixed_targets": fixed_targets},
                derive_seed(run_seed, _TAG_TARGETS, t),
            )
        fitted, since_fit = False, 0
        for slot in range(quota):
            candidates = [batch[i] for i in remaining]
            diag = {}
            sel_seed = derive_seed(run_seed, _TAG_SELECT, t, slot)
            if objective != "random" and (not fitted or since_fit >= refit_every):
                with _timed(timing, "fitting"):
                    fitted = _try_fit(model, store.examples + [batch[i] for i in picked])
                since_fit = 0
            cold_start = objective != "random" and not fitted
            if fitted:
                with _timed(timing, "scoring"):
                    ranked = score_pool(objective, model, candidates, targets=targets,
                                        seed=sel_seed, eta=eta, aux_model=aux_model,
                                        diagnostics=diag)
            else:  # the random objective, or an empty store the model cannot fit
                ranked = score_pool("random", None, candidates, seed=sel_seed,
                                    diagnostics=diag)
            chosen = remaining.pop(ranked[0].candidate_index)
            picked.append(chosen)
            since_fit += 1
            run.selections.append({
                "step": t,
                "slot": slot,
                "chosen": int(chosen),
                "score": ranked[0].value,
                "summary": _score_summary(ranked),
                "degenerate": len(diag.get("degenerate_candidates", [])),
                "cold_start": cold_start,
                "target_evaluations": diag.get("target_evaluations", 0),
            })
        return picked

    ledger = CostLedger()
    origins = []
    steps = strategy_steps("D", data["schedule"], select, config.store["quota"],
                           ledger, tau=config.store["tau"])
    for t, store in enumerate(steps):
        with _timed(timing, "fitting"):
            model.fit(store.examples)
        with _timed(timing, "evaluation"):
            run.accuracies.append(evaluate_accuracy(model, data["eval_set"]))

        origins += [t] * (len(store) - len(origins))
        labels = [ex.label for ex in store.examples]
        run.store_track.append({
            "step": t,
            "size": len(store),
            "label_histogram": np.bincount(labels, minlength=model.num_classes).tolist(),
            "origin_steps": list(origins),
        })

    run.ledger = ledger.as_dict()


def run_experiment(config):
    """Run every seed in turn and aggregate. Returns an ExperimentResult;
    raises ConfigError or DataFormatError when any seed finds the
    configuration or its data files unusable.

    ``timing`` holds each phase's time summed over the seeds (``data_prep``
    also holds the one read of each data file), and ``total`` the wall time
    of the whole call.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    timing = {"data_prep": 0.0, "fitting": 0.0, "scoring": 0.0, "evaluation": 0.0}
    wall = time.perf_counter()
    with _timed(timing, "data_prep"):
        examples, fixed_targets = load_examples(config), load_fixed_targets(config)
    per_seed = [SeedRun(seed=seed) for seed in config.seeds]
    for run in per_seed:
        try:
            _run_seed(config, run, examples, fixed_targets, timing)
        except (ConfigError, DataFormatError):
            raise
        except Exception as exc:  # any other fault fails this seed only
            if not isinstance(exc, StreamsiftError):  # a bug: keep its traceback
                _log.error("seed %s failed", run.seed, exc_info=True)
            run.status, run.error = "failed", f"{type(exc).__name__}: {exc}"
    timing["total"] = time.perf_counter() - wall

    ok = [r for r in per_seed if r.status == "ok"]
    summary = {
        "seeds_ok": [r.seed for r in ok],
        "seeds_failed": [r.seed for r in per_seed if r.status == "failed"],
        "per_step_mean_accuracy": [],
        "per_step_stderr": [],
        "mean_final_accuracy": None,
        "stderr_final_accuracy": None,
    }
    if ok:
        acc = np.array([r.accuracies for r in ok])
        mean = acc.mean(axis=0)
        stderr = (
            acc.std(axis=0, ddof=1) / np.sqrt(len(ok)) if len(ok) > 1
            else np.zeros(config.stream["steps"])
        )
        summary.update(
            per_step_mean_accuracy=mean.tolist(), per_step_stderr=stderr.tolist(),
            mean_final_accuracy=float(mean[-1]), stderr_final_accuracy=float(stderr[-1]),
        )
    return ExperimentResult(
        config=config.echo(), per_seed=per_seed, summary=summary, timing=timing
    )


# --- serialization --------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_results(result, outdir):
    """Write results.json, results.csv and learning_curve.svg; returns paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    objective = result.config["objective"]["name"]

    json_path = outdir / "results.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(result.to_dict()), fh, indent=2)
        fh.write("\n")

    csv_path = outdir / "results.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("seed,step,objective,accuracy\n")
        for run in result.per_seed:
            if run.status != "ok":
                continue
            for step, acc in enumerate(run.accuracies):
                fh.write(f"{run.seed},{step},{objective},{acc!r}\n")

    svg_path = outdir / "learning_curve.svg"
    mean = result.summary["per_step_mean_accuracy"]
    stderr = result.summary["per_step_stderr"]
    if mean:
        svg = learning_curve_svg(
            list(range(len(mean))), mean, stderr,
            title=f"objective={objective} (mean +/- stderr over "
                  f"{len(result.summary['seeds_ok'])} seeds)",
        )
    else:
        svg = learning_curve_svg([0], [0.0], [0.0], title="no successful seeds")
    svg_path.write_text(svg, encoding="utf-8")
    return {"json": json_path, "csv": csv_path, "svg": svg_path}
