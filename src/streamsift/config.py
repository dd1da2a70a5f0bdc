"""Run-configuration schema: validation, defaults and dotted-path overrides.

Configurations are plain JSON documents. Unknown keys are rejected and every
error message names the offending dotted field, so a failing run says what
to fix. ``validate_config`` returns a new dict with all defaults filled in;
that dict is what gets echoed into results files.
"""

import copy
import json
import os

from .acquisition import OBJECTIVES
from .errors import ConfigError

ENV_SEED_VAR = "STREAMSIFT_SEED"

TRAINING_DEFAULTS = {"lr": 0.01, "max_steps": 200, "weight_decay": 1e-4,
                     "val_fraction": 0.1, "refit_every": 1}


def default_seed():
    """Last-resort global seed: the STREAMSIFT_SEED env var, else 0."""
    raw = os.environ.get(ENV_SEED_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_SEED_VAR}={raw!r} is not an integer") from None


def _require(section, key, path):
    if key not in section:
        raise ConfigError(f"missing required field {path}.{key}")
    return section[key]


def _check_keys(section, allowed, path):
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown field {path}.{key}")


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value}")
    return value


def _as_num(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value}")
    return float(value)


def _as_bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r}")


def _as_int_list(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list of integers, got {value!r}")
    for i, v in enumerate(value):
        _as_int(v, f"{path}[{i}]")


# the type check of a variant field whose default has this type; a field
# that defaults to None is checked where it is used (a model's constructor)
_FIELD_CHECKS = {int: _as_int, float: _as_num, bool: _as_bool, list: _as_int_list}

#: default of a field that a section must give
REQUIRED = object()

_DATASET_DEFAULTS = {
    "blobs": {
        "num_classes": REQUIRED, "per_class": REQUIRED, "dim": 2, "spread": 1.0,
        "box": 5.0, "eval_per_class": 50, "target_per_class": 20,
        "holdout_per_class": 0,
    },
    "csv": {
        "path": REQUIRED, "label_column": REQUIRED, "header": False,
        "eval_fraction": 0.2, "target_fraction": 0.1, "holdout_fraction": 0.0,
    },
    "idx": {
        "images": REQUIRED, "labels": REQUIRED,
        "eval_fraction": 0.2, "target_fraction": 0.1, "holdout_fraction": 0.0,
    },
}

_MODEL_DEFAULTS = {
    "forest": {"max_depth": 6, "min_leaf": 1, "beta": 1.0},
    "dropout_mlp": {"hidden": [16], "dropout_rate": 0.1},
    "dirichlet": {"bins_per_dim": 4, "alpha0": 1.0, "lower": None, "upper": None},
    "finite_hypothesis": {"grid": REQUIRED, "tables": REQUIRED, "prior": None},
}


def _validate_variant(raw, tag, variants, path):
    """Check a section whose ``tag`` field names one of ``variants``: reject
    unknown and missing required fields and type-check each field against its
    default. Returns a defaults-filled copy whose values are the section's own."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be an object")
    name = _require(raw, tag, path)
    if not isinstance(name, str) or name not in variants:
        raise ConfigError(
            f"unknown {path}.{tag} {name!r}; expected one of {sorted(variants)}"
        )
    defaults = variants[name]
    _check_keys(raw, set(defaults) | {tag}, path)
    out = {tag: name}
    for key, default in defaults.items():
        if default is REQUIRED and key not in raw:
            raise ConfigError(f"missing required field {path}.{key}")
        out[key] = copy.deepcopy(raw.get(key, default))
        check = _FIELD_CHECKS.get(type(default))
        if check is not None:
            check(out[key], f"{path}.{key}")
    return out


def _validate_dataset(raw):
    out = _validate_variant(raw, "source", _DATASET_DEFAULTS, "stream.dataset")
    if out["source"] == "blobs":
        _as_int(out["num_classes"], "stream.dataset.num_classes", 2)
        _as_int(out["per_class"], "stream.dataset.per_class", 1)
    elif out["source"] == "csv":
        _as_int(out["label_column"], "stream.dataset.label_column")
    return out


def validate_model_spec(raw):
    """Check a model spec against its kind's fields and their default types;
    returns a defaults-filled copy whose values are the spec's own."""
    return _validate_variant(raw, "kind", _MODEL_DEFAULTS, "model")


def validate_config(raw):
    """Check a raw config dict and return a defaults-filled copy."""
    _check_keys(
        raw,
        {"stream", "model", "objective", "store", "targets", "sampling",
         "training", "seeds", "output"},
        "config",
    )
    out = {}

    stream = _require(raw, "stream", "config")
    _check_keys(stream, {"kind", "dataset", "steps", "seed", "examples_per_step"}, "stream")
    kind = _require(stream, "kind", "stream")
    if kind not in ("split", "permuted", "stationary"):
        raise ConfigError(f"unknown stream.kind {kind!r}")
    steps = _as_int(_require(stream, "steps", "stream"), "stream.steps", 1)
    out["stream"] = {
        "kind": kind,
        "steps": steps,
        "seed": _as_int(stream.get("seed", 0), "stream.seed", 0),
        "examples_per_step": (
            None if stream.get("examples_per_step") is None
            else _as_int(stream["examples_per_step"], "stream.examples_per_step", 1)
        ),
        "dataset": _validate_dataset(_require(stream, "dataset", "stream")),
    }

    out["model"] = validate_model_spec(_require(raw, "model", "config"))

    objective = _require(raw, "objective", "config")
    _check_keys(objective, {"name", "eta"}, "objective")
    name = _require(objective, "name", "objective")
    if name not in OBJECTIVES:
        raise ConfigError(
            f"unknown objective.name {name!r}; expected one of {OBJECTIVES}"
        )
    out["objective"] = {"name": name, "eta": _as_num(objective.get("eta", 1.0), "objective.eta")}

    store = _require(raw, "store", "config")
    _check_keys(store, {"strategy", "m", "quota", "tau"}, "store")
    strategy = store.get("strategy", "D")
    if strategy != "D":
        raise ConfigError(f"store.strategy must be 'D' (the harness runs no other), "
                          f"got {strategy!r}")
    m = _as_int(_require(store, "m", "store"), "store.m", 1)
    if "quota" in store and store["quota"] is not None:
        quota = _as_int(store["quota"], "store.quota", 1)
        if quota * steps > m:
            raise ConfigError(
                f"store.quota * stream.steps = {quota * steps} exceeds store.m = {m}"
            )
    else:
        if m % steps != 0:
            raise ConfigError(
                f"store.m = {m} is not divisible by stream.steps = {steps}; "
                "set store.quota explicitly"
            )
        quota = m // steps
    out["store"] = {
        "strategy": strategy, "m": m, "quota": quota,
        "tau": _as_int(store.get("tau", 1), "store.tau", 1),
    }

    targets = raw.get("targets", {})
    _check_keys(targets, {"source", "M", "path"}, "targets")
    source = targets.get("source", "global")
    if source not in ("global", "seen_so_far", "fixed"):
        raise ConfigError(f"unknown targets.source {source!r}")
    if source == "fixed" and not targets.get("path"):
        raise ConfigError("targets.path is required when targets.source is 'fixed'")
    out["targets"] = {
        "source": source,
        "M": _as_int(targets.get("M", 64), "targets.M", 1),
        "path": targets.get("path"),
    }

    sampling = raw.get("sampling", {})
    _check_keys(sampling, {"K"}, "sampling")
    out["sampling"] = {"K": _as_int(sampling.get("K", 20), "sampling.K", 1)}

    training = raw.get("training", {})
    _check_keys(training, set(TRAINING_DEFAULTS), "training")
    training = {**TRAINING_DEFAULTS, **training}
    out["training"] = {
        "lr": _as_num(training["lr"], "training.lr", 0.0),
        "max_steps": _as_int(training["max_steps"], "training.max_steps", 0),
        "weight_decay": _as_num(training["weight_decay"], "training.weight_decay", 0.0),
        "val_fraction": _as_num(training["val_fraction"], "training.val_fraction", 0.0),
        "refit_every": _as_int(training["refit_every"], "training.refit_every", 1),
    }

    seeds = raw.get("seeds", [default_seed()])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list of integers")
    out["seeds"] = [_as_int(s, f"seeds[{i}]", 0) for i, s in enumerate(seeds)]

    output = raw.get("output", {})
    _check_keys(output, {"dir"}, "output")
    out["output"] = {"dir": str(output.get("dir", "results"))}
    return out


def apply_overrides(raw, overrides):
    """Apply ``dotted.path=json-value`` overrides to a raw config dict."""
    out = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like path.to.key=value")
        path, _, value_text = item.partition("=")
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override {item!r} has an empty path component")
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:
            value = value_text
        node = out
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object value")
        node[keys[-1]] = value
    return out


def load_config(path, overrides=()):
    """Read, override and validate a config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate_config(raw)
