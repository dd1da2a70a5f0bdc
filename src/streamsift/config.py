"""Run-configuration schema: validation, defaults and dotted-path overrides.

Configurations are plain JSON documents. ``_CONFIG`` declares every field of
every section once, as ``key: (default, rule)``; one walk (``_walk``) checks
a document against it. Unknown keys are rejected and every error message
names the offending dotted field, so a failing run says what to fix.
``validate_config`` returns a new dict with all defaults filled in, in the
schema's order; that dict is what gets echoed into results files.
"""

import copy
import json
import math
import os
from functools import partial
from pathlib import Path

from .acquisition import OBJECTIVES
from .errors import ConfigError

ENV_SEED_VAR = "STREAMSIFT_SEED"


def default_seed():
    """Last-resort global seed: the STREAMSIFT_SEED env var, else 0."""
    raw = os.environ.get(ENV_SEED_VAR, "0")
    try:
        return _as_int(int(raw), ENV_SEED_VAR, minimum=0)
    except ValueError:
        raise ConfigError(f"{ENV_SEED_VAR}={raw!r} is not an integer") from None


def read_file(name, reader, *args, **kwargs):
    """``reader(*args, **kwargs)``; a file it cannot open or decode is a
    :class:`ConfigError` naming ``name``."""
    try:
        return reader(*args, **kwargs)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {name}: {exc}") from None


def read_json(name, path=None, text=None):
    """The JSON document in the file ``path``, or in ``text``, read by the one file rule."""
    if path is not None:
        text = read_file(name, Path(path).read_text, encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name} is not valid JSON: {exc}") from None


#: default of a field that a section must give
REQUIRED = object()

#: the path of the whole document; its sections are named without it
_ROOT = "config"


def _walk(raw, path, fields):
    """Check the object ``raw`` against ``fields`` (``key: (default, rule)``)
    in their order: a missing field is an error if REQUIRED, else takes a deep
    copy of its default (called, if callable); ``rule(value, dotted_path)``
    checks each value and returns what the echo holds. Keys outside ``fields``
    are then rejected."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be an object")
    out = {}
    for key, (default, rule) in fields.items():
        if key in raw:
            value = raw[key]
        elif default is REQUIRED:
            raise ConfigError(f"missing required field {path}.{key}")
        else:
            value = default() if callable(default) else default
        out[key] = rule(copy.deepcopy(value), key if path == _ROOT else f"{path}.{key}")
    for key in raw:
        if key not in fields:
            raise ConfigError(f"unknown field {path}.{key}")
    return out


# --- rules: each checks a value and returns it as given ------------------------


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value}")
    return value


def _as_num(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):  # JSON's NaN and Infinity
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value}")
    return value


def _as_bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r}")
    return value


def _as_str(value, path):
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _as_dir(value, path):
    ancestor = os.path.abspath(_as_str(value, path))
    while not os.path.exists(ancestor):  # up to the one mkdir needs to be a directory
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        where = "" if ancestor == os.path.abspath(value) else f" is under {ancestor!r}, which"
        raise ConfigError(f"{path} {value!r}{where} exists and is not a directory")
    return value


def _as_int_list(value, path, minimum=None, non_empty=False):
    if not isinstance(value, list) or (non_empty and not value):
        kind = "non-empty list" if non_empty else "list"
        raise ConfigError(f"{path} must be a {kind} of integers, got {value!r}")
    for i, v in enumerate(value):
        _as_int(v, f"{path}[{i}]", minimum)
    return value


def _unchecked(value, path):
    return value


def _int(minimum):
    return partial(_as_int, minimum=minimum)


def _num(minimum):
    return partial(_as_num, minimum=minimum)


def _one_of(*choices):
    def rule(value, path):
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"unknown {path} {value!r}; expected one of {list(choices)}")
        return value
    return rule


def _optional(rule):
    """``rule`` for a field that defaults to None; None itself passes."""
    return lambda value, path: None if value is None else rule(value, path)


def _section(fields):
    return partial(_walk, fields=fields)


def _variant(tag, variants):
    """A section whose ``tag`` field, echoed first, picks its field table
    from ``variants``."""
    pick = (REQUIRED, _one_of(*sorted(variants)))

    def rule(raw, path):
        name = raw.get(tag) if isinstance(raw, dict) else None
        fields = variants.get(name, {}) if isinstance(name, str) else {}
        return _walk(raw, path, {tag: pick, **fields})
    return rule


# --- the schema; its order is the order of the echo ------------------------------

_FRACTIONS = {"eval_fraction": (0.2, _num(0.0)), "target_fraction": (0.1, _num(0.0)),
              "holdout_fraction": (0.0, _num(0.0))}

_DATASETS = {
    "blobs": {
        "num_classes": (REQUIRED, _int(2)), "per_class": (REQUIRED, _int(1)),
        "dim": (2, _int(1)), "spread": (1.0, _num(0.0)), "box": (5.0, _num(0.0)),
        "eval_per_class": (50, _int(1)), "target_per_class": (20, _int(0)),
        "holdout_per_class": (0, _int(0)),
    },
    "csv": {"path": (REQUIRED, _as_str), "label_column": (REQUIRED, _as_int),
            "header": (False, _as_bool), **_FRACTIONS},
    "idx": {"images": (REQUIRED, _as_str), "labels": (REQUIRED, _as_str), **_FRACTIONS},
}

# No bounds on model fields: each constructor checks its own values and names
# the model. The array fields (lower, upper, grid, tables, prior) are left
# unchecked on purpose, because prob.float_array in the constructors checks them.
_MODELS = {
    "forest": {"max_depth": (6, _as_int), "min_leaf": (1, _as_int), "beta": (1.0, _as_num)},
    "dropout_mlp": {"hidden": ([16], _as_int_list), "dropout_rate": (0.1, _as_num)},
    "dirichlet": {"bins_per_dim": (4, _as_int), "alpha0": (1.0, _as_num),
                  "lower": (None, _unchecked), "upper": (None, _unchecked)},
    "finite_hypothesis": {"grid": (REQUIRED, _unchecked), "tables": (REQUIRED, _unchecked),
                          "prior": (None, _unchecked)},
}

_MODEL = _variant("kind", _MODELS)

_TRAINING = {
    "lr": (0.01, _num(0.0)), "max_steps": (200, _int(0)),
    "weight_decay": (1e-4, _num(0.0)), "val_fraction": (0.1, _num(0.0)),
    "refit_every": (1, _int(1)),
}

_CONFIG = {
    "stream": (REQUIRED, _section({
        "kind": (REQUIRED, _one_of("split", "permuted", "stationary")),
        "steps": (REQUIRED, _int(1)),
        "seed": (0, _int(0)),
        "examples_per_step": (None, _optional(_int(1))),  # split streams only
        "dataset": (REQUIRED, _variant("source", _DATASETS)),
    })),
    "model": (REQUIRED, _MODEL),
    "objective": (REQUIRED, _section({
        "name": (REQUIRED, _one_of(*OBJECTIVES)), "eta": (1.0, _as_num),
    })),
    "store": (REQUIRED, _section({
        "strategy": ("D", _one_of("D")),  # the harness runs no other
        "m": (REQUIRED, _int(1)),
        "quota": (None, _optional(_int(1))),  # default m / stream.steps
        "tau": (1, _int(1)),
    })),
    "targets": ({}, _section({
        "source": ("global", _one_of("global", "seen_so_far", "fixed")),
        "M": (64, _int(1)),
        "path": (None, _optional(_as_str)),  # required by "fixed"
    })),
    "sampling": ({}, _section({"K": (20, _int(1))})),
    "training": ({}, _section(_TRAINING)),
    "seeds": (lambda: [default_seed()], partial(_as_int_list, minimum=0, non_empty=True)),
    "output": ({}, _section({"dir": ("results", _as_dir)})),
}

#: the training defaults, for a model built without a run config
TRAINING_DEFAULTS = _walk({}, "training", _TRAINING)


def validate_model_spec(raw):
    """Check a model spec against its kind's fields; returns a
    defaults-filled copy whose values are the spec's own."""
    return _MODEL(raw, "model")


def validate_config(raw):
    """Check a raw config dict and return a defaults-filled copy."""
    out = _walk(raw, _ROOT, _CONFIG)
    # the rules between fields
    stream, store = out["stream"], out["store"]
    if stream["examples_per_step"] is not None and stream["kind"] != "split":
        raise ConfigError("stream.examples_per_step applies only to stream.kind "
                          f"'split', not {stream['kind']!r}")
    if stream["dataset"]["source"] != "blobs":
        total = sum(stream["dataset"][key] for key in _FRACTIONS)
        if total >= 1:
            raise ConfigError(" + ".join(f"stream.dataset.{key}" for key in _FRACTIONS)
                              + f" = {total} must be below 1")
    steps, m = stream["steps"], store["m"]
    if store["quota"] is None:
        if m % steps != 0:
            raise ConfigError(f"store.m = {m} is not divisible by stream.steps = {steps}; "
                              "set store.quota explicitly")
        store["quota"] = m // steps
    elif store["quota"] * steps > m:
        raise ConfigError(f"store.quota * stream.steps = {store['quota'] * steps} "
                          f"exceeds store.m = {m}")
    if out["targets"]["source"] == "fixed" and not out["targets"]["path"]:
        raise ConfigError("targets.path is required when targets.source is 'fixed'")
    return out


def apply_overrides(raw, overrides):
    """Apply ``dotted.path=json-value`` overrides to a raw config dict."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{_ROOT} must be an object")
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
    raw = read_json("--config", path)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate_config(raw)
