"""Spans around calls into streamsift's layers, recorded from outside.

``Tracer.install`` replaces each layer function at every module attribute
that names it (its defining module and each module that imported it by
name), and each model method on its class, with a wrapper that records a
span. Calls made through an attribute that was left unpatched therefore
record nothing, which the per-site call counts expose. Wrappers re-raise
exceptions unchanged: the harness uses ``FitError`` for control flow.

A span records its name, start, end, parent span, op id and whether the call
raised; spans stay in memory until ``dump`` writes them out. With
``tracemalloc`` running, each span also records the peak traced allocation
during the call, above what was allocated at its start.
"""

import functools
import importlib
import os
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span) for each function, at every module that binds it
FUNCTION_SITES = [
    ("streamsift.prob", "mutual_information_of_array", "prob.mi"),
    ("streamsift.prob", "entropy_of_array", "prob.entropy"),
    ("streamsift.acquisition", "mutual_information_of_array", "prob.mi"),
    ("streamsift.acquisition", "entropy_of_array", "prob.entropy"),
    ("streamsift.models.base", "dataset_arrays", "models.dataset_arrays"),
    ("streamsift.models", "dataset_arrays", "models.dataset_arrays"),
    ("streamsift.models.forest", "dataset_arrays", "models.dataset_arrays"),
    ("streamsift.models.dirichlet", "dataset_arrays", "models.dataset_arrays"),
    ("streamsift.models.mlp", "dataset_arrays", "models.dataset_arrays"),
    ("streamsift.acquisition", "dataset_arrays", "models.dataset_arrays"),
    ("streamsift.harness", "dataset_arrays", "models.dataset_arrays"),
    ("streamsift.acquisition", "epig_scores", "acquisition.epig"),
    ("streamsift.acquisition", "la_epig_scores", "acquisition.la_epig"),
    ("streamsift.acquisition", "mic_scores", "acquisition.mic"),
    ("streamsift.acquisition", "score_pool", "acquisition.score_pool"),
    ("streamsift.demo", "epig_scores", "acquisition.epig"),
    ("streamsift.demo", "la_epig_scores", "acquisition.la_epig"),
    ("streamsift.demo", "mic_scores", "acquisition.mic"),
    ("streamsift.harness", "score_pool", "acquisition.score_pool"),
    ("streamsift.cli", "score_pool", "acquisition.score_pool"),
    ("streamsift", "epig_scores", "acquisition.epig"),
    ("streamsift", "la_epig_scores", "acquisition.la_epig"),
    ("streamsift", "mic_scores", "acquisition.mic"),
    ("streamsift", "score_pool", "acquisition.score_pool"),
    ("streamsift.streams", "load_csv", "streams.load"),
    ("streamsift.streams", "load_features_csv", "streams.load"),
    ("streamsift.streams", "synth_blobs", "streams.generate"),
    ("streamsift.streams", "split_stream", "streams.generate"),
    ("streamsift.harness", "load_csv", "streams.load"),
    ("streamsift.harness", "load_features_csv", "streams.load"),
    ("streamsift.harness", "synth_blobs", "streams.generate"),
    ("streamsift.harness", "split_stream", "streams.generate"),
    ("streamsift.cli", "load_csv", "streams.load"),
    ("streamsift.cli", "load_features_csv", "streams.load"),
    ("streamsift", "load_csv", "streams.load"),
    ("streamsift", "synth_blobs", "streams.generate"),
    ("streamsift", "split_stream", "streams.generate"),
    ("streamsift.harness", "run_experiment", "harness.run"),
    ("streamsift.harness", "_run_seed", "harness.seed"),
    ("streamsift.harness", "prepare_data", "harness.prepare"),
    ("streamsift.harness", "evaluate_accuracy", "harness.evaluate"),
    ("streamsift.harness", "build_model", "harness.build_model"),
    ("streamsift.cli", "run_experiment", "harness.run"),
    ("streamsift.cli", "build_model", "harness.build_model"),
    ("streamsift", "run_experiment", "harness.run"),
    ("streamsift", "evaluate_accuracy", "harness.evaluate"),
    ("streamsift.demo", "run_demo", "demo.run"),
    ("streamsift.demo", "build_demo_model", "demo.build_model"),
    ("streamsift.demo", "write_grid_csv", "demo.write"),
    ("streamsift.demo", "heatmap_svg", "demo.write"),
    ("streamsift.cli", "run_demo", "demo.run"),
    ("streamsift", "run_demo", "demo.run"),
    ("streamsift.cli", "main", "cli.main"),
]

# (module, class, method, span) for the model methods
METHOD_SITES = [
    (module, cls, method, f"models.{method}")
    for module, cls in [
        ("streamsift.models.forest", "BootstrapForest"),
        ("streamsift.models.finite", "FiniteHypothesisModel"),
        ("streamsift.models.dirichlet", "DirichletHistogramClassifier"),
        ("streamsift.models.mlp", "DropoutMLP"),
    ]
    for method in ("fit", "conditionals")
]

# Sites each workload is known to reach; a traced run in which any of them
# records zero calls fails.
EXPECTED_SITES = {
    "harness_epig": [
        "streamsift.harness.run_experiment", "streamsift.harness._run_seed",
        "streamsift.harness.prepare_data", "streamsift.harness.evaluate_accuracy",
        "streamsift.harness.build_model", "streamsift.harness.score_pool",
        "streamsift.harness.synth_blobs", "streamsift.harness.split_stream",
        "streamsift.harness.dataset_arrays", "streamsift.acquisition.dataset_arrays",
        "streamsift.models.forest.dataset_arrays", "streamsift.acquisition.epig_scores",
        "streamsift.acquisition.mutual_information_of_array",
        "streamsift.prob.entropy_of_array",
        "streamsift.models.forest.BootstrapForest.fit",
        "streamsift.models.forest.BootstrapForest.conditionals",
    ],
    "demo_heatmap": [
        "streamsift.demo.run_demo", "streamsift.demo.build_demo_model",
        "streamsift.demo.write_grid_csv", "streamsift.demo.heatmap_svg",
        "streamsift.demo.epig_scores", "streamsift.demo.la_epig_scores",
        "streamsift.demo.mic_scores",
        "streamsift.acquisition.mutual_information_of_array",
        "streamsift.acquisition.entropy_of_array", "streamsift.prob.entropy_of_array",
        "streamsift.models.finite.FiniteHypothesisModel.fit",
        "streamsift.models.finite.FiniteHypothesisModel.conditionals",
    ],
    "score_d784": [
        "streamsift.cli.main", "streamsift.cli.load_csv",
        "streamsift.cli.load_features_csv", "streamsift.cli.build_model",
        "streamsift.cli.score_pool", "streamsift.acquisition.dataset_arrays",
        "streamsift.models.forest.dataset_arrays", "streamsift.acquisition.epig_scores",
        "streamsift.acquisition.mutual_information_of_array",
        "streamsift.prob.entropy_of_array",
        "streamsift.models.forest.BootstrapForest.fit",
        "streamsift.models.forest.BootstrapForest.conditionals",
    ],
}


def _count_mi(counts, args, kwargs, result):
    counts["prob.mi.cells"] += np.asarray(args[0]).size


def _count_fit(counts, args, kwargs, result):
    model, examples = args[0], args[1]
    counts["models.fit.rows"] += len(examples)
    for tree in getattr(model, "trees", None) or ():
        counts["models.fit.nodes"] += len(tree.feature)


def _count_conditionals(counts, args, kwargs, result):
    counts["models.conditionals.rows"] += len(result)


def _kernel_counter(with_targets):
    def count(counts, args, kwargs, result):
        model, X = args[0], args[1]
        n = len(X)
        counts["acquisition.candidates"] += n
        counts["acquisition.degenerate"] += int(np.isnan(result).sum())
        if with_targets:
            m = len(args[-1])
            counts["acquisition.pairs"] += n * m
            c = model.num_classes
            key = "acquisition.joint_bytes_max"
            counts[key] = max(counts[key], n * m * c * c * 8)
    return count


def _count_load(counts, args, kwargs, result):
    counts["streams.load.bytes"] += os.path.getsize(args[0])


# span name -> function(counts, args, kwargs, result) run after each call
COUNTERS = {
    "prob.mi": _count_mi,
    "models.fit": _count_fit,
    "models.conditionals": _count_conditionals,
    "acquisition.epig": _kernel_counter(with_targets=True),
    "acquisition.la_epig": _kernel_counter(with_targets=True),
    "acquisition.mic": _kernel_counter(with_targets=False),
    "streams.load": _count_load,
}


class Tracer:
    """Records spans and counts for calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))  # per op
        self.site_calls = Counter()
        self.op = None
        self._stack = []
        self._patched = []

    # --- spans ---------------------------------------------------------------

    def wrap(self, site, name, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.site_calls[site] += 1
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                tracer._close(rec)
            if count is not None:
                count(tracer.counts[tracer.op], args, kwargs, result)
            return result

        return traced

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        # [name, start, end, parent, op, failed, start_bytes, peak_bytes]
        rec = [name, 0.0, 0.0, parent, self.op, False, 0, 0]
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent[7] = max(parent[7], peak)
            rec[6] = rec[7] = current
            tracemalloc.reset_peak()
        self.spans.append(rec)
        self._stack.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()
        if tracemalloc.is_tracing():
            rec[7] = max(rec[7], tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1][7] = max(self._stack[-1][7], rec[7])

    # --- patching ---------------------------------------------------------

    def install(self, function_sites=FUNCTION_SITES, method_sites=METHOD_SITES):
        for module_name, attr, name in function_sites:
            module = importlib.import_module(module_name)
            self._patch(module, attr, f"{module_name}.{attr}", name)
        for module_name, cls_name, method, name in method_sites:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, method, f"{module_name}.{cls_name}.{method}", name)

    def _patch(self, owner, attr, site, name):
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(site, name, original))
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def missing_sites(self, workload):
        """Sites the workload is known to reach that recorded no calls."""
        return [s for s in EXPECTED_SITES[workload] if self.site_calls[s] == 0]

    # --- summaries ---------------------------------------------------------

    def layer_times(self, op):
        """Per span name: total time (outermost spans of that name only),
        self time, peak allocation above start (bytes), calls and failures."""
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "peak_bytes": 0,
                                   "calls": 0, "failed": 0})
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[4] == op and rec[3] is not None:
                child_time[id(rec[3])] += rec[2] - rec[1]
        for rec in self.spans:
            if rec[4] != op:
                continue
            name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            entry = out[name]
            entry["calls"] += 1
            entry["failed"] += int(rec[5])
            entry["self_s"] += (end - start) - child_time[id(rec)]
            entry["peak_bytes"] = max(entry["peak_bytes"], rec[7] - rec[6])
            nested = False
            while parent is not None:
                if parent[0] == name:
                    nested = True
                    break
                parent = parent[3]
            if not nested:
                entry["s"] += end - start
        return out

    def dump(self):
        """Spans as plain data, parents given by index."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            {"name": r[0], "start": r[1], "end": r[2],
             "parent": index[id(r[3])] if r[3] is not None else None,
             "op": r[4], "failed": r[5], "peak_bytes": r[7] - r[6]}
            for r in self.spans
        ]
