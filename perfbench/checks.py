"""Correctness checks for one op's output.

At the reference seed an op must reproduce the committed reference: the
harness byte for byte (chosen indices and accuracies), the demo grids and
the score column within ``ATOL`` with identical NaN masks. At every seed the
invariants hold.
"""

import numpy as np

#: the seed whose outputs are committed under perfbench/reference
REFERENCE_SEED = 0
ATOL = 1e-9


def _harness(out, ref):
    errors = []
    if out["status"] != "ok":
        return [f"seed failed: {out['error']}"]
    acc = np.asarray(out["accuracies"], dtype=float)
    if acc.size == 0 or np.any((acc < 0.0) | (acc > 1.0)):
        errors.append(f"accuracy outside [0, 1]: {acc.tolist()}")
    scores = np.asarray(out["scores"], dtype=float)
    finite = scores[np.isfinite(scores)]
    if np.any(finite < 0.0):
        errors.append(f"negative EPIG of a chosen candidate: {finite.min()!r}")
    if ref is not None:
        if out["chosen"] != ref["chosen"]:
            errors.append("chosen indices differ from the reference")
        if out["accuracies"] != ref["accuracies"]:
            errors.append("accuracies differ from the reference")
    return errors


def _demo(out, ref):
    errors = []
    grids = out["grids"]
    if out["files"] != 2 * len(grids):
        errors.append(f"expected {2 * len(grids)} files, found {out['files']}")
    for (objective, _), grid in zip(out["panels"], grids):
        if objective == "epig":
            values = grid[np.isfinite(grid)]
            if values.size != grid.size or np.any(values < 0.0):
                errors.append("EPIG grid is not finite and non-negative")
    if ref is not None:
        if out["panels"] != ref["panels"] or grids.shape != ref["grids"].shape:
            return errors + ["panels or grid shape differ from the reference"]
        nan_out, nan_ref = np.isnan(grids), np.isnan(ref["grids"])
        if not np.array_equal(nan_out, nan_ref):
            errors.append("NaN masks differ from the reference")
        else:
            diff = np.abs(grids[~nan_out] - ref["grids"][~nan_ref])
            if diff.size and diff.max() > ATOL:
                errors.append(f"grid values differ from the reference by {diff.max()!r}")
    return errors


def _score(out, ref):
    if out["exit_code"] != 0:
        return [f"streamsift score exited with {out['exit_code']}"]
    errors = []
    n = len(out["index"])
    if out["header"] != "index,score,rank" or n == 0:
        errors.append("missing or malformed score output")
    if sorted(out["index"]) != list(range(n)):
        errors.append("ranked indices are not a permutation of the candidates")
    if out["rank"] != list(range(1, n + 1)):
        errors.append("ranks are not 1..N in output order")
    scores = np.asarray(out["score"], dtype=float)
    if np.any(np.diff(scores) > 0.0):
        errors.append("scores are not in non-increasing rank order")
    if np.any(~np.isfinite(scores)) or np.any(scores < 0.0):
        errors.append("EPIG scores are not finite and non-negative")
    if ref is not None and not errors:
        if len(ref["index"]) != n:
            return ["candidate count differs from the reference"]
        mine = np.empty(n)
        mine[out["index"]] = scores
        theirs = np.empty(n)
        theirs[ref["index"]] = ref["score"]
        worst = float(np.abs(mine - theirs).max())
        if worst > ATOL:
            errors.append(f"scores differ from the reference by {worst!r}")
    return errors


_CHECKS = {"harness_epig": _harness, "demo_heatmap": _demo, "score_d784": _score}


def check_op(workload, out, reference=None):
    """Return the list of problems with one op's output (empty when correct).

    ``reference`` is the committed output at the reference seed, else None.
    Whether repeated ops agree is checked by ``measure.closed_loop``.
    """
    return _CHECKS[workload](out, reference)
