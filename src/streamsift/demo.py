"""Prioritisation heatmaps on a 2-d two-bells binary classification problem.

The input distribution is an equal mixture of two isotropic Gaussian bells,
one per class; true labels follow the generative posterior (the nearer
bell). A small training set is drawn from a sub-region of the input space so
that much of the box is far from the training data. The predictive model is
an exact-Bayes finite enumeration of random smooth logistic hypotheses
(radial-basis-feature combinations) fitted on that training set, standing in
for an intractable nonparametric classifier while keeping every posterior
quantity exact.

Heatmaps cover EPIG (label-free), LA-EPIG and MIC with both true and
flipped labels, written as CSV grids and grayscale SVG renderings.
"""

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .acquisition import TargetSet, epig_scores, la_epig_scores, mic_scores
from .errors import DataFormatError
from .models import FiniteHypothesisModel, LabelledExample, dataset_arrays
from .rng import derive_seed, rng_from
from .runner import share
from .svgrender import heatmap_svg

#: the five Figure-style panels: (objective, label mode)
DEMO_PANELS = (
    ("epig", "none"),
    ("la_epig", "true"),
    ("la_epig", "flip"),
    ("mic", "true"),
    ("mic", "flip"),
)


@dataclass
class TwoBellsProblem:
    training_set: list
    means: np.ndarray  # (2, 2): one bell center per class
    std: float
    box: float  # heatmap bounds are [-box, box]^2

    def y_true(self, X):
        """argmax_y p_true(y|x): the class of the nearer bell."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = np.linalg.norm(X[:, None, :] - self.means[None, :, :], axis=2)
        return d.argmin(axis=1)

    def y_flip(self, X):
        return 1 - self.y_true(X)

    def sample_targets(self, count, seed=0):
        """Draw target inputs from the bell mixture."""
        rng = rng_from(seed)
        comp = rng.integers(0, 2, size=count)
        return self.means[comp] + self.std * rng.standard_normal((count, 2))


def two_bells_problem(seed=0, num_train=24):
    """Build the demo problem: bells 4 apart with spread 1.1 in the box
    [-5, 5]^2, and a training set confined to the lower sub-region (second
    coordinate below -0.4)."""
    std, box = 1.1, 5.0
    means = np.array([[-2.0, 0.0], [2.0, 0.0]])
    problem = TwoBellsProblem([], means, std, box)
    rng = rng_from(seed)
    train = []
    while len(train) < num_train:
        comp = int(rng.integers(0, 2))
        x = means[comp] + std * rng.standard_normal(2)
        if x[1] < -0.4 and np.all(np.abs(x) <= box):
            train.append(x)
    X = np.stack(train)
    labels = problem.y_true(X)
    problem.training_set = [LabelledExample(x, int(c)) for x, c in zip(X, labels)]
    return problem


def build_demo_model(problem, extra_inputs, num_hypotheses=256, seed=0):
    """Finite-hypothesis model over random logistic functions of 16 radial
    basis features (lengthscale 3), with its grid covering the training
    inputs plus whatever inputs will be scored."""
    num_rbf, lengthscale = 16, 3.0
    train_X = dataset_arrays(problem.training_set)[0]
    grid = np.vstack([train_X, np.atleast_2d(extra_inputs)])
    rng = rng_from(seed, 7)
    centers = rng.uniform(-problem.box, problem.box, size=(num_rbf, 2))
    weights = rng.normal(0.0, 4.0 / np.sqrt(num_rbf), size=(num_hypotheses, num_rbf))
    biases = rng.normal(0.0, 1.0, size=num_hypotheses)
    sq = ((grid[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    feats = np.exp(-sq / (2.0 * lengthscale ** 2))  # (G, R)
    # the (J, G, 2) tables, written 16 hypotheses at a time: whole (G, J)
    # logits and probabilities would hold as much again as the tables. Each
    # chunk writes only its own rows, so the tables have the same bits
    # whichever thread of runner.share writes a chunk.
    tables = np.empty((num_hypotheses, len(grid), 2))

    def write_chunk(j):
        logits = feats @ weights[j:j + 16].T + biases[j:j + 16]  # (G, 16)
        p1 = 1.0 / (1.0 + np.exp(-logits))
        tables[j:j + 16, :, 0] = 1.0 - p1.T
        tables[j:j + 16, :, 1] = p1.T

    share([partial(write_chunk, j) for j in range(0, num_hypotheses, 16)])
    model = FiniteHypothesisModel(grid, tables)
    model.fit(problem.training_set)
    return model


@dataclass
class ScoreGrid:
    values: np.ndarray  # (resolution, resolution); [i, j] is cell (x_j, y_i)
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    resolution: int
    objective: str
    label_mode: str

    def cell_centers(self):
        return cell_centers(self.xmin, self.xmax, self.ymin, self.ymax, self.resolution)


def cell_axis(lo, hi, resolution):
    """Cell-center coordinates of a uniform subdivision of [lo, hi]."""
    edges = np.linspace(lo, hi, resolution + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def cell_centers(xmin, xmax, ymin, ymax, resolution):
    """(x, y) centre of every cell of a resolution x resolution grid over
    [xmin, xmax] x [ymin, ymax]; row k is cell (x_j, y_i) with k = i *
    resolution + j."""
    gx, gy = np.meshgrid(cell_axis(xmin, xmax, resolution),
                         cell_axis(ymin, ymax, resolution))
    return np.column_stack([gx.ravel(), gy.ravel()])


def render_heatmaps(model, problem, targets, resolution=64, outdir=None):
    """Score every grid cell under each panel's objective and emit files.

    Returns the list of ScoreGrids; when ``outdir`` is given, each grid is
    also written as ``<objective>_<label_mode>.csv`` and ``.svg``. Cells with
    degenerate evidence are masked (NaN in CSV, hatched in SVG).
    """
    box = problem.box
    cells = cell_centers(-box, box, -box, box, resolution)
    y_true = problem.y_true(cells)
    y_flip = 1 - y_true

    grids = []
    for objective, label_mode in DEMO_PANELS:
        labels = {"none": None, "true": y_true, "flip": y_flip}[label_mode]
        if objective == "epig":
            values = epig_scores(model, cells, targets)
        elif objective == "la_epig":
            values = la_epig_scores(model, cells, labels, targets)
        else:
            values = mic_scores(model, cells, labels, eta=1.0)
        grid = ScoreGrid(
            values.reshape(resolution, resolution), -box, box, -box, box,
            resolution, objective, label_mode,
        )
        grids.append(grid)
        if outdir is not None:
            stem = Path(outdir) / f"{objective}_{label_mode}"
            write_grid_csv(grid, stem.with_suffix(".csv"))
            title = f"{objective} ({label_mode})" if label_mode != "none" else objective
            svg = heatmap_svg(grid.values, title=title, cell_px=max(2, 512 // resolution))
            stem.with_suffix(".svg").write_text(svg, encoding="utf-8")
    return grids


def write_grid_csv(grid, path):
    """Header '# xmin xmax ymin ymax resolution objective label_mode', then
    resolution rows (row i holds y_i, increasing) of comma-separated values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# {float(grid.xmin)!r} {float(grid.xmax)!r} "
            f"{float(grid.ymin)!r} {float(grid.ymax)!r} "
            f"{grid.resolution} {grid.objective} {grid.label_mode}\n"
        )
        for row in np.asarray(grid.values, dtype=float).tolist():
            fh.write(",".join(repr(v) if math.isfinite(v) else "NaN" for v in row))
            fh.write("\n")


def read_grid_csv(path):
    """The :class:`ScoreGrid` that :func:`write_grid_csv` wrote to ``path``.

    A bad header, a row of the wrong width or a cell that is no number
    raises :class:`DataFormatError` naming its row (0 is the header) and,
    for a cell, its column.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise DataFormatError(f"missing grid header in {path}")
        parts = header[2:].split()
        if len(parts) != 7:
            raise DataFormatError(f"malformed grid header in {path}")
        try:
            xmin, xmax, ymin, ymax = (float(p) for p in parts[:4])
            resolution = int(parts[4])
        except ValueError as exc:
            raise DataFormatError(f"malformed grid header in {path} ({exc})", row=0) from None
        rows = []
        for row_num, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != resolution:
                raise DataFormatError(
                    f"expected {resolution} values, found {len(cells)}", row=row_num
                )
            rows.append([_grid_cell(v, row_num, col) for col, v in enumerate(cells)])
    values = np.asarray(rows, dtype=float)
    if values.shape != (resolution, resolution):
        raise DataFormatError(
            f"grid body {values.shape} does not match resolution {resolution}"
        )
    return ScoreGrid(values, xmin, xmax, ymin, ymax, resolution, parts[5], parts[6])


def _grid_cell(field, row, column):
    try:
        return float(field)
    except ValueError:
        raise DataFormatError(
            f"grid value {field!r} is not a number", row=row, column=column
        ) from None


def distance_to_training(problem, X):
    """Distance from each input to its nearest training point."""
    train_X = dataset_arrays(problem.training_set)[0]
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.linalg.norm(X[:, None, :] - train_X[None, :, :], axis=2).min(axis=1)


def far_near_means(grid, problem, radius=2.0):
    """Mean grid value over cells farther than ``radius`` from every training
    point, and over the remaining (near) cells."""
    d = distance_to_training(problem, grid.cell_centers())
    values = grid.values.ravel()
    finite = np.isfinite(values)
    far = finite & (d > radius)
    near = finite & ~ (d > radius)
    return float(values[far].mean()), float(values[near].mean())


def run_demo(resolution=64, num_targets=256, num_hypotheses=256, seed=0,
             outdir="demo_output"):
    """End-to-end demo: problem, model, five heatmap panels, ten files."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    problem = two_bells_problem(seed=seed)
    targets = TargetSet(problem.sample_targets(num_targets, seed=derive_seed(seed, 1)))
    box = problem.box
    cells = cell_centers(-box, box, -box, box, resolution)
    extra = np.vstack([targets.inputs, cells])
    model = build_demo_model(problem, extra, num_hypotheses=num_hypotheses, seed=seed)
    grids = render_heatmaps(model, problem, targets, resolution=resolution,
                            outdir=outdir)
    files = sorted(str(p) for p in outdir.iterdir())
    return {"problem": problem, "model": model, "grids": grids, "files": files}
