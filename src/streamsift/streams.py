"""Labelled data-stream generators and dataset ingestion.

Schedules are fully materialized: a stream is an ordered list of per-step
batches of examples, plus metadata describing which nonstationarity form it
realizes. All generators are deterministic given (dataset, seed).
"""

import csv
import math
import os
import struct

import numpy as np

from .errors import ConfigError, DataFormatError
from .models.base import LabelledExample
from .rng import rng_from

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class StreamSchedule:
    """Time-indexed batches of labelled examples."""

    def __init__(self, steps, kind, seed=None, classes_per_step=None):
        if any(len(batch) == 0 for batch in steps):
            raise ConfigError("every stream batch must be non-empty")
        self.steps = [list(batch) for batch in steps]
        self.kind = kind
        self.seed = seed
        self.classes_per_step = classes_per_step

    @property
    def num_steps(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def _labels_of(dataset):
    return np.array([ex.label for ex in dataset], dtype=int)


def split_stream(dataset, num_steps, seed=None, examples_per_step=None):
    """Marginal-label-shift stream: two previously unseen classes per step.

    The dataset's class count must equal 2 * num_steps. With a seed, the
    class-to-step pairing is shuffled; without one, classes arrive in
    natural order ((0,1), (2,3), ...). ``examples_per_step`` optionally
    subsamples each batch (seeded, without replacement).
    """
    labels = _labels_of(dataset)
    classes = np.unique(labels)
    if len(classes) != 2 * num_steps:
        raise ConfigError(
            f"split stream needs exactly 2*T={2 * num_steps} classes, "
            f"found {len(classes)}"
        )
    rng = None
    if seed is not None or examples_per_step is not None:
        rng = rng_from(seed if seed is not None else 0)
    order = classes.copy()
    if seed is not None:
        order = rng.permutation(order)
    steps = []
    pairs = []
    for t in range(num_steps):
        pair = sorted(int(c) for c in order[2 * t: 2 * t + 2])
        pairs.append(pair)
        idx = np.flatnonzero(np.isin(labels, pair))
        if examples_per_step is not None and examples_per_step < len(idx):
            idx = np.sort(rng.choice(idx, size=examples_per_step, replace=False))
        if rng is not None:
            # a stream delivers examples in arrival order, not sorted by class
            idx = rng.permutation(idx)
        steps.append([dataset[i] for i in idx])
    return StreamSchedule(steps, kind="split", seed=seed, classes_per_step=pairs)


def permuted_stream(dataset, num_steps, seed=0):
    """Conditional-input-shift stream: step t applies a fixed feature
    permutation pi_t to every example; pi_0 is the identity."""
    if len(dataset) == 0:
        raise ConfigError("dataset is empty")
    dim = dataset[0].features.shape[0]
    rng = rng_from(seed)
    steps = []
    classes = sorted(set(int(ex.label) for ex in dataset))
    for t in range(num_steps):
        perm = np.arange(dim) if t == 0 else rng.permutation(dim)
        steps.append(
            [LabelledExample(ex.features[perm], ex.label) for ex in dataset]
        )
    return StreamSchedule(
        steps, kind="permuted", seed=seed, classes_per_step=[classes] * num_steps
    )


def stationary_stream(dataset, num_steps, seed=0):
    """Seeded uniform partition of the dataset into num_steps batches."""
    n = len(dataset)
    if n < num_steps:
        raise ConfigError(f"cannot split {n} examples into {num_steps} non-empty batches")
    rng = rng_from(seed)
    perm = rng.permutation(n)
    chunks = np.array_split(perm, num_steps)
    steps = [[dataset[i] for i in chunk] for chunk in chunks]
    classes = sorted(set(int(ex.label) for ex in dataset))
    return StreamSchedule(
        steps, kind="stationary", seed=seed, classes_per_step=[classes] * num_steps
    )


# --- ingestion ---------------------------------------------------------------


def _read_csv(path, label_column=None, header=False):
    """Yield ``(label, features)`` for each data row of a CSV file as it reads it.

    Empty rows (and the first row, with ``header``) are skipped. Every row
    must have the first data row's width. The label column (none when
    ``label_column`` is None) must hold a non-negative integer and every
    other cell a finite float. A failure names its row and, for a bad cell,
    its column.
    """
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        for row_num, row in enumerate(csv.reader(fh)):
            if not row or (header and row_num == 0):
                continue
            if width is None:
                width = len(row)
                if label_column is not None and not -width <= label_column < width:
                    raise DataFormatError(
                        f"label column {label_column} out of range for width {width}"
                    )
                lab = None if label_column is None else label_column % width
                cols = [c for c in range(width) if c != lab]
            elif len(row) != width:
                raise DataFormatError(
                    f"expected {width} columns, found {len(row)}", row=row_num
                )
            try:
                label = None if lab is None else int(row[lab])
            except ValueError:
                raise DataFormatError(
                    f"label {row[lab]!r} is not an integer", row=row_num, column=lab
                ) from None
            if label is not None and label < 0:
                raise DataFormatError(f"label {label} is negative", row=row_num, column=lab)
            yield label, _features(row if lab is None else row[:lab] + row[lab + 1:],
                                   row_num, cols)
    if width is None:
        raise DataFormatError(f"no data rows in {path}")


def _features(fields, row, cols):
    """The feature fields of a row (from columns ``cols``) as floats, in one
    conversion: numpy parses each string with ``float()``, as ``_feature``
    does, which names the first bad cell when a field is no finite number."""
    try:
        values = np.array(fields, dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_feature(f, row, c) for f, c in zip(fields, cols)])


def _feature(field, row, column):
    try:
        value = float(field)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataFormatError(
            f"feature {field!r} is not a finite number", row=row, column=column
        )
    return value


def load_csv(path, label_column, header=False):
    """Read labelled examples from a comma-separated file, in row order (see
    :func:`_read_csv` for the format rules)."""
    return [LabelledExample(feats, label)
            for label, feats in _read_csv(path, label_column, header)]


def save_csv(dataset, path):
    """Write examples as CSV with the label in the last column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for ex in dataset:
            writer.writerow([repr(v) for v in ex.features.tolist()] + [str(ex.label)])


def load_features_csv(path):
    """Read an unlabelled feature matrix from CSV, one input per row (see
    :func:`_read_csv` for the format rules)."""
    return np.stack([feats for _, feats in _read_csv(path)])


def _read_be32(fh, path, what):
    data = fh.read(4)
    if len(data) != 4:
        raise DataFormatError(f"truncated {what} in {path}")
    return struct.unpack(">I", data)[0]


def load_idx(images_path, labels_path):
    """Read an MNIST-style IDX image/label file pair.

    Pixels are scaled to [0, 1] and flattened row-major. Bad magic numbers,
    truncation and image/label count mismatches raise distinct messages.
    """
    with open(images_path, "rb") as fh:
        magic = _read_be32(fh, images_path, "header")
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"bad image magic 0x{magic:08x} in {images_path}, "
                f"expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        count = _read_be32(fh, images_path, "header")
        rows = _read_be32(fh, images_path, "header")
        cols = _read_be32(fh, images_path, "header")
        payload = fh.read(min(count * rows * cols, os.fstat(fh.fileno()).st_size))
        if len(payload) != count * rows * cols:
            raise DataFormatError(
                f"truncated pixel data in {images_path}: expected "
                f"{count * rows * cols} bytes, got {len(payload)}"
            )
        if rows * cols > np.iinfo(np.intp).max:  # only possible with no images
            raise DataFormatError(f"image size {rows}x{cols} in {images_path} is too large")
        pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)

    with open(labels_path, "rb") as fh:
        magic = _read_be32(fh, labels_path, "header")
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"bad label magic 0x{magic:08x} in {labels_path}, "
                f"expected 0x{IDX_LABEL_MAGIC:08x}"
            )
        label_count = _read_be32(fh, labels_path, "header")
        payload = fh.read(min(label_count, os.fstat(fh.fileno()).st_size))
        if len(payload) != label_count:
            raise DataFormatError(f"truncated label data in {labels_path}")
        labels = np.frombuffer(payload, dtype=np.uint8)

    if count != label_count:
        raise DataFormatError(
            f"image/label count mismatch: {count} images vs {label_count} labels"
        )
    feats = pixels.astype(float) / 255.0
    return [LabelledExample(f, int(lab)) for f, lab in zip(feats, labels)]


def synth_blobs(num_classes, per_class, dim=2, spread=1.0, seed=0, box=5.0):
    """Isotropic Gaussian clusters, one per class, at seeded uniform means."""
    if num_classes < 2:
        raise ConfigError("need at least 2 classes")
    rng = rng_from(seed)
    means = rng.uniform(-box, box, size=(num_classes, dim))
    examples = []
    for c in range(num_classes):
        pts = means[c] + spread * rng.standard_normal(size=(per_class, dim))
        examples.extend(LabelledExample(p, c) for p in pts)
    return examples
