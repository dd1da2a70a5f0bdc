"""Stream generators and file ingestion."""

import struct

import numpy as np
import pytest

from streamsift import (
    ConfigError,
    DataFormatError,
    LabelledExample,
    load_csv,
    load_idx,
    permuted_stream,
    save_csv,
    split_stream,
    stationary_stream,
    synth_blobs,
)
from streamsift.streams import load_features_csv


def toy_dataset(num_classes=10, per_class=6, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for c in range(num_classes):
        for _ in range(per_class):
            data.append(LabelledExample(rng.normal(size=dim), c))
    return data


class TestSplitStream:
    def test_identity_pairing_without_seed(self):
        sched = split_stream(toy_dataset(), 5)
        assert sched.classes_per_step[0] == [0, 1]
        assert sched.classes_per_step[4] == [8, 9]

    def test_single_step_holds_everything(self):
        data = toy_dataset(num_classes=2)
        sched = split_stream(data, 1)
        assert len(sched.steps) == 1
        assert len(sched.steps[0]) == len(data)

    def test_seeded_determinism(self):
        data = toy_dataset()
        a = split_stream(data, 5, seed=9)
        b = split_stream(data, 5, seed=9)
        assert a.classes_per_step == b.classes_per_step
        for ba, bb in zip(a.steps, b.steps):
            assert all(x == y for x, y in zip(ba, bb))

    def test_class_count_mismatch(self):
        with pytest.raises(ConfigError):
            split_stream(toy_dataset(num_classes=9), 5)

    def test_batches_partition_label_set(self):
        sched = split_stream(toy_dataset(), 5, seed=3)
        seen = []
        for batch, pair in zip(sched.steps, sched.classes_per_step):
            labels = {e.label for e in batch}
            assert labels == set(pair)
            seen.extend(pair)
        assert sorted(seen) == list(range(10))

    def test_examples_per_step_subsamples(self):
        sched = split_stream(toy_dataset(), 5, seed=1, examples_per_step=4)
        assert all(len(b) == 4 for b in sched.steps)


class TestPermutedStream:
    def test_first_step_identity(self):
        data = toy_dataset(num_classes=2, per_class=3)
        sched = permuted_stream(data, 3, seed=5)
        for orig, got in zip(data, sched.steps[0]):
            assert np.array_equal(orig.features, got.features)

    def test_permutation_semantics(self):
        data = [LabelledExample([1.0, 2.0, 3.0], 0), LabelledExample([4.0, 5.0, 6.0], 1)]
        sched = permuted_stream(data, 4, seed=0)
        for batch in sched.steps[1:]:
            perm = [list(batch[0].features).index(v) for v in data[0].features]
            # the same permutation must map every example in the batch
            for orig, got in zip(data, batch):
                assert np.array_equal(got.features[perm], orig.features)

    def test_label_marginals_identical_across_steps(self):
        data = toy_dataset(num_classes=4, per_class=5)
        sched = permuted_stream(data, 6, seed=2)
        ref = np.bincount([e.label for e in sched.steps[0]], minlength=4)
        for batch in sched.steps:
            assert np.array_equal(np.bincount([e.label for e in batch], minlength=4), ref)


class TestStationaryStream:
    def test_singleton_batches(self):
        data = toy_dataset(num_classes=2, per_class=3)
        sched = stationary_stream(data, len(data), seed=0)
        assert all(len(b) == 1 for b in sched.steps)

    def test_seeded_determinism(self):
        data = toy_dataset()
        a = stationary_stream(data, 4, seed=7)
        b = stationary_stream(data, 4, seed=7)
        for ba, bb in zip(a.steps, b.steps):
            assert all(x == y for x, y in zip(ba, bb))

    def test_partition_is_exact(self):
        data = toy_dataset(num_classes=3, per_class=7)
        sched = stationary_stream(data, 4, seed=1)
        flat = [e for b in sched.steps for e in b]
        assert len(flat) == len(data)

    def test_class_frequencies_multinomial(self):
        """Per-batch class frequencies stay within 3 sigma of the dataset's,
        at the ~0.3% violation rate a true multinomial would produce."""
        data = toy_dataset(num_classes=3, per_class=40, dim=2)
        p = np.bincount([e.label for e in data]) / len(data)
        checks, violations = 0, 0
        for seed in range(100):
            sched = stationary_stream(data, 4, seed=seed)
            for batch in sched.steps:
                n = len(batch)
                counts = np.bincount([e.label for e in batch], minlength=3)
                sigma = np.sqrt(n * p * (1 - p))
                violations += int(np.any(np.abs(counts - n * p) > 3 * sigma))
                checks += 1
        assert violations / checks < 0.02


class TestCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.1,0.2,1\n0.3,0.4,0\n")
        data = load_csv(path, 2)
        assert [e.label for e in data] == [1, 0]
        assert np.allclose(data[0].features, [0.1, 0.2])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_csv(path, 0)

    def test_round_trip(self, tmp_path):
        data = toy_dataset(num_classes=3, per_class=4, dim=5)
        path = tmp_path / "rt.csv"
        save_csv(data, path)
        back = load_csv(path, -1)
        assert len(back) == len(data)
        for a, b in zip(data, back):
            assert a.label == b.label
            assert np.allclose(a.features, b.features, atol=0)

    def test_bad_label_column(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("0.1,0.2,x\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(path, 2)
        assert "row 0" in str(err.value)

    def test_negative_label_names_location(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("0.1,0.2,1\n0.3,0.4,-1\n")
        with pytest.raises(DataFormatError, match=r"label -1 is negative \(row 1, column 2\)"):
            load_csv(path, 2)

    def test_non_numeric_feature_names_location(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("0.1,0.2,1\n0.1,oops,0\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(path, 2)
        assert "row 1" in str(err.value) and "column 1" in str(err.value)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0.1,0.2,1\n0.3,0\n")
        with pytest.raises(DataFormatError):
            load_csv(path, 2)

    def test_header_flag(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,label\n0.5,0.25,1\n")
        data = load_csv(path, 2, header=True)
        assert len(data) == 1 and data[0].label == 1

    def test_features_csv(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0.0,1.0\n2.0,3.0\n")
        X = load_features_csv(path)
        assert X.shape == (2, 2)


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x00000803,
                   label_magic=0x00000801, truncate_images=0, label_count=None):
    pixels = np.asarray(pixels, dtype=np.uint8)
    count, rows, cols = pixels.shape
    ipath = tmp_path / "images.idx"
    body = struct.pack(">IIII", image_magic, count, rows, cols) + pixels.tobytes()
    if truncate_images:
        body = body[:-truncate_images]
    ipath.write_bytes(body)
    lpath = tmp_path / "labels.idx"
    lab = np.asarray(labels, dtype=np.uint8)
    lpath.write_bytes(
        struct.pack(">II", label_magic, label_count if label_count is not None else len(lab))
        + lab.tobytes()
    )
    return ipath, lpath


class TestIdx:
    def test_minimal_image(self, tmp_path):
        ipath, lpath = write_idx_pair(
            tmp_path, [[[0, 255], [128, 64]]], [7]
        )
        data = load_idx(ipath, lpath)
        assert len(data) == 1
        assert data[0].label == 7
        assert np.allclose(
            data[0].features, [0.0, 1.0, 0.5019607843137255, 0.25098039215686274]
        )

    def test_count_mismatch(self, tmp_path):
        ipath, lpath = write_idx_pair(tmp_path, [[[0, 0], [0, 0]]], [1, 2])
        with pytest.raises(DataFormatError) as err:
            load_idx(ipath, lpath)
        assert "mismatch" in str(err.value)

    def test_bad_image_magic(self, tmp_path):
        ipath, lpath = write_idx_pair(
            tmp_path, [[[0, 0], [0, 0]]], [1], image_magic=0x00000802
        )
        with pytest.raises(DataFormatError) as err:
            load_idx(ipath, lpath)
        assert "magic" in str(err.value)

    def test_bad_label_magic(self, tmp_path):
        ipath, lpath = write_idx_pair(
            tmp_path, [[[0, 0], [0, 0]]], [1], label_magic=0x00000999
        )
        with pytest.raises(DataFormatError) as err:
            load_idx(ipath, lpath)
        assert "label magic" in str(err.value)

    def test_truncated_pixels(self, tmp_path):
        ipath, lpath = write_idx_pair(
            tmp_path, [[[0, 0], [0, 0]]], [1], truncate_images=2
        )
        with pytest.raises(DataFormatError) as err:
            load_idx(ipath, lpath)
        assert "truncated" in str(err.value)

    @pytest.mark.parametrize("part,header,message", [
        ("images", (0x803, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF), "truncated pixel data in"),
        ("labels", (0x801, 0xFFFFFFFF), "truncated label data in"),
    ])
    def test_header_sizes_beyond_the_file(self, tmp_path, part, header, message):
        # the sizes the header declares are bounded by the file's own size
        paths = dict(zip(("images", "labels"), write_idx_pair(tmp_path, [[[0, 0]]], [1])))
        paths[part].write_bytes(struct.pack(f">{len(header)}I", *header) + b"\x00")
        with pytest.raises(DataFormatError, match=message):
            load_idx(paths["images"], paths["labels"])

    def test_canonical_mnist_if_present(self):
        import os

        images = os.environ.get("STREAMSIFT_MNIST_IMAGES")
        labels = os.environ.get("STREAMSIFT_MNIST_LABELS")
        if not images or not labels:
            pytest.skip("canonical MNIST test files not available")
        data = load_idx(images, labels)
        assert len(data) == 10000
        hist = np.bincount([e.label for e in data], minlength=10)
        assert hist.tolist() == [980, 1135, 1032, 1010, 982, 892, 958, 1028, 974, 1009]


class TestSynthBlobs:
    def test_zero_spread_collapses_to_means(self):
        data = synth_blobs(3, 5, dim=2, spread=0.0, seed=1)
        for c in range(3):
            pts = np.stack([e.features for e in data if e.label == c])
            assert np.allclose(pts, pts[0])

    def test_per_class_one(self):
        data = synth_blobs(4, 1, dim=2, seed=0)
        assert len(data) == 4

    def test_forest_separates_tight_blobs(self):
        from streamsift import BootstrapForest

        data = synth_blobs(3, 40, dim=2, spread=0.15, seed=2)
        m = BootstrapForest(3, num_trees=20, max_depth=3, seed=0).fit(data)
        X = np.stack([e.features for e in data])
        y = np.array([e.label for e in data])
        acc = (m.marginal_predict_batch(X).argmax(axis=1) == y).mean()
        assert acc > 0.95

    def test_deterministic(self):
        a = synth_blobs(3, 4, dim=2, seed=9)
        b = synth_blobs(3, 4, dim=2, seed=9)
        assert all(x == y for x, y in zip(a, b))
