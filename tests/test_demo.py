"""Two-bells heatmap demo: grid semantics and directional behaviour."""

from pathlib import Path

import numpy as np
import pytest

from streamsift import TargetSet
from streamsift.acquisition import epig_scores
from streamsift.demo import (
    ScoreGrid,
    build_demo_model,
    cell_axis,
    far_near_means,
    read_grid_csv,
    render_heatmaps,
    run_demo,
    two_bells_problem,
    write_grid_csv,
)


@pytest.fixture(scope="module")
def small_demo(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("demo")
    return run_demo(resolution=24, num_targets=96, num_hypotheses=128,
                    seed=0, outdir=outdir)


class TestTwoBellsProblem:
    def test_bell_centers_get_their_class(self):
        p = two_bells_problem(seed=0)
        assert p.y_true(p.means[0][None, :])[0] == 0
        assert p.y_true(p.means[1][None, :])[0] == 1

    def test_flip_is_complement(self):
        p = two_bells_problem(seed=0)
        X = p.sample_targets(50, seed=1)
        assert np.array_equal(p.y_flip(X), 1 - p.y_true(X))

    def test_target_sampler_seeded(self):
        p = two_bells_problem(seed=0)
        assert np.array_equal(p.sample_targets(10, seed=5), p.sample_targets(10, seed=5))

    def test_training_set_in_subregion(self):
        p = two_bells_problem(seed=2, num_train=30)
        X = np.stack([e.features for e in p.training_set])
        assert len(p.training_set) == 30
        assert np.all(X[:, 1] < -0.4)


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        values = np.array([[1.0, float("nan")], [3.5, -0.25]])
        grid = ScoreGrid(values, -5.0, 5.0, -5.0, 5.0, 2, "epig", "none")
        path = tmp_path / "g.csv"
        write_grid_csv(grid, path)
        text = path.read_text()
        assert text.startswith("# -5.0 5.0 -5.0 5.0 2 epig none\n")
        assert "NaN" in text
        back = read_grid_csv(path)
        assert back.objective == "epig" and back.label_mode == "none"
        assert np.isnan(back.values[0, 1])
        assert back.values[1, 0] == 3.5

    def test_cell_axis_covers_box_exactly(self):
        xs = cell_axis(-5.0, 5.0, 4)
        assert np.allclose(xs, [-3.75, -1.25, 1.25, 3.75])


class TestRenderHeatmaps:
    def test_resolution_one_is_point_evaluation(self):
        p = two_bells_problem(seed=1)
        targets = TargetSet(p.sample_targets(32, seed=2))
        center = np.array([[0.0, 0.0]])
        model = build_demo_model(p, np.vstack([targets.inputs, center]),
                                 num_hypotheses=64, seed=1)
        grids = render_heatmaps(model, p, targets, resolution=1)
        epig_grid = next(g for g in grids if g.objective == "epig")
        assert epig_grid.values.shape == (1, 1)
        direct = epig_scores(model, center, targets)[0]
        assert epig_grid.values[0, 0] == pytest.approx(direct, abs=1e-12)

    def test_five_panels_ten_files(self, small_demo):
        assert len(small_demo["grids"]) == 5
        assert len(small_demo["files"]) == 10
        names = {f.rsplit("/", 1)[-1] for f in small_demo["files"]}
        assert "epig_none.csv" in names and "mic_flip.svg" in names

    def test_epig_label_free_and_nonnegative(self, small_demo):
        grids = {(g.objective, g.label_mode) for g in small_demo["grids"]}
        assert ("epig", "none") in grids
        epig_grid = next(g for g in small_demo["grids"] if g.objective == "epig")
        finite = epig_grid.values[np.isfinite(epig_grid.values)]
        assert np.all(finite >= 0.0)

    def test_la_epig_true_beats_flipped_on_grid_mean(self, small_demo):
        g = {(x.objective, x.label_mode): x for x in small_demo["grids"]}
        true_mean = np.nanmean(g[("la_epig", "true")].values)
        flip_mean = np.nanmean(g[("la_epig", "flip")].values)
        assert true_mean > flip_mean

    def test_mic_true_prioritises_far_region(self, small_demo):
        g = {(x.objective, x.label_mode): x for x in small_demo["grids"]}
        far, near = far_near_means(g[("mic", "true")], small_demo["problem"],
                                   radius=2.0)
        assert far > near

    def test_flipped_la_epig_negative_cell_expected(self, small_demo):
        """Expected observation per the demo's design; warn if absent."""
        g = {(x.objective, x.label_mode): x for x in small_demo["grids"]}
        flip = g[("la_epig", "flip")].values
        if not np.nanmin(flip) < 0:
            import warnings

            warnings.warn("flipped-label LA-EPIG grid has no negative cell")

    def test_csv_argmax_matches_svg_darkest(self, small_demo):
        import re

        for csv_file in [f for f in small_demo["files"] if f.endswith(".csv")]:
            grid = read_grid_csv(csv_file)
            i, j = grid.argmax_cell()
            svg_text = Path(csv_file[:-4] + ".svg").read_text(encoding="utf-8")
            fills = {}
            for m in re.finditer(
                r'<rect data-row="(\d+)" data-col="(\d+)"[^>]*fill="#([0-9a-f]{6})"',
                svg_text,
            ):
                fills[(int(m.group(1)), int(m.group(2)))] = int(m.group(3)[:2], 16)
            darkest = min(fills.values())
            assert fills[(i, j)] == darkest

    def test_rerun_byte_identical(self, tmp_path):
        a = run_demo(resolution=6, num_targets=16, num_hypotheses=32, seed=3,
                     outdir=tmp_path / "a")
        b = run_demo(resolution=6, num_targets=16, num_hypotheses=32, seed=3,
                     outdir=tmp_path / "b")
        for fa, fb in zip(a["files"], b["files"]):
            assert Path(fa).read_bytes() == Path(fb).read_bytes()
