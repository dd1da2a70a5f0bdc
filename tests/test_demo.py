"""Two-bells heatmap demo: grid semantics and directional behaviour."""

import re
import xml.etree.ElementTree as ET
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
from streamsift.svgrender import heatmap_svg, learning_curve_svg


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


# --- the per-cell writers the vectorised ones replaced, kept as oracles --------


def _old_gray_hex(level):
    v = int(level)
    return f"#{v:02x}{v:02x}{v:02x}"


def old_heatmap_svg(values, title="", cell_px=8):
    grid = np.asarray(values, dtype=float)
    rows, cols = grid.shape
    finite = np.isfinite(grid)
    if finite.any():
        vmin = float(grid[finite].min())
        vmax = float(grid[finite].max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin

    margin = 40
    width = margin * 2 + cols * cell_px + 70
    height = margin * 2 + rows * cell_px
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<defs><pattern id=\"hatch\" width=\"4\" height=\"4\" "
        "patternUnits=\"userSpaceOnUse\" patternTransform=\"rotate(45)\">"
        "<rect width=\"4\" height=\"4\" fill=\"#ffffff\"/>"
        "<line x1=\"0\" y1=\"0\" x2=\"0\" y2=\"4\" stroke=\"#cc0000\" stroke-width=\"1.5\"/>"
        "</pattern></defs>",
        f'<text x="{margin}" y="{margin - 12}" font-family="monospace" '
        f'font-size="12">{title}</text>',
    ]
    for i in range(rows):
        for j in range(cols):
            x = margin + j * cell_px
            y = margin + (rows - 1 - i) * cell_px
            v = grid[i, j]
            if not np.isfinite(v):
                fill = "url(#hatch)"
            else:
                norm = (v - vmin) / span if span > 0 else 0.0
                fill = _old_gray_hex(round(255 * (1.0 - norm)))
            parts.append(
                f'<rect data-row="{i}" data-col="{j}" x="{x}" y="{y}" '
                f'width="{cell_px}" height="{cell_px}" fill="{fill}"/>'
            )
    bar_x = margin + cols * cell_px + 16
    bar_h = rows * cell_px
    steps = 32
    for s in range(steps):
        frac = 1.0 - (s + 0.5) / steps
        fill = _old_gray_hex(round(255 * (1.0 - frac)))
        y = margin + s * bar_h / steps
        parts.append(
            f'<rect x="{bar_x}" y="{y:.2f}" width="14" height="{bar_h / steps + 0.5:.2f}" '
            f'fill="{fill}"/>'
        )
    parts.append(
        f'<text x="{bar_x + 18}" y="{margin + 10}" font-family="monospace" '
        f'font-size="10">{vmax:.4g}</text>'
    )
    parts.append(
        f'<text x="{bar_x + 18}" y="{margin + bar_h}" font-family="monospace" '
        f'font-size="10">{vmin:.4g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def old_write_grid_csv(grid, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# {float(grid.xmin)!r} {float(grid.xmax)!r} "
            f"{float(grid.ymin)!r} {float(grid.ymax)!r} "
            f"{grid.resolution} {grid.objective} {grid.label_mode}\n"
        )
        for row in grid.values:
            fh.write(
                ",".join("NaN" if not np.isfinite(v) else repr(float(v)) for v in row)
            )
            fh.write("\n")


def writer_grids():
    """Grids with non-finite cells, no span, one cell, and gray levels that
    land exactly on .5 (255 * 0.9 = 229.5, 178.5 and 127.5: round half to
    even goes up for the first and the last, down for the middle one)."""
    rng = np.random.default_rng(6)
    mixed = rng.normal(size=(7, 5))
    mixed[0, 0], mixed[2, 3], mixed[6, 4] = np.nan, np.inf, -np.inf
    halves = np.array([[0.0, 0.1, 0.3], [0.5, 1.0, 0.7]])
    assert sorted(np.modf(255 * (1.0 - halves[halves != 0.7]))[0]) == [0, 0, 0.5, 0.5, 0.5]
    return {
        "mixed": mixed,
        "constant": np.full((3, 4), 2.5),
        "constant_with_nan": np.array([[2.5, np.nan], [2.5, 2.5]]),
        "all_nan": np.full((2, 3), np.nan),
        "one_cell": np.array([[0.25]]),
        "halves": halves,
        "tiny_span": np.array([[0.0, 5e-324], [1e-310, 0.0]]),
        "demo_like": rng.exponential(size=(16, 16)) * 1e-3,
    }


def svg_rects(svg):
    """The rect elements drawn at the top level: the cells and the colorbar."""
    return ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}rect")


class TestWriters:
    @pytest.mark.parametrize("name", list(writer_grids()))
    @pytest.mark.parametrize("cell_px", [1, 2, 8, 13])
    def test_svg_matches_per_cell_oracle(self, name, cell_px):
        values = writer_grids()[name]
        svg = heatmap_svg(values, title=name, cell_px=cell_px)
        assert svg == old_heatmap_svg(values, title=name, cell_px=cell_px)
        assert len(svg_rects(svg)) == values.size + 32

    @pytest.mark.parametrize("name", list(writer_grids()))
    def test_csv_matches_per_cell_oracle(self, name, tmp_path):
        values = writer_grids()[name]
        grid = ScoreGrid(values, -5.0, 5.0, -4.0, 4.0, len(values), "mic", "flip")
        write_grid_csv(grid, tmp_path / "new.csv")
        old_write_grid_csv(grid, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_levels_round_half_to_even(self):
        fills = {int(r.get("data-col")) + 3 * int(r.get("data-row")): r.get("fill")
                 for r in svg_rects(heatmap_svg(writer_grids()["halves"]))[:6]}
        # values 0.1, 0.3 and 0.5 give levels 229.5, 178.5 and 127.5
        assert [fills[1], fills[2], fills[3]] == ["#e6e6e6", "#b2b2b2", "#808080"]

    @pytest.mark.parametrize("values", [
        [[-1e308, 1e308], [0.0, 1.0]],
        [[-np.finfo(float).max, np.finfo(float).max, 5e-324]],
        [[np.finfo(float).max, np.nan], [-1e308, np.inf]],
    ])
    def test_overflowing_range_renders(self, values):
        """A finite range wider than the largest float: the levels are those
        of the grid at half scale; only the printed min and max differ."""
        values = np.array(values)
        svg = heatmap_svg(values, cell_px=4)
        assert len(svg_rects(svg)) == values.size + 32
        half = old_heatmap_svg(values / 2, cell_px=4)
        assert svg.splitlines()[:-3] == half.splitlines()[:-3]
        assert re.findall(r">(\S+)</text>", svg)[-2:] == [
            f"{np.nanmax(values[np.isfinite(values)]):.4g}",
            f"{np.nanmin(values[np.isfinite(values)]):.4g}"]


    @pytest.mark.parametrize("title", ["a < b & c", "x > y", "&amp;", "<b>bold</b>"])
    def test_titles_are_escaped(self, title):
        """A title or step label holding XML markup still gives a document
        that parses, with the text as given; plain titles keep their bytes."""
        for svg in (heatmap_svg([[1.0]], title=title),
                    learning_curve_svg([title, "1"], [0.5, 0.6], [0.1, 0.1], title=title)):
            texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
            assert title in texts
        assert texts.count(title) == 2  # the curve's title and its first step label
        assert heatmap_svg([[1.0]], title="la_epig (flip)") == old_heatmap_svg(
            [[1.0]], title="la_epig (flip)")


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
            i, j = np.unravel_index(np.nanargmax(grid.values), grid.values.shape)
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
