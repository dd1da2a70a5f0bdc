"""Minimal self-contained SVG emitters: grayscale heatmaps and learning
curves. No external assets, no plotting framework, byte-deterministic."""

import math

import numpy as np

#: fill of each gray level, 0 -> black and 255 -> white; index 256 is the
#: hatch of non-finite cells
_FILLS = [f"#{v:02x}{v:02x}{v:02x}" for v in range(256)] + ["url(#hatch)"]


def _text(value):
    """``value`` as XML character data: ``&``, ``<`` and ``>`` escaped."""
    return str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def heatmap_svg(values, title="", cell_px=8):
    """Render a 2-d array as a grayscale heatmap (darker = higher value).

    Values are min-max normalized per grid. Non-finite cells are drawn with
    a diagonal hatch pattern. A colorbar with the printed min/max sits to the
    right. Returns the SVG document as a string.
    """
    grid = np.asarray(values, dtype=float)
    rows, cols = grid.shape
    finite = np.isfinite(grid)
    if finite.any():
        vmin = float(grid[finite].min())
        vmax = float(grid[finite].max())
    else:
        vmin = vmax = 0.0
    lo, hi = vmin, vmax
    if not math.isfinite(hi - lo):  # the range overflows: halve it, exact for normal floats
        grid, lo, hi = grid / 2, lo / 2, hi / 2
    span = hi - lo
    # each cell's index into _FILLS; np.rint rounds half to even, as round() does
    norm = (grid - lo) / span if span > 0 else 0.0
    fill = np.where(finite, np.rint(255 * (1.0 - norm)), 256).astype(np.intp).tolist()

    margin = 40  # pixels
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
        f'font-size="12">{_text(title)}</text>',
    ]
    # row 0 of the grid is drawn at the bottom so the y-axis points up
    for i, row in enumerate(fill):
        y = margin + (rows - 1 - i) * cell_px
        for j, f in enumerate(row):
            parts.append(
                f'<rect data-row="{i}" data-col="{j}" x="{margin + j * cell_px}" y="{y}" '
                f'width="{cell_px}" height="{cell_px}" fill="{_FILLS[f]}"/>'
            )
    # colorbar: dark (max) on top
    bar_x = margin + cols * cell_px + 16
    bar_h = rows * cell_px
    steps = 32
    for s in range(steps):
        frac = 1.0 - (s + 0.5) / steps  # top of the bar = highest value
        y = margin + s * bar_h / steps
        parts.append(
            f'<rect x="{bar_x}" y="{y:.2f}" width="14" height="{bar_h / steps + 0.5:.2f}" '
            f'fill="{_FILLS[round(255 * (1.0 - frac))]}"/>'
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


def learning_curve_svg(step_labels, mean, stderr, title=""):
    """One mean accuracy curve with a +-stderr band over experiment steps."""
    width, height = 560, 360  # pixels
    mean = np.asarray(mean, dtype=float)
    stderr = np.asarray(stderr, dtype=float)
    ml, mr, mt, mb = 60, 20, 30, 46
    pw, ph = width - ml - mr, height - mt - mb
    lo = min(0.0, float((mean - stderr).min()))
    hi = max(1.0, float((mean + stderr).max()))

    def sx(i):
        if len(mean) == 1:
            return ml + pw / 2
        return ml + pw * i / (len(mean) - 1)

    def sy(v):
        return mt + ph * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{ml}" y="{mt - 10}" font-family="monospace" '
        f'font-size="13">{_text(title)}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    band = [(sx(i), sy(mean[i] + stderr[i])) for i in range(len(mean))]
    band += [(sx(i), sy(mean[i] - stderr[i])) for i in range(len(mean) - 1, -1, -1)]
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in band)
    parts.append(f'<polygon points="{pts}" fill="#b0c4de" fill-opacity="0.5"/>')
    line = " ".join(f"{sx(i):.2f},{sy(m):.2f}" for i, m in enumerate(mean))
    parts.append(
        f'<polyline points="{line}" fill="none" stroke="#1f3d7a" stroke-width="2"/>'
    )
    for i, m in enumerate(mean):
        parts.append(f'<circle cx="{sx(i):.2f}" cy="{sy(m):.2f}" r="3" fill="#1f3d7a"/>')
    for i, lab in enumerate(step_labels):
        parts.append(
            f'<text x="{sx(i):.2f}" y="{height - mb + 16}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{_text(lab)}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        parts.append(
            f'<text x="{ml - 6}" y="{sy(v):.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{v:.2f}</text>'
        )
    parts.append(
        f'<text x="{ml - 40}" y="{mt + ph / 2:.2f}" font-family="monospace" '
        f'font-size="11" transform="rotate(-90 {ml - 40} {mt + ph / 2:.2f})">accuracy</text>'
    )
    parts.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 8}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">step</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
