"""Static SVG line panels for experiment tables, no rendering dependency.

One panel per measure: x is the swept variance, y the measure value, one
polyline per dimension, so a measure may have only one row at each
(dim, variance_a): a variance sweep's table plots, a distribution grid's
does not. Output is standalone SVG 1.1, small enough to diff and to
validate as plain XML in tests.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from .errors import SchemaError
from .experiments import ExperimentTable

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 70
MARGIN_RIGHT = 150
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

PALETTE = ("#1b6ca8", "#d1495b", "#2e933c", "#8d5a97", "#e09f3e", "#335c67")

N_TICKS = 5


def _span(values):
    lo = min(values)
    hi = max(values)
    if lo == hi:
        # degenerate axis; open a symmetric window so the line stays visible
        pad = max(abs(lo) * 0.1, 0.5)
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render_panel(table: ExperimentTable, measure_name: str) -> str:
    """SVG document for one measure of the table."""
    rows = [r for r in table.rows if r.measure_name == measure_name]
    if not rows:
        raise SchemaError(f"table has no rows for measure {measure_name!r}")
    cells = {(r.dim, r.variance_a) for r in rows}
    if len(cells) < len(rows):
        raise SchemaError(
            f"measure {measure_name!r} has more than one row at one (dim, variance_a); "
            "a panel plots one value per dimension and variance"
        )
    dims = sorted({r.dim for r in rows})
    x_lo, x_hi = _span([r.variance_a for r in rows])
    y_lo, y_hi = _span([r.value for r in rows])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{MARGIN_LEFT}" y="24" font-family="sans-serif" font-size="16" '
        f'fill="#222">{escape(measure_name)}</text>',
    ]
    axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<g stroke="#444" stroke-width="1">'
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" y2="{axis_y}"/>'
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{axis_y}"/>'
        f'</g>'
    )
    for t in range(N_TICKS):
        frac = t / (N_TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = px(xv)
        yp = py(yv)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{axis_y}" x2="{xp:.2f}" y2="{axis_y + 5}" '
            f'stroke="#444"/>'
            f'<text x="{xp:.2f}" y="{axis_y + 20}" font-family="sans-serif" '
            f'font-size="11" fill="#333" text-anchor="middle">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{yp:.2f}" x2="{MARGIN_LEFT}" y2="{yp:.2f}" '
            f'stroke="#444"/>'
            f'<text x="{MARGIN_LEFT - 8}" y="{yp + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" fill="#333" text-anchor="end">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 12}" '
        f'font-family="sans-serif" font-size="12" fill="#333" '
        f'text-anchor="middle">variance of first set</text>'
    )
    for idx, dim in enumerate(dims):
        color = PALETTE[idx % len(PALETTE)]
        line_rows = sorted(
            (r for r in rows if r.dim == dim), key=lambda r: r.variance_a
        )
        points = " ".join(f"{px(r.variance_a):.2f},{py(r.value):.2f}" for r in line_rows)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = MARGIN_TOP + 16 + idx * 18
        lx = MARGIN_LEFT + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="12" '
            f'fill="#333">dim {dim}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def plot_table(table: ExperimentTable, out_stem: str) -> list:
    """Write one SVG per measure present in the table.

    Files are named `<out_stem>_<measure>.svg`; a trailing `.svg` on the
    stem is stripped first. Every panel is rendered before the first file
    is written, so a table that cannot be plotted leaves no file behind.
    Returns the written paths in measure order.
    """
    if not table.rows:
        raise SchemaError("cannot plot an empty table")
    stem = out_stem[:-4] if out_stem.endswith(".svg") else out_stem
    measures = dict.fromkeys(r.measure_name for r in table.rows)
    panels = {f"{stem}_{name}.svg": render_panel(table, name) for name in measures}
    for path, svg in panels.items():
        with open(path, "w") as fh:
            fh.write(svg)
            fh.write("\n")
    return list(panels)
