"""Self-contained static SVG line charts for sweep results.

No rendering library: the chart is assembled from a handful of SVG primitives
so the output is deterministic and free of external references.
"""
from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .config import SWEEPABLE_RATES, THRESHOLD_AXES
from .experiment import ResultRow

WIDTH, HEIGHT = 760, 460
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 230, 30, 55

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f")

X_AXES = SWEEPABLE_RATES + THRESHOLD_AXES


class NoData(ValueError):
    """The metric/axis filter selected no plottable rows."""


def _series_label(row: ResultRow, x_axis: str) -> str:
    """The row's policy, thresholds, metric and source; a threshold on the x
    axis is left out, so the points along it form one series."""
    label = row.policy
    extras = [f"{field}={getattr(row, field)}" for field in ("k", "m", "n")
              if field != x_axis and getattr(row, field) is not None]
    if extras:
        label += "(" + ",".join(extras) + ")"
    return f"{label} {row.metric} [{row.source}]"


def _ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(round(value, 10))
        value += step
    return ticks


def emit_plot(rows: Sequence[ResultRow], x_axis: str, metrics: Sequence[str],
              path: str) -> None:
    if x_axis not in X_AXES:
        raise ValueError(f"x_axis must be one of {X_AXES}, got {x_axis!r}")
    series: Dict[str, List[Tuple[float, float, "float | None"]]] = {}
    for row in rows:
        if row.metric not in metrics or row.mean is None:
            continue
        x = getattr(row, x_axis)
        if x is None or x == math.inf:
            continue
        series.setdefault(_series_label(row, x_axis), []).append(
            (float(x), row.mean, row.ci_half_width))
    if not series:
        raise NoData(f"no rows with metric in {tuple(metrics)} and a {x_axis} value")
    for points in series.values():
        points.sort(key=lambda p: p[0])

    xs = [p[0] for pts in series.values() for p in pts]
    ys = []
    for pts in series.values():
        for _x, y, ci in pts:
            ys.append(y)
            if ci:
                ys.extend((y - ci, y + ci))
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{px:.2f}" '
                     f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{MARGIN_TOP + plot_h + 20}" '
                     f'font-size="12" text-anchor="middle">{tick:.4g}</text>')
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{MARGIN_LEFT}" '
                     f'y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{tick:.4g}</text>')
    parts.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 12}" '
                 f'font-size="13" text-anchor="middle">{x_axis}</text>')
    parts.append(f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.2f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{MARGIN_TOP + plot_h / 2:.2f})">{" / ".join(metrics)} (time units)</text>')

    for idx, (label, points) in enumerate(sorted(series.items())):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y, _ci in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        for x, y, ci in points:
            px, py = sx(x), sy(y)
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{color}"/>')
            if ci:
                top, bottom = sy(y + ci), sy(y - ci)
                parts.append(f'<line x1="{px:.2f}" y1="{top:.2f}" x2="{px:.2f}" '
                             f'y2="{bottom:.2f}" stroke="{color}"/>')
                for ey in (top, bottom):
                    parts.append(f'<line x1="{px - 3:.2f}" y1="{ey:.2f}" '
                                 f'x2="{px + 3:.2f}" y2="{ey:.2f}" stroke="{color}"/>')
        ly = MARGIN_TOP + 14 + idx * 18
        lx = WIDTH - MARGIN_RIGHT + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}" font-size="11">{label}</text>')

    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc
