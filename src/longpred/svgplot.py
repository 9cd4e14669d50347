"""Minimal self-contained SVG line charts.

Just enough plotting to render the figure CSVs: axes, an optional log x scale,
grid lines, a legend.  Output is a deterministic string of SVG markup with
no external references.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_W, _H = 840, 520
_ML, _MR, _MT, _MB = 72, 24, 44, 56


def _transform(vals, lo, hi, out_lo, out_hi, log):
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
        vals = [math.log10(v) for v in vals]
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if hi == lo:
        return [lo]
    if log:
        d0, d1 = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        decades = [10.0 ** e for e in range(d0, d1 + 1) if lo <= 10.0 ** e <= hi]
        if len(decades) >= 2:
            return decades
        # fewer than two whole decades inside the range: geometric ticks
        return [10.0 ** (math.log10(lo) + f * (math.log10(hi) - math.log10(lo)) / 4)
                for f in range(5)]
    return [lo + f * (hi - lo) / 5 for f in range(6)]


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def line_chart(series: Sequence[tuple[str, Sequence[float], Sequence[float]]], *,
               title: str, xlabel: str, ylabel: str, logx: bool = False) -> str:
    """Render labelled (x, y) series as an SVG line chart string."""
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    if not pts:
        raise ValueError("nothing to plot")
    xs_all = [p[0] for p in pts]
    ys_all = [p[1] for p in pts]
    if logx and min(xs_all) <= 0:
        raise ValueError("log scale requires strictly positive data")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi > y_lo:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    elif y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    px0, px1 = _ML, _W - _MR
    py0, py1 = _H - _MB, _MT
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W / 2:.2f}" y="24" text-anchor="middle" '
           f'font-size="15">{title}</text>']

    for tv in _ticks(x_lo, x_hi, logx):
        (px,) = _transform([tv], x_lo, x_hi, px0, px1, logx)
        out.append(f'<line x1="{px:.2f}" y1="{py0}" x2="{px:.2f}" y2="{py1}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{py0 + 18}" text-anchor="middle">'
                   f'{_tick_label(tv)}</text>')
    for tv in _ticks(y_lo, y_hi, False):
        (py,) = _transform([tv], y_lo, y_hi, py0, py1, False)
        out.append(f'<line x1="{px0}" y1="{py:.2f}" x2="{px1}" y2="{py:.2f}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px0 - 6}" y="{py + 4:.2f}" text-anchor="end">'
                   f'{_tick_label(tv)}</text>')
    out.append(f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" '
               f'height="{py0 - py1}" fill="none" stroke="#333333"/>')
    out.append(f'<text x="{(px0 + px1) / 2:.2f}" y="{_H - 14}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="18" y="{(py0 + py1) / 2:.2f}" text-anchor="middle" '
               f'transform="rotate(-90 18 {(py0 + py1) / 2:.2f})">{ylabel}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pxs = _transform(xs, x_lo, x_hi, px0, px1, logx)
        pys = _transform(ys, y_lo, y_hi, py0, py1, False)
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(pxs, pys))
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = py1 + 16 + 16 * i
        out.append(f'<line x1="{px1 - 150}" y1="{ly - 4}" x2="{px1 - 126}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{px1 - 120}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
