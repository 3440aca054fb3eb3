"""Minimal deterministic SVG line plots.

Hand-rolled rather than delegated to a plotting package so that identical
data produce byte-identical files (no embedded ids, timestamps or font
metrics), which the experiment manifests rely on.
"""

from __future__ import annotations

import numpy as np

_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 50


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = np.ceil(lo / step) * step
    vals = np.arange(start, hi + step / 2, step)
    return vals[(vals >= lo - 1e-12) & (vals <= hi + 1e-12)]


def _fmt(v: float) -> str:
    # + 0.0 turns -0.0, the first tick of an axis padded just below 0, into 0
    return f"{v + 0.0:.6g}"


def line_plot(curves, xlabel: str, ylabel: str, title: str = "") -> str:
    """Render one or more ``(x, y, label)`` curves to an SVG string."""
    xs = np.concatenate([np.asarray(c[0], dtype=float) for c in curves])
    ys = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    if xs.size:
        x_lo, x_hi = float(xs.min()), float(xs.max())
        y_lo, y_hi = float(ys.min()), float(ys.max())
    else:
        # no points in any curve: the axes alone, on unit ranges
        x_lo = x_hi = y_lo = y_hi = 0.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return _MARGIN_T + ph - (y - y_lo) / (y_hi - y_lo) * ph

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(tx):.2f}" y1="{_MARGIN_T + ph}" '
                     f'x2="{sx(tx):.2f}" y2="{_MARGIN_T + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(tx):.2f}" y="{_MARGIN_T + ph + 18}" '
                     f'font-size="11" text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{sy(ty):.2f}" '
                     f'x2="{_MARGIN_L}" y2="{sy(ty):.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{sy(ty):.2f}" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle">{_fmt(ty)}</text>')
    for k, (x, y, label) in enumerate(curves):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{colors[k % len(colors)]}" stroke-width="1.5"/>')
        if label:
            parts.append(f'<text x="{_MARGIN_L + pw - 6}" y="{_MARGIN_T + 16 + 14 * k}" '
                         f'font-size="11" text-anchor="end" '
                         f'fill="{colors[k % len(colors)]}">{label}</text>')
    parts.append(f'<text x="{_MARGIN_L + pw / 2:.0f}" y="{_HEIGHT - 12}" '
                 f'font-size="13" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + ph / 2:.0f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{_MARGIN_T + ph / 2:.0f})">{ylabel}</text>')
    if title:
        parts.append(f'<text x="{_MARGIN_L + pw / 2:.0f}" y="20" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
