"""Minimal hand-rolled SVG 1.1 line charts: axes, polylines, legend.

No timestamps or randomness anywhere; identical input produces identical
bytes, which the reproducibility tests rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRange

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 16, 34, 46


def _text(s: str) -> str:
    """``s`` as XML character data, as ``xml.sax.saxutils.escape`` gives it.

    Importing saxutils pulls in urllib.request and ssl, about 6 MB of RSS.
    """
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _num(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 5) -> np.ndarray:
    if hi == lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def line_chart(series, title: str = "", xlabel: str = "", ylabel: str = "",
               markers=None) -> str:
    """Render labelled (xs, ys) series to an SVG document string.

    ``series`` is an iterable of (label, xs, ys); ``markers`` an optional
    iterable of (label, xs, ys) drawn as small circles instead of lines.
    Title, axis labels and legend entries are escaped as XML text.

    Raises OutOfRange when there is no point at all, when a series or marker
    set has not as many y values as x values, or when a coordinate or the
    span of the axes is not finite.
    """
    series = [(str(lbl), np.asarray(xs, float), np.asarray(ys, float))
              for lbl, xs, ys in series]
    markers = [(str(lbl), np.asarray(xs, float), np.asarray(ys, float))
               for lbl, xs, ys in (markers or [])]
    all_x = np.concatenate([xs for _, xs, _ in series + markers] or [[]])
    all_y = np.concatenate([ys for _, _, ys in series + markers] or [[]])
    if all_x.size == 0 or all_y.size == 0:
        raise OutOfRange("series", "a chart needs at least one point")
    for label, xs, ys in series + markers:
        if xs.size != ys.size:
            raise OutOfRange("series", f"{label!r} has {xs.size} x values "
                                       f"but {ys.size} y values")
    if not (np.isfinite(all_x).all() and np.isfinite(all_y).all()):
        raise OutOfRange("series", "chart coordinates must be finite")
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise OutOfRange("series",
                         "chart coordinates span more than float64 holds")

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    # polyline points with the y values left open, keyed by the content of
    # xs; the x texts are finite numbers, so they hold no "%"
    templates = {}

    def points(xs, ys):
        key = xs.tobytes()
        if key not in templates:
            templates[key] = " ".join([f"{x:.6g},%.6g" for x in sx(xs).tolist()])
        return templates[key] % tuple(sy(ys).tolist())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_text(title)}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{_num(sx(tx))}" y1="{_H - _MB}" x2="{_num(sx(tx))}" '
            f'y2="{_H - _MB + 4}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_num(sx(tx))}" y="{_H - _MB + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_num(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 4}" y1="{_num(sy(ty))}" x2="{_ML}" '
            f'y2="{_num(sy(ty))}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 7}" y="{_num(sy(ty) + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_num(ty)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_text(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_H // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_H // 2})">{_text(ylabel)}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points(xs, ys)}"/>'
        )
        ly = _MT + 14 * idx
        parts.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 98}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 92}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="10">{_text(label)}</text>'
        )
    for idx, (label, xs, ys) in enumerate(markers):
        color = PALETTE[(idx + len(series)) % len(PALETTE)]
        for x, y in zip(sx(xs).tolist(), sy(ys).tolist()):
            parts.append(
                f'<circle cx="{x:.6g}" cy="{y:.6g}" r="3" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
