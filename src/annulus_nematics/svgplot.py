"""Minimal deterministic SVG emitters for curves and director fields.

Pure functions of their numeric inputs: fixed canvas, fixed palette, no
timestamps or randomness, so outputs are byte-stable and suitable for
golden-file comparison.  Director glyphs are unoriented segments,
respecting the head-tail symmetry of the director.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


def _axes(width, height, margin, x_lo, x_hi, y_lo, y_hi, xlabel, ylabel, title):
    parts = [f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
             f'height="{height - 2 * margin}" fill="none" stroke="black"/>']
    for k in range(5):
        f = k / 4.0
        px = margin + f * (width - 2 * margin)
        py = height - margin
        xv = x_lo + f * (x_hi - x_lo)
        parts.append(f'<line x1="{_fmt(px)}" y1="{py}" x2="{_fmt(px)}" '
                     f'y2="{py + 4}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{py + 16}" font-size="10" '
                     f'text-anchor="middle">{_tick_label(xv)}</text>')
        qy = height - margin - f * (height - 2 * margin)
        yv = y_lo + f * (y_hi - y_lo)
        parts.append(f'<line x1="{margin - 4}" y1="{_fmt(qy)}" x2="{margin}" '
                     f'y2="{_fmt(qy)}" stroke="black"/>')
        parts.append(f'<text x="{margin - 6}" y="{_fmt(qy + 3)}" font-size="10" '
                     f'text-anchor="end">{_tick_label(yv)}</text>')
    if xlabel:
        parts.append(f'<text x="{width / 2:.1f}" y="{height - 6}" font-size="11" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="12" y="{height / 2:.1f}" font-size="11" '
                     f'text-anchor="middle" transform="rotate(-90 12 '
                     f'{height / 2:.1f})">{ylabel}</text>')
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="{margin - 8}" font-size="12" '
                     f'text-anchor="middle">{title}</text>')
    return parts


def line_plot(series: Sequence[tuple], title: str = "", xlabel: str = "",
              ylabel: str = "") -> str:
    """Polyline chart of (x, y, label) triples on a fixed canvas."""
    width, height, margin = 640, 440, 52
    xs = np.array([x for s in series for x in s[0]], dtype=float)
    ys = np.array([y for s in series for y in s[1]], dtype=float)
    # with no point at all, draw the bare frame over [0, 1] on both axes
    x_lo, x_hi = (float(xs.min()), float(xs.max())) if xs.size else (0.0, 0.0)
    y_lo, y_hi = (float(ys.min()), float(ys.max())) if ys.size else (0.0, 0.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def to_px(x, y):
        px = margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
        py = height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        return px, py

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    parts += _axes(width, height, margin, x_lo, x_hi, y_lo, y_hi,
                   xlabel, ylabel, title)
    for idx, item in enumerate(series):
        x, y = np.asarray(item[0], dtype=float), np.asarray(item[1], dtype=float)
        label = item[2] if len(item) > 2 else ""
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}"
                       for px, py in (to_px(a, c) for a, c in zip(x, y)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        if label:
            ly = margin + 14 + 14 * idx
            parts.append(f'<line x1="{width - margin - 86}" y1="{ly - 4}" '
                         f'x2="{width - margin - 64}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{width - margin - 58}" y="{ly}" '
                         f'font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def director_plot(r, phi, theta, title: str = "") -> str:
    """Unoriented director segments at polar sample points.

    Glyphs are 0.45 of the median sample spacing long.  The annulus is
    drawn in Cartesian coordinates with the outer radius filling the
    square canvas.
    """
    r = np.asarray(r, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    size, margin = 520, 22
    scale = (size - 2 * margin) / 2.0
    cx = cy = size / 2.0
    x = r * np.cos(phi)
    y = r * np.sin(phi)
    n_pts = max(len(r), 1)
    glyph = 0.45 * 2.0 * math.pi * float(np.median(r)) / math.sqrt(n_pts)
    ux = 0.5 * glyph * np.cos(theta)
    uy = 0.5 * glyph * np.sin(theta)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    if title:
        parts.append(f'<text x="{size / 2:.1f}" y="16" font-size="12" '
                     f'text-anchor="middle">{title}</text>')
    for k in range(len(r)):
        x1 = cx + scale * (x[k] - ux[k])
        y1 = cy - scale * (y[k] - uy[k])
        x2 = cx + scale * (x[k] + ux[k])
        y2 = cy - scale * (y[k] + uy[k])
        parts.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                     f'y2="{_fmt(y2)}" stroke="#1f77b4" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
