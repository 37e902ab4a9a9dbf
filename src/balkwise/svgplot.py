"""Tiny native SVG emitters so experiments can plot without a plotting stack."""

from __future__ import annotations

import math

WIDTH, HEIGHT, PAD = 640, 420, 50


def _scale(vals, lo_px, hi_px):
    finite = [v for v in vals if v is not None and math.isfinite(v)]
    lo, hi = min(finite), max(finite)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo

    def to_px(v):
        return lo_px + (v - lo) / span * (hi_px - lo_px)

    return to_px, lo, hi


def _frame(x_label: str, y_label: str, x_lo, x_hi, y_lo, y_hi) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{PAD}" y1="{HEIGHT-PAD}" x2="{WIDTH-PAD}" y2="{HEIGHT-PAD}" stroke="black"/>',
        f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{HEIGHT-PAD}" stroke="black"/>',
        f'<text x="{WIDTH//2}" y="{HEIGHT-10}" font-size="13" text-anchor="middle">{x_label}</text>',
        f'<text x="15" y="{HEIGHT//2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 15 {HEIGHT//2})">{y_label}</text>',
        f'<text x="{PAD}" y="{HEIGHT-PAD+18}" font-size="11">{x_lo:.4g}</text>',
        f'<text x="{WIDTH-PAD}" y="{HEIGHT-PAD+18}" font-size="11" text-anchor="end">{x_hi:.4g}</text>',
        f'<text x="{PAD-4}" y="{HEIGHT-PAD}" font-size="11" text-anchor="end">{y_lo:.4g}</text>',
        f'<text x="{PAD-4}" y="{PAD+4}" font-size="11" text-anchor="end">{y_hi:.4g}</text>',
    ]


def _write(parts: list[str], path) -> None:
    """Close the figure's elements and write them to path, one per line."""
    with open(path, "w") as fh:
        fh.write("\n".join([*parts, "</svg>"]))


def line(points, path, x_label: str = "x", y_label: str = "y") -> None:
    """Polyline plot of (x, y) pairs; NaNs break the line."""
    pts = [(x, y) for x, y in points if math.isfinite(x)]
    to_x, x_lo, x_hi = _scale([p[0] for p in pts], PAD, WIDTH - PAD)
    to_y, y_lo, y_hi = _scale([p[1] for p in pts if math.isfinite(p[1])], HEIGHT - PAD, PAD)
    parts = _frame(x_label, y_label, x_lo, x_hi, y_lo, y_hi)
    coords = " ".join(f"{to_x(x):.1f},{to_y(y):.1f}" for x, y in pts if math.isfinite(y))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    _write(parts, path)


def scatter(points, path, x_label: str = "x", y_label: str = "y") -> None:
    pts = [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
    to_x, x_lo, x_hi = _scale([p[0] for p in pts], PAD, WIDTH - PAD)
    to_y, y_lo, y_hi = _scale([p[1] for p in pts], HEIGHT - PAD, PAD)
    parts = _frame(x_label, y_label, x_lo, x_hi, y_lo, y_hi)
    for x, y in pts:
        parts.append(f'<circle cx="{to_x(x):.1f}" cy="{to_y(y):.1f}" r="2" fill="steelblue" fill-opacity="0.5"/>')
    _write(parts, path)


def histogram(values, path, bins: int = 30, x_label: str = "value", y_label: str = "count") -> None:
    vals = [v for v in values if math.isfinite(v)]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        hi = lo + 1.0
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in vals:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    to_x, x_lo, x_hi = _scale([lo, hi], PAD, WIDTH - PAD)
    to_y, y_lo, y_hi = _scale([0, max(counts)], HEIGHT - PAD, PAD)
    parts = _frame(x_label, y_label, x_lo, x_hi, y_lo, y_hi)
    for i, c in enumerate(counts):
        x0 = to_x(lo + i * width)
        x1 = to_x(lo + (i + 1) * width)
        parts.append(
            f'<rect x="{x0:.1f}" y="{to_y(c):.1f}" width="{x1-x0:.1f}" '
            f'height="{to_y(0)-to_y(c):.1f}" fill="steelblue" stroke="white"/>'
        )
    _write(parts, path)
