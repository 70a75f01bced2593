"""Deterministic SVG 1.1 rendering of spectral regions.

Identical reports produce identical bytes: all numbers are formatted
with a fixed precision and primitives are emitted in canonical order.
A spiral is a polyline of 601 vertices, computed with one ``np.exp`` and
formatted with one ``%``; each vertex has the bits :func:`_px` would give.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .spectrum import Disk, GeometricTail, Points, Spiral, SpectralRegion

__all__ = ["region_svg", "write_svg"]

_SIZE = 480
_HALF_SPAN = 1.6  # world units from center to edge
# a tail power is drawn as a 6x6 px box: a point 2.7 px from its centre
# lies in it with 0.3 px to spare for the 6-digit formatting and the
# roundoff of base ** k, and boxes 5.4 px apart tile the plane
_BOX_REACH = 2.7 * 2.0 * _HALF_SPAN / _SIZE   # in world units
_TAIL_WALK = 1000   # boxes drawn along the tail before the rest is tiled
_SPIRAL_STEPS = 600   # polyline segments per spiral

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{_SIZE}" height="{_SIZE}" '
    f'viewBox="0 0 {_SIZE} {_SIZE}">\n'
    '<!-- compspec spectral region; schema compspec/1 -->\n'
    '<title>spectrum</title>\n'
)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _px(z: complex) -> tuple[str, str]:
    scale = _SIZE / (2.0 * _HALF_SPAN)
    return (_fmt(_SIZE / 2.0 + z.real * scale),
            _fmt(_SIZE / 2.0 - z.imag * scale))


def _px_len(r: float) -> str:
    return _fmt(r * _SIZE / (2.0 * _HALF_SPAN))


def _box(w: complex) -> str:
    x, y = _px(w)
    return (f'<rect x="{_fmt(float(x) - 3)}" y="{_fmt(float(y) - 3)}" '
            'width="6" height="6" fill="none" stroke="#338833" '
            'stroke-width="1.2"/>\n')


def _tail_centres(base: complex) -> list[complex]:
    """Centres of boxes that cover every power base^k with modulus above
    1e-12, at most _TAIL_WALK plus a fixed lattice whatever the base.

    Since |base^i - 1| <= i |log base| for |base| < 1, a box at w covers
    w * base^i for every i <= _BOX_REACH / (|w| |log base|), so the walk
    jumps to the first power it may not cover.  If the walk would draw
    more than _TAIL_WALK boxes, the powers left lie in the disk of the
    current modulus, and a lattice of boxes covering that disk replaces
    them."""
    step = abs(cmath.log(base)) if base else math.inf
    centres, w, k = [], 1.0 + 0.0j, 0
    while abs(w) > 1e-12:
        if len(centres) == _TAIL_WALK:
            h = 2.0 * _BOX_REACH
            n = int(abs(w) / h) + 1
            return centres + [
                c for i in range(-n, n + 1) for j in range(-n, n + 1)
                if abs(c := complex(i, j) * h) <= abs(w) + h]
        centres.append(w)
        k += int(_BOX_REACH / (abs(w) * step)) + 1
        w = base ** k
    return centres


def _spiral_points(a: complex) -> str:
    """The polyline through e^{-a t} at _SPIRAL_STEPS + 1 even steps of
    t, from 1 down to modulus 1e-4, in pixels: one exp over all vertices
    and one format, with the same bits as _px of each vertex."""
    t_end = -math.log(1e-4) / a.real
    z = np.exp(-a * (t_end * np.arange(_SPIRAL_STEPS + 1) / _SPIRAL_STEPS))
    scale = _SIZE / (2.0 * _HALF_SPAN)
    xy = np.empty(2 * z.size)
    xy[0::2] = _SIZE / 2.0 + z.real * scale
    xy[1::2] = _SIZE / 2.0 - z.imag * scale
    return (("%.6f,%.6f " * z.size) % tuple(xy.tolist()))[:-1]


def region_svg(r: SpectralRegion) -> str:
    parts = [_HEADER]
    cx, cy = _px(0.0 + 0.0j)
    parts.append(
        f'<circle cx="{cx}" cy="{cy}" r="{_px_len(1.0)}" fill="none" '
        'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"/>\n')
    disks = sorted((p for p in r.primitives if isinstance(p, Disk)),
                   key=lambda d: -d.radius)
    spirals = sorted((p for p in r.primitives if isinstance(p, Spiral)),
                     key=lambda s: (s.a.real, s.a.imag))
    tails = sorted((p for p in r.primitives if isinstance(p, GeometricTail)),
                   key=lambda t: (t.base.real, t.base.imag))
    points = [p for p in r.primitives if isinstance(p, Points)]
    for d in disks:
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{_px_len(d.radius)}" '
            'fill="#4477aa" fill-opacity="0.45" stroke="#225588" '
            'stroke-width="1.5"/>\n')
    for sp in spirals:
        parts.append(
            f'<polyline points="{_spiral_points(sp.a)}" fill="none" '
            'stroke="#aa3333" stroke-width="2"/>\n')
    for tl in tails:
        parts.extend(_box(w) for w in _tail_centres(tl.base))
        parts.append(_box(0.0 + 0.0j))
    for pts in points:
        for v in pts.values:
            x, y = _px(v)
            parts.append(
                f'<circle cx="{x}" cy="{y}" r="3.5" fill="#222222"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def write_svg(r: SpectralRegion, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(region_svg(r))
