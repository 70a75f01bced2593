"""Spectral regions and the spectrum synthesizers.

Regions are unions of four primitives: a closed disk centered at the
origin, a spiral {e^{-a t}: t >= 0} u {0} with Re(a) > 0 (the segment
[0, 1] when a is real), a finite point set, and a geometric tail
{base^k: k >= 0} u {0}, the spiral a = -Log(base) at integer t.  The
canonical form keeps the largest disk (at radius >= 1 it absorbs every
spiral and tail), one spiral per shape Im(a)/Re(a) (the set depends on a
only through it), no tail whose base lies on a kept spiral or tail (by
decreasing |base|; one beside a smaller disk stays) and the points no
other primitive holds.  :func:`region_equal` compares canonical forms;
one exact routine, the distance to a primitive, gives :func:`distance`,
:func:`contains` and the ``truncate`` distances.

Synthesis reads boundary data only (see :func:`compspec.symbol.analyze`)
and dispatches on the analysis's Denjoy-Wolff record, type class and
orbit partition: compact and power-compact cases give {0} plus the
eigenvalue tail, otherwise the essential spectrum is assembled from
cycle multipliers (disk of radius rho) and, for a parabolic fixed point,
a spiral.  A :class:`SpectrumReport` holds what that adds, with the
type class and Denjoy-Wolff record it read.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import EPS
from .dynamics import OrbitPartition, rho
from .errors import InvalidDataError, NotCertifiedError
from .mobius import (MobiusMap, _finite, derivative, fixed_points,
                     is_disk_automorphism, lfm_from_data, second_derivative,
                     IDENTITY_FIXED, AT_INFINITY)
from .symbol import (Analysis, DenjoyWolffRecord, Location, Symbol,
                     TypeClass, analyze)

__all__ = [
    "Disk", "Spiral", "Points", "GeometricTail", "SpectralRegion",
    "region", "contains", "distance", "max_modulus", "region_equal",
    "SpectrumReport", "lft_spectra", "rho", "rho_star", "synthesize",
    "spectral_radius_check", "kms2t_essential_union",
]


@dataclass(frozen=True)
class Disk:
    radius: float

    def __post_init__(self):
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise InvalidDataError("disk radius must be finite and >= 0")


@dataclass(frozen=True)
class Spiral:
    a: complex

    def __post_init__(self):
        a = complex(self.a)
        if not (a.real > 0 and math.isfinite(abs(a))):
            raise InvalidDataError("spiral parameter needs Re(a) > 0")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class Points:
    values: tuple

    def __post_init__(self):
        values = tuple(complex(v) for v in self.values)
        if not _finite(*values):
            raise InvalidDataError("points must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class GeometricTail:
    base: complex

    def __post_init__(self):
        b = complex(self.base)
        if not abs(b) < 1.0:
            raise InvalidDataError("tail base must have modulus < 1")
        object.__setattr__(self, "base", b)


@dataclass(frozen=True)
class SpectralRegion:
    primitives: tuple


def region(*primitives) -> SpectralRegion:
    """Canonical union (see the module docstring).  Idempotent."""
    disks, spirals, tails, points = [], [], [], []
    for p in primitives:
        for q in (p.primitives if isinstance(p, SpectralRegion) else (p,)):
            if isinstance(q, Disk):
                disks.append(q)
            elif isinstance(q, Spiral):
                spirals.append(q)
            elif isinstance(q, GeometricTail):
                tails.append(q)
            elif isinstance(q, Points):
                points.extend(q.values)
            else:
                raise InvalidDataError(f"unknown primitive {q!r}")
    out = []
    r = max((d.radius for d in disks), default=-1.0)
    if r > EPS:
        out.append(Disk(r))
    elif r >= 0.0:   # a zero-radius disk is just the origin
        points.append(0.0 + 0.0j)
    # sup modulus of a spiral or tail is 1 (at t = 0 / k = 0)
    if r < 1.0 - EPS:
        for sp in spirals:
            if not any(abs(_key(sp) - _key(o)) <= EPS for o in out
                       if isinstance(o, Spiral)):
                out.append(sp)
        for tl in sorted(tails, key=lambda t: -abs(t.base)):
            if abs(tl.base) <= EPS:
                points.extend([0.0 + 0.0j, 1.0 + 0.0j])
            elif not any(_distance(o, tl.base, 2 * EPS) <= EPS for o in out
                         if not isinstance(o, Disk)):
                out.append(tl)
    kept: list[complex] = []
    for v in map(complex, points):
        if not (any(abs(v - w) <= EPS for w in kept)
                or contains(SpectralRegion(tuple(out)), v)):
            kept.append(v)
    if kept:
        out.append(Points(tuple(sorted(kept, key=lambda z: (z.real, z.imag)))))
    return SpectralRegion(tuple(out))


def _key(p) -> complex:
    """A disk's radius, a spiral's shape Im(a)/Re(a) or a tail's base."""
    return (p.radius if isinstance(p, Disk) else p.base
            if isinstance(p, GeometricTail) else p.a.imag / p.a.real)


def _refine(a: complex, lam: complex, t: float, h: float) -> float:
    """Distance from lam to e^{-as}, |s - t| <= h, s >= 0, by Newton."""
    lo, hi = max(t - h, 0.0), t + h
    for _ in range(30):
        w = cmath.exp(-a * t)
        g = a * w * (w - lam).conjugate()   # d/dt |w - lam|^2 = -2 Re(g)
        dg = -(a * g).real - abs(a * w) ** 2
        if dg >= 0.0:
            break
        t, prev = min(max(t - g.real / dg, lo), hi), t
        if abs(t - prev) <= 1e-15 * (1.0 + t):
            break
    return abs(cmath.exp(-a * t) - lam)


def _curve(a: complex, lam: complex, upto: float, integer: bool) -> float:
    """Distance from lam to {e^{-at}: t >= 0} u {0}, t integer if `integer`:
    exact below upto, else >= upto.  Only t where |e^{-Re(a) t} - |lam||
    is below the best so far are searched, outward from modulus |lam|, and
    a spiral refines each sample that may hide a closer point by Newton."""
    r, alpha = abs(lam), a.real
    if a.imag == 0.0:   # the curve lies on [0, 1]
        x = min(max(lam.real, 0.0), 1.0)
        if integer and 0.0 < x < 1.0:   # the powers on either side of x
            k = math.log(x) / -alpha
            return min(abs(lam - math.exp(-alpha * j))
                       for j in (math.floor(k), math.ceil(k)))
        return abs(lam - x)
    best = min(upto, r)   # the limit point 0
    if best <= 0.0:
        return best
    h = 1.0 if integer else 0.1 / abs(a)   # the sample spacing in t
    # spiral seeds: t = 0, modulus |lam|, the crossings of lam's ray near it
    t0 = max(-math.log(r) / alpha, 0.0)
    period = 2.0 * math.pi / abs(a.imag)
    tc = t0 - (t0 + cmath.phase(lam) / a.imag) % period
    for s in () if integer else (0.0, t0, max(tc, 0.0), tc + period):
        best = min(best, abs(cmath.exp(-a * s) - lam))
    left = right = round(t0 / h)   # grid indices [left, right) are done
    while True:
        lo = math.floor(-math.log(min(r + best, 1.0)) / alpha / h)
        hi = math.ceil(-math.log(max(r - best, r / 1e16, 1e-300)) / alpha / h)
        # floor r/1e16: no point below beats 0; <= 65,536 values a chunk
        lo, hi = max(lo, left - 32768), min(hi + 1, right + 32768)
        t = np.r_[lo:left, right:hi] * h
        if not t.size:
            break
        left, right = min(left, lo), max(right, hi)
        w = np.exp(-a * t)
        f = np.abs(w - lam)
        best = min(best, float(f.min()))
        if not integer:
            lower = f - 1.2 * h * abs(a) * np.abs(w)   # arc to a neighbour
            cand = np.flatnonzero(lower < best)
            for i in cand[np.argsort(f[cand])]:
                if lower[i] < best:
                    best = min(best, _refine(a, lam, float(t[i]), h))
    return best


def _distance(p, lam: complex, upto: float) -> float:
    """Distance from lam to p: exact below upto, otherwise >= upto."""
    if not cmath.isfinite(lam):
        return math.inf
    if isinstance(p, Disk):
        return max(abs(lam) - p.radius, 0.0)
    if isinstance(p, Points):
        return min((abs(lam - v) for v in p.values), default=math.inf)
    if isinstance(p, Spiral):
        return _curve(p.a, lam, upto, False)
    b = p.base
    if b.real < 0.0 if b.imag == 0.0 else b.real == 0.0:
        # a negative real or imaginary base: b^2 is exactly real, and the
        # powers are the even ones b^2k and the odd ones b b^2k
        even, m = GeometricTail(b * b), abs(b)
        return min(_distance(even, lam, upto),
                   m * _distance(even, lam / b, upto / m))
    return (_curve(-cmath.log(b), lam, upto, True) if b
            else min(abs(lam), abs(lam - 1.0)))


def distance(r: SpectralRegion, lam: complex) -> float:
    """Exact distance from lam to r; disks and points bound the curves."""
    lam, best = complex(lam), math.inf
    for p in sorted(r.primitives,
                    key=lambda p: isinstance(p, (Spiral, GeometricTail))):
        best = min(best, _distance(p, lam, best))
    return best


def contains(r: SpectralRegion, lam: complex, eps: float = EPS) -> bool:
    lam = complex(lam)
    return any(_distance(p, lam, 2.0 * eps) <= eps for p in r.primitives)


def max_modulus(r: SpectralRegion) -> float:
    out = 0.0
    for p in r.primitives:
        if isinstance(p, Disk):
            out = max(out, p.radius)
        elif isinstance(p, (Spiral, GeometricTail)):
            out = max(out, 1.0)  # attained at t = 0 / k = 0
        elif isinstance(p, Points):
            out = max(out, max(abs(v) for v in p.values))
    return out


def region_equal(a: SpectralRegion, b: SpectralRegion,
                 tol: float = 1e-8) -> bool:
    """Structural equality of canonical forms: disk radii, spiral shapes
    and tail bases agree within tol, and every point of either side lies
    within tol of the other region."""
    a, b = region(a), region(b)
    return all(
        all(contains(other, v, tol) for v in p.values)
        if isinstance(p, Points) else
        any(type(q) is type(p) and abs(_key(q) - _key(p)) <= tol
            for q in other.primitives)
        for one, other in ((a, b), (b, a)) for p in one.primitives)


# ----------------------------------------------------------------------
# Theorem dispatch for linear-fractional symbols
# ----------------------------------------------------------------------

def lft_spectra(psi: MobiusMap):
    """(full, essential) spectra of the composition operator with a
    non-automorphic linear-fractional symbol."""
    if is_disk_automorphism(psi):
        raise InvalidDataError("automorphic symbol is out of scope")
    fps = fixed_points(psi)
    if fps is IDENTITY_FIXED:
        raise InvalidDataError("identity symbol is an automorphism")
    finite = [p for p in fps if p is not AT_INFINITY]
    boundary = [p for p in finite if abs(abs(p) - 1.0) <= 1e-7]
    interior = [p for p in finite if abs(p) < 1.0 - 1e-7]
    interior_dw = [p for p in interior if abs(derivative(psi, p)) < 1.0 - EPS]
    if interior_dw:
        if not boundary:
            # compact or power-compact
            lam = derivative(psi, interior_dw[0])
            essential = region(Points((0.0 + 0.0j,)))
            full = region(GeometricTail(lam), Points((0.0 + 0.0j,)))
            return full, essential
        # the two fixed points' multipliers are reciprocal, so
        # |psi'(omega)| = radius^2 < radius: of its powers only the
        # zeroth, 1, lies outside the disk
        radius = 1.0 / math.sqrt(derivative(psi, boundary[0]).real)
        essential = region(Disk(radius))
        full = region(Disk(radius), Points((1.0 + 0.0j,)))
        return full, essential
    if not boundary:
        raise InvalidDataError("no Denjoy-Wolff candidate found")
    # boundary Denjoy-Wolff point: derivative real in (0, 1]
    cands = [p for p in boundary
             if abs(derivative(psi, p).imag) <= 1e-8
             and 0 < derivative(psi, p).real <= 1.0 + EPS]
    if not cands:
        raise InvalidDataError(
            f"no boundary fixed point with derivative in (0, 1]: {boundary}")
    omega = cands[0]
    dw = derivative(psi, omega).real
    if dw < 1.0 - EPS:
        r = 1.0 / math.sqrt(dw)
        both = region(Disk(r))
        return both, both
    a = omega * second_derivative(psi, omega)
    both = region(Spiral(a))
    return both, both


# ----------------------------------------------------------------------
# rho and the synthesizers
# ----------------------------------------------------------------------

def rho_star(part: OrbitPartition, excluded_cycle: int) -> float:
    """rho over all cycles except the Denjoy-Wolff singleton; 0 if none
    remain."""
    rest = [c for i, c in enumerate(part.cycles) if i != excluded_cycle]
    if not rest:
        return 0.0
    return max(c.multiplier ** (-1.0 / (2.0 * c.length)) for c in rest)


@dataclass(frozen=True)
class SpectrumReport:
    """The regions and rho that the synthesis adds to an analysis, with
    the analysis's type class and Denjoy-Wolff record (which
    ``perfbench/test_perfbench.py`` reads off the report)."""
    essential: SpectralRegion
    full: SpectralRegion
    rho: float
    type_class: TypeClass
    dw: DenjoyWolffRecord
    notes: tuple = ()


def synthesize(s: Symbol | Analysis) -> SpectrumReport:
    """Full decision procedure for a certified order-2-contact symbol."""
    a = analyze(s)
    cert = a.certificate
    if not cert.accepted:
        raise NotCertifiedError(
            f"symbol fails order-2 certification at {[c.zeta for c in cert.failing]}")
    dw = a.boundary.denjoy_wolff
    part = a.partition
    tclass = a.type_class
    if tclass is TypeClass.PARABOLIC_AUTOMORPHISM:
        raise InvalidDataError(
            "parabolic automorphism-type symbol is outside the synthesis "
            "theorems")

    if not part.cycles:
        # compact (empty contact set) or power-compact (all iterate-out)
        r = 0.0
        essential = region(Points((0.0 + 0.0j,)))
        full = region(GeometricTail(dw.derivative), Points((0.0 + 0.0j,)))
        note = ("compact" if not part.all_points else
                "power-compact: all contact points iterate out")
    elif tclass is TypeClass.DILATION:
        r = rho(part)
        lam = dw.derivative
        pts = [1.0 + 0.0j]
        if abs(lam) > EPS:
            w = lam
            # N = least positive integer with |lam|^N <= rho
            while abs(w) > r:
                pts.append(w)
                w *= lam
        essential = region(Disk(r))
        full = region(Disk(r), Points(tuple(pts)))
        note = ("interior Denjoy-Wolff point: disk of radius rho plus "
                "finitely many eigenvalue powers")
    elif tclass is TypeClass.HYPERBOLIC:
        # the partition checked that the cycles give the same rho
        r = 1.0 / math.sqrt(dw.derivative.real)
        essential = full = region(Disk(r))
        note = ("hyperbolic Denjoy-Wolff point: spectrum is the closed "
                "disk of radius 1/sqrt(phi'(omega))")
    else:
        # parabolic non-automorphism type: omega's point is fixed, a
        # 1-cycle
        at_omega = a.boundary.points[a.boundary.omega_index]
        r = rho_star(part, [c.points for c in part.cycles].index(
            (at_omega.zeta,)))
        prims = [Spiral(dw.omega * at_omega.d2)]
        if r > EPS:
            prims.append(Disk(r))
        essential = full = region(*prims)
        note = "parabolic fixed point: spiral plus disk of radius rho_*"
    return SpectrumReport(essential, full, r, tclass, dw, (note,))


def spectral_radius_check(report: SpectrumReport,
                          dw: DenjoyWolffRecord) -> bool:
    """Cross-check against the spectral-radius formula."""
    if dw.location is Location.INTERIOR:
        expected = 1.0
    else:
        expected = 1.0 / math.sqrt(dw.derivative.real)
    return abs(max_modulus(report.full) - expected) <= 1e-8 * max(1.0, expected)


def kms2t_essential_union(s: Symbol | Analysis) -> SpectralRegion:
    """Second, independent route to the essential spectrum when every
    contact point is a fixed point (mutually non-communicating singleton
    cycles): union of the essential spectra of the per-point
    linear-fractional matches, plus {0}."""
    a = analyze(s)
    if not a.certificate.accepted:
        raise NotCertifiedError("symbol fails order-2 certification")
    part = a.partition
    ok = (not part.iterate_out
          and all(c.length == 1 for c in part.cycles)
          and all(not v for v in part.lead_ins.values())
          and part.cycles)
    if not ok:
        raise InvalidDataError(
            "contact set is not a union of fixed points; use synthesize()")
    prims = [Points((0.0 + 0.0j,))]
    for data in a.boundary.points:
        _, essential = lft_spectra(lfm_from_data(data))
        prims.append(essential)
    return region(*prims)
