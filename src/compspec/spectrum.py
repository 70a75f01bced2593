"""Spectral regions and the spectrum synthesizers.

Regions are canonical unions of four primitives: a closed disk centered
at the origin, a spiral {e^{-a t}: t >= 0} u {0} with Re(a) > 0 (the
segment [0, 1] when a is real), a finite point set, and a geometric tail
{base^k: k >= 0} u {0}.  Canonicalization keeps at most one disk (the
largest) and drops primitives the disk absorbs.

Synthesis reads boundary data only (see :func:`compspec.symbol.analyze`)
and dispatches on the Denjoy-Wolff data and the orbit partition:
compact and power-compact cases give {0} plus the eigenvalue tail,
otherwise the essential spectrum is assembled from cycle multipliers
(disk of radius rho) and, for a parabolic fixed point, a spiral.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .config import EPS, MATCH_TOL
from .dynamics import OrbitPartition, partition
from .errors import InvalidDataError, NotCertifiedError
from .mobius import (MobiusMap, _finite, derivative, fixed_points,
                     is_disk_automorphism, lfm_from_data, second_derivative,
                     IDENTITY_FIXED, AT_INFINITY)
from .symbol import (Analysis, DenjoyWolffRecord, Location, Symbol,
                     TypeClass, analyze, second_order_data)

__all__ = [
    "Disk", "Spiral", "Points", "GeometricTail", "SpectralRegion",
    "region", "contains", "max_modulus", "region_equal", "probe_points",
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
    """Canonical union: one largest disk, absorbed primitives dropped,
    points deduplicated.  Idempotent."""
    disks, spirals, tails, points = [], [], [], []
    for p in primitives:
        if isinstance(p, SpectralRegion):
            primitives2 = p.primitives
        else:
            primitives2 = (p,)
        for q in primitives2:
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
    r = max((d.radius for d in disks), default=None)
    if r is not None and r > EPS:
        out.append(Disk(r))
    else:
        # a zero-radius disk is just the origin
        if r is not None:
            points.append(0.0 + 0.0j)
        r = None
    # sup modulus of a spiral or tail is 1 (at t = 0 / k = 0)
    for sp in spirals:
        if r is None or r < 1.0 - EPS:
            if not any(abs(sp.a - other.a) <= EPS for other in out
                       if isinstance(other, Spiral)):
                out.append(sp)
    for tl in tails:
        if r is None or r < 1.0 - EPS:
            if abs(tl.base) <= EPS:
                points.extend([0.0 + 0.0j, 1.0 + 0.0j])
            elif not any(isinstance(o, GeometricTail)
                         and abs(tl.base - o.base) <= EPS for o in out):
                out.append(tl)
    kept: list[complex] = []
    pre = SpectralRegion(tuple(out))
    for v in points:
        v = complex(v)
        if any(abs(v - w) <= EPS for w in kept):
            continue
        if out and contains(pre, v):
            continue
        kept.append(v)
    if kept:
        out.append(Points(tuple(sorted(kept, key=lambda z: (z.real, z.imag)))))
    return SpectralRegion(tuple(out))


def _spiral_contains(sp: Spiral, lam: complex, eps: float) -> bool:
    if abs(lam) <= eps:
        return True
    if abs(lam) > 1.0 + eps:
        return False
    # solve e^{-a t} = lam over branch offsets with Im(t) ~ 0, t >= 0
    a = sp.a
    log_mod = math.log(abs(lam))
    arg = cmath.phase(lam)
    kmax = int(math.ceil(abs(log_mod) * abs(a.imag) / (2.0 * math.pi * a.real))) + 2
    for k in range(-kmax, kmax + 1):
        t = -(log_mod + 1j * (arg + 2.0 * math.pi * k)) / a
        if abs(t.imag) <= eps * max(1.0, abs(t)) and t.real >= -eps:
            # verify to guard against branch rounding
            if abs(cmath.exp(-a * t.real) - lam) <= 10 * eps:
                return True
    return False


def contains(r: SpectralRegion, lam: complex, eps: float = EPS) -> bool:
    lam = complex(lam)
    for p in r.primitives:
        if isinstance(p, Disk):
            if abs(lam) <= p.radius + eps:
                return True
        elif isinstance(p, Points):
            if any(abs(lam - v) < eps for v in p.values):
                return True
        elif isinstance(p, GeometricTail):
            if abs(lam) <= eps:
                return True
            b = p.base
            if abs(b) <= eps:
                if abs(lam - 1.0) < eps:
                    return True
                continue
            if not cmath.isfinite(lam):
                continue
            # only powers with |b|^k in (|lam| - eps, |lam| + eps) can lie
            # within eps of lam, and |b|^k decreases with k
            k = max(0, math.floor(math.log(abs(lam) + eps)
                                  / math.log(abs(b))))
            w = b ** k
            while abs(w) >= eps and abs(w) > abs(lam) - eps:
                if abs(lam - w) < eps:
                    return True
                w *= b
        elif isinstance(p, Spiral):
            if _spiral_contains(p, lam, eps):
                return True
    return False


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


def probe_points(r: SpectralRegion) -> np.ndarray:
    """Deterministic dense samples of the region, for equality testing."""
    probes: list[complex] = []
    for p in r.primitives:
        if isinstance(p, Disk):
            for k in range(9):
                rad = p.radius * k / 8.0
                ang = np.exp(2j * np.pi * np.arange(32) / 32.0)
                probes.extend(rad * ang)
        elif isinstance(p, Spiral):
            t_end = -math.log(1e-6) / p.a.real
            for t in np.linspace(0.0, t_end, 400):
                probes.append(cmath.exp(-p.a * t))
            probes.append(0.0 + 0.0j)  # the spiral's limit point
        elif isinstance(p, GeometricTail):
            w = 1.0 + 0.0j
            while abs(w) > 1e-12:
                probes.append(w)
                if abs(p.base) == 0.0:
                    break
                w *= p.base
            probes.append(0.0 + 0.0j)
        elif isinstance(p, Points):
            probes.extend(p.values)
    return np.array(probes, dtype=complex)


def region_equal(a: SpectralRegion, b: SpectralRegion,
                 tol: float = 1e-8) -> bool:
    """Two-sided probe containment at the given tolerance."""
    return (all(contains(b, z, eps=tol) for z in probe_points(a))
            and all(contains(a, z, eps=tol) for z in probe_points(b)))


# ----------------------------------------------------------------------
# Theorem dispatch for linear-fractional symbols
# ----------------------------------------------------------------------

def _eigenvalue_tail(base: complex):
    """{base^k: k >= 0} u {0}: degenerates to {0, 1} when base = 0."""
    if abs(base) <= EPS:
        return Points((0.0 + 0.0j, 1.0 + 0.0j))
    return GeometricTail(base)


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
        omega = interior_dw[0]
        lam = derivative(psi, omega)
        if not boundary:
            # compact or power-compact
            essential = region(Points((0.0 + 0.0j,)))
            full = region(_eigenvalue_tail(lam), Points((0.0 + 0.0j,)))
            return full, essential
        zeta0 = boundary[0]
        dz = derivative(psi, zeta0).real
        radius = 1.0 / math.sqrt(dz)
        essential = region(Disk(radius))
        pts = [1.0 + 0.0j]
        if abs(lam) > EPS:
            w = lam
            while abs(w) > radius + EPS:
                pts.append(w)
                w *= lam
        full = region(Disk(radius), Points(tuple(pts)))
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

def rho(part: OrbitPartition) -> float:
    """max over cycles of multiplier^(-1/(2 len))."""
    if not part.cycles:
        raise InvalidDataError("rho needs at least one cycle")
    return max(c.multiplier ** (-1.0 / (2.0 * c.length)) for c in part.cycles)


def rho_star(part: OrbitPartition, excluded_cycle: int) -> float:
    """rho over all cycles except the Denjoy-Wolff singleton; 0 if none
    remain."""
    rest = [c for i, c in enumerate(part.cycles) if i != excluded_cycle]
    if not rest:
        return 0.0
    return max(c.multiplier ** (-1.0 / (2.0 * c.length)) for c in rest)


@dataclass(frozen=True)
class SpectrumReport:
    essential: SpectralRegion
    full: SpectralRegion
    rho: float
    type_class: TypeClass
    partition: OrbitPartition
    dw: DenjoyWolffRecord
    notes: tuple = field(default_factory=tuple)


def _dw_cycle_index(part: OrbitPartition, omega: complex) -> int:
    for i, c in enumerate(part.cycles):
        if c.length == 1 and abs(c.points[0] - omega) <= MATCH_TOL:
            return i
    raise InvalidDataError(
        "boundary Denjoy-Wolff point is not a singleton cycle")


def synthesize(s: Symbol | Analysis) -> SpectrumReport:
    """Full decision procedure for a certified order-2-contact symbol."""
    a = analyze(s)
    cert = a.certificate
    if not cert.accepted:
        raise NotCertifiedError(
            f"symbol fails order-2 certification at {[c.zeta for c in cert.failing]}")
    dw = a.boundary.denjoy_wolff
    part = partition(a)
    notes = []
    tclass = a.type_class
    if tclass is TypeClass.PARABOLIC_AUTOMORPHISM:
        raise InvalidDataError(
            "parabolic automorphism-type symbol is outside the synthesis "
            "theorems (and cannot be order-2 certified)")

    if not part.cycles:
        # compact (empty contact set) or power-compact (all iterate-out)
        lam = dw.derivative
        essential = region(Points((0.0 + 0.0j,)))
        full = region(_eigenvalue_tail(lam), Points((0.0 + 0.0j,)))
        notes.append("compact" if not part.all_points else
                     "power-compact: all contact points iterate out")
        return SpectrumReport(essential, full, 0.0, tclass, part, dw,
                              tuple(notes))

    if tclass is TypeClass.DILATION:
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
        notes.append("interior Denjoy-Wolff point: disk of radius rho plus "
                     "finitely many eigenvalue powers")
        return SpectrumReport(essential, full, r, tclass, part, dw,
                              tuple(notes))

    if tclass is TypeClass.HYPERBOLIC:
        r = 1.0 / math.sqrt(dw.derivative.real)
        r_cycles = rho(part)
        if abs(r - r_cycles) > 1e-9 * max(1.0, r):
            raise InvalidDataError(
                f"cycle-derived rho {r_cycles} disagrees with "
                f"1/sqrt(phi'(omega)) = {r}")
        both = region(Disk(r))
        notes.append("hyperbolic Denjoy-Wolff point: spectrum is the closed "
                     "disk of radius 1/sqrt(phi'(omega))")
        return SpectrumReport(both, both, r, tclass, part, dw, tuple(notes))

    # parabolic non-automorphism type
    j_star = _dw_cycle_index(part, dw.omega)
    r_star = rho_star(part, j_star)
    prims = [Spiral(dw.omega * second_order_data(a, dw.omega).d2)]
    if r_star > EPS:
        prims.append(Disk(r_star))
    both = region(*prims)
    notes.append("parabolic fixed point: spiral plus disk of radius rho_*")
    return SpectrumReport(both, both, r_star, tclass, part, dw, tuple(notes))


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
    part = partition(a)
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
