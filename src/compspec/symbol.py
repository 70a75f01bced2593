"""Symbols: rational self-maps of the disk and boundary-data records.

A rational symbol is given by numerator/denominator coefficient arrays
(ascending powers) and must be analytic on the closed disk, map the disk
into itself, and not be inner.  A boundary-data symbol carries explicit
second-order data at finitely many unimodular points plus a declared
Denjoy-Wolff record; it is the entry path for non-rational maps, and
the one place where boundary points are matched.

The synthesis reads only boundary data, so :func:`analyze` reduces a
symbol of either kind, once, to an :class:`Analysis`: a boundary-data
symbol, its order-2 certificate and the orbit partition of its contact
set.  It is the one place that knows the kind, and the one scope
verdict every projection shares.  Every other public function accepts
either kind or an analysis and reduces it once at entry.

The self-map test and the contact set of a rational symbol are read off
the circle critical points of T = |N|^2 - |D|^2: the circle roots of
H = z G' - deg G, where G = N N~ - D D~ (P~(z) = z^deg conj(P)(1/z)) and
T(theta) = e^{-i deg theta} G(e^{i theta}).  phi is a self-map when
|phi| <= 1 + EPS there and at z = 1.  T is monotone between critical
points, so a contact is a maximal cyclic run of them where |phi| = 1 to
CONTACT_TOL, of multiplicity run length + 1 (an order-2 contact is a
simple root of H).  A longer run within 1e-3 of its middle is one
multiple root of H, split by roundoff; its mean angle is the root to
about roundoff, as the cluster's odd terms cancel.  Any other run is
Newton-polished on d/dtheta |phi|^2 from its middle.

Each polynomial root (of D, of H and of N - zD) comes from one
companion-matrix solve at the polynomial's true degree: a polynomial
whose lowest nonzero coefficient is at z^s, and whose other nonzero
coefficients sit s plus multiples of m apart, is z^s q(z^m); its roots
are s exact zeros and the m-th roots of q's.  A symbol psi(z^k), the
usual way to place k contact points, has D a polynomial in z^k, H one
in z^2k and, when psi(0) = 0, N - zD one of the form z q(z^k), so the
solves shrink by those factors.

phi, phi' and phi'' at a point come from one jet: one Horner pass over
D and one over each of N, U and V asked for (phi' = U/D^2, phi'' =
V/D^3).  Numpy computes what reaches a report: the products
(np.convolve), N and D at the critical points (np.polyval), the
critical angles and the eigen-solves.  Python does the bookkeeping on
complex lists (trims, rescale, reflection, subtraction, derivatives,
scope tests) with numpy.polynomial's operations in its order, so every
double is its double, signed zeros included.  The jet and the
per-point loops run on Python complex too: a numpy call on a few
numbers costs more than its arithmetic.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import CONTACT_TOL, EPS, MATCH_TOL, PICK_FACTOR, REAL_TOL
from .errors import (InvalidDataError, NotInScopeError, RootFindingError)
from .mobius import SecondOrderData, _finite

if TYPE_CHECKING:
    from .dynamics import OrbitPartition

__all__ = [
    "RationalSymbol", "BoundaryDataSymbol", "Symbol",
    "DenjoyWolffRecord", "TypeClass", "ClarkAtoms",
    "ContactPoint", "S2Certificate", "PointCheck", "Analysis", "analyze",
    "contact_set", "contact_points", "second_order_data",
    "denjoy_wolff", "classify_type",
    "certify_s2", "clark_atoms", "essential_norm_sq",
]

DEGREE_CAP = 64
# how far roundoff may move a multiple root of H: a root this close to
# the circle is a critical point of T, and a run of critical points this
# close to its middle is one multiple root, split
_SPLIT_ROOT = 1e-3


def _trimmed(c: list) -> list:
    """c without trailing zeros, keeping at least one entry."""
    while len(c) > 1 and not c[-1]:
        c = c[:-1]
    return c


def _trim(coeffs) -> list:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise InvalidDataError("coefficient array must be 1-d and nonempty")
    if not all(map(cmath.isfinite, c := _trimmed(c.tolist()))):
        raise InvalidDataError("coefficients must be finite")
    return c


def _scaled(c: list, e: int) -> list:
    """c times 2^e, exact bar subnormals."""
    return [complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in c]


def _der(c: list) -> list:
    return [a * k for k, a in enumerate(c) if k] or [c[0] * 0]


def _mul(a, b) -> list:
    return _trimmed(np.convolve(a, b).tolist())


def _sub(a: list, b: list) -> list:   # polysub: past a, -b, not 0 - b
    return _trimmed([x - y for x, y in zip(a, b)] + a[len(b):]
                    + [-y for y in b[len(a):]])


def _reflection(n, d, deg: int) -> list:
    """G = N N~ - D D~, where P~(z) = z^deg conj(P)(1/z)."""
    def reflect(c):
        return _trimmed([a.conjugate() for a in reversed(
            list(c) + [0j] * (deg + 1 - len(c)))])
    return _sub(_mul(n, reflect(n)), _mul(d, reflect(d)))


def _roots(c) -> np.ndarray:
    """Companion-matrix roots of c; a failed solve is a typed error.

    c(z) = z^s q(z^m), with s the lowest power of c with a nonzero
    coefficient and m the gcd of the exponents of c / z^s.  The s zero
    roots are exact and listed first; each root w of q gives the m roots
    w^(1/m) e^{2 pi i j / m}.  q's roots are numpy.polynomial's
    polyroots(q), bit for bit: its companion matrix, solve and sort.  c
    is first scaled by a power of two to max |c| in [1/2, 1) (exact; it
    lifts subnormal terms), and terms then below 2^-1022 are dropped: a
    top one only adds roots far off the circle, which overflow the
    companion matrix; any other moves roots by roundoff."""
    c = [0j if abs(z) < 2.0 ** -1022 else z
         for z in _scaled(c, -math.frexp(max(map(abs, c)))[1])]
    exponents = [k for k, z in enumerate(c) if z]
    s = exponents[0] if exponents else 0
    m = math.gcd(*(k - s for k in exponents))
    q = _trimmed(c[s::m] if m > 1 else c[s:])
    try:
        with np.errstate(all="ignore"):   # the result is checked below
            if len(q) < 3:   # polyroots' own path below degree 2
                roots = np.array([-np.complex128(q[0]) / q[1]]
                                 if len(q) == 2 else [], dtype=complex)
            else:            # polycompanion(q)
                mat = np.eye(len(q) - 1, k=-1, dtype=complex)
                mat[:, -1] -= np.array(q[:-1]) / q[-1]
                roots = np.linalg.eigvals(mat)
                roots.sort()
            if m > 1:
                unity = np.exp(2j * np.pi * np.arange(m) / m)
                roots = np.outer(roots ** (1.0 / m), unity).ravel()
        if np.isfinite(roots).all():
            return np.concatenate((np.zeros(s, dtype=complex), roots))
    except np.linalg.LinAlgError:
        pass
    raise RootFindingError("companion-matrix root finding failed")


class _Polys(NamedTuple):
    """Coefficients of phi = N/D, built once with the symbol, and the
    circle critical points of T by angle in [0, 2 pi), with |phi| at each."""
    n: list
    d: list
    critical: np.ndarray
    modulus: np.ndarray


@dataclass(frozen=True)
class RationalSymbol:
    """phi = N/D with D zero-free on the closed disk and |phi| <= 1."""

    num: tuple
    den: tuple
    _polys: _Polys = field(init=False, repr=False, compare=False)
    # D, N, U, V, highest power first (phi' = U/D^2, phi'' = V/D^3)
    _desc: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, d = _trim(self.num), _trim(self.den)
        if not any(d):
            raise InvalidDataError("denominator is identically zero")
        object.__setattr__(self, "num", tuple(n))
        object.__setattr__(self, "den", tuple(d))
        # an exact (bar subnormals) power-of-two rescale: u, g cannot overflow
        e = math.frexp(max(map(abs, n + d)))[1]
        n, d = _scaled(n, -e), _scaled(d, -e)
        deg = max(len(n), len(d)) - 1
        if deg > DEGREE_CAP:
            raise InvalidDataError(f"degree exceeds cap {DEGREE_CAP}")
        if len(d) > 1:
            bad = [r for r in _roots(d).tolist() if abs(r) <= 1.0 + EPS]
            if bad:   # by angle, so the text does not depend on the solver
                bad.sort(key=lambda r: cmath.phase(r) % (2.0 * math.pi))
                raise InvalidDataError(
                    f"denominator roots in the closed disk: {np.array(bad)}")
        g = _reflection(n, d, deg)
        # H = z G' - deg G
        roots = _roots([c * (k - deg) for k, c in enumerate(g)]).tolist()
        near = [r for r in roots if abs(abs(r) - 1.0) < _SPLIT_ROOT]
        crit = np.exp(1j * np.sort(np.angle(near) % (2.0 * np.pi)))
        z = np.append(crit, 1.0)
        # np.polyval's Horner loop gives numpy.polynomial's polyval doubles
        vals = np.abs(np.polyval(n[::-1], z) / np.polyval(d[::-1], z))
        if vals.max() > 1.0 + EPS:
            raise InvalidDataError(
                f"sup |phi| on the circle is {vals.max()} > 1")
        # nonconstant: numerator of phi' must not vanish identically;
        # u is bilinear in (n, d), so its scale is |n| |d|
        dd = _der(d)
        u = _sub(_mul(_der(n), d), _mul(n, dd))
        if max(map(abs, u)) <= EPS * max(map(abs, n)) * max(map(abs, d)):
            raise InvalidDataError("symbol is constant")
        if max(map(abs, g)) <= 1e-12 * max(map(abs, n + d)) ** 2:
            raise NotInScopeError("not in scope: inner symbol")
        v = _sub(_mul(_der(u), d), _mul(_mul(u, dd), [2.0]))
        object.__setattr__(self, "_polys", _Polys(n, d, crit, vals[:-1]))
        object.__setattr__(self, "_desc", tuple(
            tuple(a[::-1]) for a in (d, n, u, v)))

    # -- evaluation -------------------------------------------------
    def _jet(self, k: int, z: complex) -> list[complex]:
        """The first k of phi, phi' and phi'' at z: N/D, U/(D D) and
        V/(D D D), from one Horner pass over D and one over each of N,
        U and V that is needed."""
        z = complex(z)
        desc = self._desc
        d = 0j
        for c in desc[0]:
            d = d * z + c
        jet, den = [], d
        for poly in desc[1: k + 1]:
            if den == 0:
                raise RootFindingError(f"denominator of phi vanishes at {z}")
            top = 0j
            for c in poly:
                top = top * z + c
            jet.append(top / den)
            den *= d
        return jet

    def value(self, z: complex) -> complex:
        return self._jet(1, z)[0]

    def deriv(self, z: complex) -> complex:
        return self._jet(2, z)[1]

    def deriv2(self, z: complex) -> complex:
        return self._jet(3, z)[2]


class Location(str, enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class DenjoyWolffRecord:
    omega: complex
    derivative: complex
    location: Location

    def __post_init__(self):
        omega = complex(self.omega)
        deriv = complex(self.derivative)
        loc = Location(self.location)
        if not _finite(omega, deriv):
            raise InvalidDataError("Denjoy-Wolff data must be finite")
        if loc is Location.INTERIOR:
            if abs(omega) >= 1.0 - EPS:
                raise InvalidDataError("interior DW point has |omega| >= 1")
            if abs(deriv) >= 1.0:
                raise InvalidDataError("interior DW derivative not < 1")
        else:
            if abs(abs(omega) - 1.0) > EPS:
                raise InvalidDataError("boundary DW point not unimodular")
            if abs(deriv.imag) > EPS or not (0.0 < deriv.real <= 1.0 + EPS):
                raise InvalidDataError(
                    f"boundary DW derivative {deriv} not in (0, 1]")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "derivative", deriv)
        object.__setattr__(self, "location", loc)


@dataclass(frozen=True)
class BoundaryDataSymbol:
    """A symbol known only through second-order data at its contact set
    (which may be empty: the operator is then compact).  Its points lie
    more than 10 MATCH_TOL apart; ``successor[i]`` is the point within
    MATCH_TOL of points[i]'s image and ``omega_index`` the one within
    MATCH_TOL of a boundary omega, each None when there is none."""

    points: tuple
    denjoy_wolff: DenjoyWolffRecord
    successor: tuple = field(init=False, repr=False, compare=False)
    omega_index: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(self.points)
        for p in pts:
            if not isinstance(p, SecondOrderData):
                raise InvalidDataError("points must be SecondOrderData")
        zetas = [p.zeta for p in pts]
        if any(abs(a - b) <= 10 * MATCH_TOL
               for a, b in itertools.combinations(zetas, 2)):
            raise InvalidDataError("contact points not distinct")

        def match(w: complex) -> int | None:
            return next((i for i, z in enumerate(zetas)
                         if abs(z - w) <= MATCH_TOL), None)

        successor = tuple(match(p.value) for p in pts)
        dw, omega = self.denjoy_wolff, None
        if dw.location is Location.BOUNDARY:
            omega = match(dw.omega)
            if omega is None:
                raise InvalidDataError(
                    "boundary DW point is not among the declared points")
            if successor[omega] != omega:
                raise InvalidDataError("declared DW point is not fixed")
            d1 = pts[omega].d1
            if abs(d1 - dw.derivative) > 1e-6 * max(1.0, abs(d1)):
                raise InvalidDataError(
                    "declared DW derivative disagrees with point data")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "successor", successor)
        object.__setattr__(self, "omega_index", omega)


Symbol = RationalSymbol | BoundaryDataSymbol


class TypeClass(str, enum.Enum):
    DILATION = "dilation"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC_NON_AUTOMORPHISM = "parabolic-non-automorphism"
    PARABOLIC_AUTOMORPHISM = "parabolic-automorphism"


@dataclass(frozen=True)
class ContactPoint:
    zeta: complex
    multiplicity: int


@dataclass(frozen=True)
class ClarkAtoms:
    alpha: complex
    atoms: tuple  # of (zeta, mass) pairs

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))


@dataclass(frozen=True)
class PointCheck:
    zeta: complex
    margin: float
    order_two: bool
    multiplicity: int
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class S2Certificate:
    accepted: bool
    checks: tuple
    notes: tuple = field(default_factory=tuple)

    @property
    def failing(self):
        return [c for c in self.checks if not c.ok]


# ----------------------------------------------------------------------
# the reduction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Analysis:
    """A symbol reduced to boundary data by :func:`analyze`.  The
    certificate's checks follow ``boundary.points`` and carry each
    point's multiplicity as a zero of |N|^2 - |D|^2 on the circle (1
    for declared data)."""

    boundary: BoundaryDataSymbol
    certificate: S2Certificate
    partition: OrbitPartition

    @property
    def type_class(self) -> TypeClass:
        b, i = self.boundary, self.boundary.omega_index
        return classify_type(b.denjoy_wolff, None if i is None else b.points[i])


def analyze(s: Symbol | Analysis) -> Analysis:
    """Reduce a symbol to its boundary data, order-2 certificate and
    orbit partition.

    For a rational symbol this finds the contact points, the
    second-order data at each of them and the Denjoy-Wolff point, each
    exactly once.  The partition's walk refuses an attracting boundary
    cycle, so no projection of the analysis accepts one.  Declared
    boundary data must also pass the boundary Pick test, which a
    rational symbol's data, taken from a self-map, pass by construction.
    An analysis is returned unchanged."""
    if isinstance(s, Analysis):
        return s
    from .dynamics import partition   # dynamics imports this module
    if isinstance(s, BoundaryDataSymbol):
        orbits = partition(s)
        _check_pick(s)
        return Analysis(s, _certificate(
            s.points, [1] * len(s.points),
            "conditions (i), (ii), (iv): declared by the boundary-data record",
            "d2 is declared, not tested against a self-map: the boundary "
            "Pick test reads only the values and |phi'|"), orbits)
    contacts = contact_points(s)
    points = tuple(_data_at(s, cp.zeta) for cp in contacts)
    certificate = _certificate(
        points, [cp.multiplicity for cp in contacts],
        "conditions (i), (ii), (iv): automatic for a rational symbol "
        "analytic on the closed disk")
    boundary = BoundaryDataSymbol(points, _rational_denjoy_wolff(s, points))
    return Analysis(boundary, certificate, partition(boundary))


def _pick_matrix(b: BoundaryDataSymbol) -> np.ndarray:
    """The boundary Pick matrix of the data (Sarason 1998): one node per
    contact point zeta -> phi(zeta) with |phi'(zeta)| on the diagonal,
    and omega -> omega with 1 there when omega is interior.  Off the
    diagonal the entry is (1 - w_a conj(w_b)) / (1 - z_a conj(z_b)).  It
    is positive semidefinite for every self-map with this data."""
    dw = b.denjoy_wolff
    interior = [dw.omega] if dw.location is Location.INTERIOR else []
    z = np.array([p.zeta for p in b.points] + interior, dtype=complex)
    w = np.array([p.value for p in b.points] + interior, dtype=complex)
    den = 1.0 - np.outer(z, z.conj())
    np.fill_diagonal(den, 1.0)
    pick = (1.0 - np.outer(w, w.conj())) / den
    np.fill_diagonal(pick, [abs(p.d1) for p in b.points]
                     + [1.0] * len(interior))
    return pick


def _check_pick(b: BoundaryDataSymbol) -> None:
    """Refuse declared data that no self-map has: a boundary Pick matrix
    with an eigenvalue clearly below 0."""
    vals = np.linalg.eigvalsh(_pick_matrix(b))
    if vals[0] < -PICK_FACTOR * EPS * np.abs(vals).max():
        raise InvalidDataError(
            "no self-map has this boundary data: its Pick matrix has the "
            f"eigenvalue {vals[0]:.3g} < 0")


def _polish_contact(s: RationalSymbol, theta0: float) -> float:
    """Newton on d/dtheta |phi(e^{i theta})|^2 from the seed angle."""
    theta = theta0
    for _ in range(60):
        z = cmath.exp(1j * theta)
        f, f1, f2 = s._jet(3, z)
        ft = 1j * z * f1                      # d/dtheta phi(e^{i theta})
        ftt = -z * f1 - z * z * f2
        g = 2.0 * (f.conjugate() * ft).real
        gp = 2.0 * (abs(ft) ** 2 + (f.conjugate() * ftt).real)
        if abs(gp) < 1e-14:
            break
        step = g / gp
        theta -= step
        if abs(step) < 1e-15:
            break
    return theta


def _split_root(run: np.ndarray, mid: complex) -> float | None:
    """The angle of one multiple root of H that roundoff split into the
    run of critical points, as their mean angle, or None when the run
    spreads beyond _SPLIT_ROOT of its middle point mid."""
    rel = np.angle(run * np.conj(mid))      # safe across +-pi
    if np.all(np.abs(rel) < _SPLIT_ROOT):
        return float(np.angle(mid)) + float(np.mean(rel))
    return None


def contact_points(s: RationalSymbol) -> list[ContactPoint]:
    """Contact points of a rational symbol by angle in [0, 2 pi), with
    their multiplicities: the contact-locating step of :func:`analyze`."""
    crit = s._polys.critical
    on = [abs(v - 1.0) < CONTACT_TOL for v in s._polys.modulus.tolist()]
    # start the cycle off every run
    start = on.index(False) if False in on else 0
    cycle = itertools.chain(range(start, len(on)), range(start))
    contacts, runs = [], itertools.groupby(cycle, on.__getitem__)
    for run in (list(g) for k, g in runs if k):
        mid = crit[run[len(run) // 2]]
        theta = _split_root(crit[run], mid) if len(run) > 1 else None
        if theta is None:
            theta = _polish_contact(s, float(np.angle(mid)))
        z = cmath.exp(1j * theta)
        # components below 1e-15 are roundoff of an exact zero (as in
        # Im e^{i pi}), and their sign differs between platforms
        z = complex(*(0.0 if abs(x) < 1e-15 else x for x in (z.real, z.imag)))
        if abs(abs(s._jet(1, z)[0]) - 1.0) < CONTACT_TOL:
            contacts.append(ContactPoint(z, len(run) + 1))
    contacts.sort(key=lambda cp: cmath.phase(cp.zeta) % (2.0 * np.pi))
    return contacts


def _data_at(s: RationalSymbol, z: complex) -> SecondOrderData:
    value, d1, d2 = s._jet(3, z)
    value /= abs(value)  # unimodular up to roundoff by construction
    return SecondOrderData(z, value, d1, d2)


def _certificate(points, multiplicities, *notes: str) -> S2Certificate:
    """Per-contact-point order-2 checks; rejection is a value."""
    checks = []
    for data, mult in zip(points, multiplicities):
        margin = data.contact_margin()
        order2 = margin > EPS
        why = ("contact order exceeds 2" if mult > 2 else
               "" if order2 else "order-2 contact inequality fails")
        checks.append(PointCheck(data.zeta, margin, order2, mult, not why,
                                 why))
    return S2Certificate(all(c.ok for c in checks), tuple(checks), notes)


def _without_double_root(f: list, zeta: complex) -> list:
    """f / (z - zeta)^2 when both remainders of synthetic division by
    z - zeta are at most EPS max|f|, else f: zeta is then a double root
    of f up to roundoff."""
    if len(f) < 3:
        return f
    q = f[::-1]      # highest power first
    tol = EPS * max(map(abs, q))
    for _ in range(2):
        for k in range(1, len(q)):
            q[k] += zeta * q[k - 1]
        if abs(q.pop()) > tol:
            return f
    return q[::-1]


def _rational_denjoy_wolff(s: RationalSymbol, points) -> DenjoyWolffRecord:
    """Denjoy-Wolff point of a rational symbol, given the second-order
    data at its contact points, read off the roots of N - zD alone: the
    attracting fixed point inside the disk, else the boundary fixed
    point with phi' <= 1 (Schwarz, Denjoy-Wolff, Julia-Caratheodory).

    Every boundary fixed point is a contact point whose value matches
    it within ``MATCH_TOL``.  Where one is a double root of N - zD (phi'
    = 1 there, the parabolic case), it is divided out before the roots
    are found, since roundoff would split it by about sqrt(roundoff).
    Each root then left inside 1 - EPS is Newton-polished on phi(z) - z,
    the simple boundary roots deflated (Maehly) so that none attracts
    it; roots that meet within MATCH_TOL are one.  It must land inside
    1 - EPS with |phi'| < 1 - EPS: a fixed point there that does not
    attract makes phi' > 1 at every boundary fixed point (Julia's
    lemma), so no answer would be right."""
    n, d = s._polys.n, s._polys.d
    # N(z) - z D(z); the zero below z D is written d[0] * 0, as polymulx does
    f = _sub(n, [d[0] * 0] + d)
    if len(f) <= 1:
        raise RootFindingError("fixed-point polynomial is degenerate")
    fixed = [p for p in points if abs(p.value - p.zeta) <= MATCH_TOL]
    simple = []      # the fixed points left in f, simple roots of it
    for data in fixed:
        divided = _without_double_root(f, data.zeta)
        if divided is f:
            simple.append(data.zeta)
        f = divided
    found = []
    for z in [r for r in _roots(f).tolist() if abs(r) < 1.0 - EPS]:
        # Newton on g = phi(z) - z over prod (z - zeta_k), zeta_k simple
        w, w1 = s._jet(2, z)
        for _ in range(50):
            g, den = w - z, w1 - 1.0
            if simple:
                den -= g * sum(1.0 / (z - zeta) for zeta in simple)
            step = g / den
            z -= step
            w, w1 = s._jet(2, z)
            if abs(step) < 1e-15:
                break
        if not (abs(z) < 1.0 - EPS and abs(w1) < 1.0 - EPS):
            raise RootFindingError(
                f"a root of N - zD inside the disk polishes to {z}, which "
                f"does not attract: |phi'| = {abs(w1)!r}")
        if all(abs(z - o.omega) > MATCH_TOL for o in found):
            found.append(DenjoyWolffRecord(z, w1, Location.INTERIOR))
    if len(found) > 1:
        raise RootFindingError(
            f"multiple interior DW candidates: {[f_.omega for f_ in found]}")
    if not found:
        for data in fixed:
            dp = data.d1
            if (abs(dp.imag) <= REAL_TOL * max(1.0, abs(dp))
                    and 0 < dp.real <= 1.0 + EPS):
                found.append(DenjoyWolffRecord(
                    data.zeta, min(dp.real, 1.0), Location.BOUNDARY))
        if len(found) != 1:
            raise RootFindingError(
                "no unique root satisfies the Denjoy-Wolff characterization; "
                f"boundary fixed points: {[p.zeta for p in fixed]}")
    return found[0]


# ----------------------------------------------------------------------
# projections of the analysis
# ----------------------------------------------------------------------

def contact_set(s: Symbol | Analysis) -> list[complex]:
    """Unimodular points where phi has finite angular derivative."""
    return [p.zeta for p in analyze(s).boundary.points]


def second_order_data(s: Symbol | Analysis, zeta: complex) -> SecondOrderData:
    a = analyze(s)
    for p in a.boundary.points:
        if abs(p.zeta - zeta) <= MATCH_TOL:
            return p
    raise InvalidDataError(f"{zeta} is not a contact point")


def denjoy_wolff(s: Symbol | Analysis) -> DenjoyWolffRecord:
    """Denjoy-Wolff point, derivative, and location."""
    return analyze(s).boundary.denjoy_wolff


def classify_type(dw: DenjoyWolffRecord,
                  data_at_omega: SecondOrderData | None = None) -> TypeClass:
    if dw.location is Location.INTERIOR:
        return TypeClass.DILATION
    deriv = dw.derivative.real
    if deriv < 1.0 - EPS:
        return TypeClass.HYPERBOLIC
    if data_at_omega is None:
        raise InvalidDataError(
            "parabolic classification needs second-order data at omega")
    a = dw.omega * data_at_omega.d2
    if a.real < -EPS:
        raise InvalidDataError(
            f"violates parabolic-type test premise Re(omega*phi''(omega)) >= 0: {a}")
    if a.real > EPS or abs(a) <= EPS:
        return TypeClass.PARABOLIC_NON_AUTOMORPHISM
    # pure imaginary, nonzero; the C^{3+eps} smoothness needed for this
    # verdict cannot be checked from the data (see certificate notes)
    return TypeClass.PARABOLIC_AUTOMORPHISM


def certify_s2(s: Symbol | Analysis) -> S2Certificate:
    """Per-contact-point order-2 checks; rejection is a value."""
    return analyze(s).certificate


def clark_atoms(s: Symbol | Analysis, alpha: complex) -> ClarkAtoms:
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > EPS:
        raise InvalidDataError("alpha must be unimodular")
    a = analyze(s)
    return ClarkAtoms(alpha, tuple(
        (p.zeta, 1.0 / abs(p.d1)) for p in a.boundary.points
        if abs(p.value - alpha) <= MATCH_TOL))


def essential_norm_sq(s: Symbol | Analysis) -> float:
    """sup over alpha of the pure-point singular mass; 0 means compact."""
    points = analyze(s).boundary.points
    atoms = [(p.value, 1.0 / abs(p.d1)) for p in points]
    return max((float(sum(m for w, m in atoms if abs(w - alpha) <= MATCH_TOL))
                for alpha in (p.value / abs(p.value) for p in points)),
               default=0.0)
