"""Linear-fractional (Mobius) self-maps of the unit disk.

A map z -> (a z + b) / (c z + d) is stored in a canonical projective
normalization: all four coefficients are divided by the coefficient of
largest modulus, so the largest one becomes exactly 1 (argument 0).
This makes equality testing and golden files stable.

The module also builds the unique non-automorphic linear-fractional map
with prescribed second-order boundary data, via conjugation to the right
half-plane where the map becomes affine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import EPS
from .errors import DegenerateMapError, InvalidDataError, PoleError

__all__ = [
    "MobiusMap",
    "SecondOrderData",
    "IDENTITY_FIXED",
    "AT_INFINITY",
    "derivative",
    "second_derivative",
    "fixed_points",
    "lfm_from_data",
    "is_disk_automorphism",
]

#: Sentinel returned by :func:`fixed_points` for the identity map.
IDENTITY_FIXED = "identity"

#: Sentinel standing for the fixed point at infinity (exterior marker).
AT_INFINITY = "infinity"


def _finite(*values: complex) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag)
               for v in map(complex, values))


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d), canonically normalized."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = (complex(self.a), complex(self.b),
                      complex(self.c), complex(self.d))
        if not _finite(a, b, c, d):
            raise InvalidDataError("Mobius coefficients must be finite")
        coeffs = np.array([a, b, c, d])
        moduli = np.abs(coeffs)
        pivot = coeffs[int(np.argmax(moduli))]
        if abs(pivot) == 0.0:
            raise DegenerateMapError("all coefficients are zero")
        coeffs = coeffs / pivot
        a, b, c, d = coeffs
        det = a * d - b * c
        if abs(det) <= EPS:
            raise DegenerateMapError(
                f"determinant {det} below tolerance after normalization")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)

    def is_identity(self, tol: float = EPS) -> bool:
        return (abs(self.a - self.d) <= tol
                and abs(self.b) <= tol and abs(self.c) <= tol)

    def close_to(self, other: "MobiusMap", tol: float = EPS) -> bool:
        """Coefficient-wise comparison of the canonical forms.

        Projective scale ambiguity remains when two coefficients tie in
        modulus, so we also try aligning the phases.
        """
        u = self.matrix.ravel()
        v = other.matrix.ravel()
        if np.max(np.abs(u - v)) <= tol:
            return True
        k = int(np.argmax(np.abs(u)))
        if abs(v[k]) == 0:
            return False
        w = v * (u[k] / v[k])
        return bool(np.max(np.abs(u - w)) <= tol)


#: R(z) = (1 + z) / (1 - z), the disk -> right-half-plane conjugator.
_R = MobiusMap(1, 1, -1, 1)
_R_INV = MobiusMap(1, -1, 1, 1)


def compose(outer: MobiusMap, inner: MobiusMap) -> MobiusMap:
    """outer(inner(z)) via the 2x2 coefficient-matrix product."""
    m = outer.matrix @ inner.matrix
    try:
        return MobiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    except DegenerateMapError as exc:
        raise DegenerateMapError("near-singular composition") from exc


def evaluate(m: MobiusMap, z: complex) -> complex:
    den = m.c * z + m.d
    scale = max(abs(m.c) * abs(z), abs(m.d), 1.0)
    if abs(den) <= EPS * scale:
        raise PoleError(f"evaluation at pole of Mobius map, z={z}")
    return (m.a * z + m.b) / den


def derivative(m: MobiusMap, z: complex) -> complex:
    den = m.c * z + m.d
    scale = max(abs(m.c) * abs(z), abs(m.d), 1.0)
    if abs(den) <= EPS * scale:
        raise PoleError(f"derivative at pole of Mobius map, z={z}")
    return m.det / den ** 2


def second_derivative(m: MobiusMap, z: complex) -> complex:
    den = m.c * z + m.d
    scale = max(abs(m.c) * abs(z), abs(m.d), 1.0)
    if abs(den) <= EPS * scale:
        raise PoleError(f"second derivative at pole of Mobius map, z={z}")
    return -2.0 * m.c * m.det / den ** 3


def fixed_points(m: MobiusMap):
    """Fixed points of m, as a list.

    Returns ``IDENTITY_FIXED`` for the identity map.  A fixed point at
    infinity appears as the ``AT_INFINITY`` sentinel.  A parabolic double
    root is returned once (discriminant modulus below tolerance relative
    to the coefficient scale).
    """
    if m.is_identity():
        return IDENTITY_FIXED
    # roots of c z^2 + (d - a) z - b = 0 (coefficients are normalized,
    # so the scale of this quadratic is O(1))
    A = m.c
    B = m.d - m.a
    C = -m.b
    if abs(A) <= EPS:
        if abs(B) <= EPS:
            # translation-like: only fixed point at infinity
            return [AT_INFINITY]
        return [-C / B, AT_INFINITY]
    disc = B * B - 4.0 * A * C
    if abs(disc) <= EPS:
        return [-B / (2.0 * A)]
    sq = cmath.sqrt(disc)
    # align sq with B so the addition below never cancels
    if (B.conjugate() * sq).real < 0:
        sq = -sq
    q = -(B + sq) / 2.0
    return [q / A, C / q]


def from_halfplane(m: MobiusMap) -> MobiusMap:
    """R^-1 o m o R with R(z) = (1+z)/(1-z): the disk map of which the
    half-plane map m is the incarnation."""
    return compose(_R_INV, compose(m, _R))


def _scaling(lam: complex) -> MobiusMap:
    return MobiusMap(lam, 0, 0, 1)


@dataclass(frozen=True)
class SecondOrderData:
    """(phi(zeta), phi'(zeta), phi''(zeta)) at a unimodular contact point.

    Invariants: ``|zeta| = |value| = 1`` and ``zeta * conj(value) * d1``
    is real and positive (the Julia-Caratheodory alignment of the
    angular derivative).
    """

    zeta: complex
    value: complex
    d1: complex
    d2: complex

    def __post_init__(self):
        z, v, d1, d2 = (complex(self.zeta), complex(self.value),
                        complex(self.d1), complex(self.d2))
        if not _finite(z, v, d1, d2):
            raise InvalidDataError("second-order data must be finite")
        if abs(abs(z) - 1.0) > EPS:
            raise InvalidDataError(f"|zeta| = {abs(z)} is not 1")
        if abs(abs(v) - 1.0) > EPS:
            raise InvalidDataError(f"|value| = {abs(v)} is not 1")
        aligned = z * v.conjugate() * d1
        if abs(aligned.imag) > EPS * max(1.0, abs(aligned)) or aligned.real <= 0:
            raise InvalidDataError(
                f"zeta*conj(value)*d1 = {aligned} is not real positive")
        object.__setattr__(self, "zeta", z)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)

    def contact_margin(self) -> float:
        """Re(1/|d1| + zeta*d2/(d1*|d1|) - 1).

        Positive exactly when the data has order-2 contact (and, for
        constructed linear-fractional matches, exactly when the match is
        not a disk automorphism).
        """
        mod = abs(self.d1)
        return (1.0 / mod + self.zeta * self.d2 / (self.d1 * mod) - 1.0).real


def extract_data(m: MobiusMap, zeta: complex) -> SecondOrderData:
    """Second-order data of a linear-fractional map at a boundary point."""
    return SecondOrderData(zeta, evaluate(m, zeta), derivative(m, zeta),
                           second_derivative(m, zeta))


def lfm_from_data(data: SecondOrderData) -> MobiusMap:
    """The unique non-automorphic linear-fractional self-map with the
    given second-order data.

    Construction: align ``s(z) = conj(value) * psi(zeta z)`` so that
    ``s`` fixes 1 with positive derivative ``|d1|``; its right-half-plane
    incarnation is the affine map ``Sigma(w) = A w + B`` with
    ``A = 1/|d1|`` and ``B = 1/|d1| - 1 + zeta*d2/(d1*|d1|)``; then
    un-conjugate.  ``Re(B) > 0`` certifies a non-automorphic self-map.
    """
    margin = data.contact_margin()
    if margin <= EPS:
        raise InvalidDataError(
            f"not order-2 contact data (margin {margin:.3e})")
    mod = abs(data.d1)
    A = 1.0 / mod
    B = 1.0 / mod - 1.0 + data.zeta * data.d2 / (data.d1 * mod)
    sigma = MobiusMap(A, B, 0, 1)
    s = from_halfplane(sigma)
    # psi(z) = value * s(conj(zeta) * z)
    psi = compose(_scaling(data.value),
                  compose(s, _scaling(data.zeta.conjugate())))
    if is_disk_automorphism(psi):
        raise InvalidDataError("resulting map is a disk automorphism")
    back = extract_data(psi, data.zeta)
    err = max(abs(back.value - data.value),
              abs(back.d1 - data.d1),
              abs(back.d2 - data.d2))
    scale = max(1.0, abs(data.d1), abs(data.d2))
    if err > 1e-9 * scale:
        raise InvalidDataError(
            f"round-trip of second-order data failed (error {err:.3e})")
    return psi


def is_disk_automorphism(m: MobiusMap) -> bool:
    """True iff m maps the unit circle onto itself.

    Fits the canonical automorphism form lambda (z - p)/(1 - conj(p) z)
    and compares coefficients; exact and cheap for linear-fractional
    maps, no boundary sampling.
    """
    if abs(m.a) <= EPS:
        return False
    p = -m.b / m.a
    if abs(p) >= 1.0 - EPS:
        return False
    # lambda from the image of a convenient circle point
    probe = 1.0 if abs(1.0 - p) > 0.5 else -1.0
    try:
        lam = evaluate(m, probe) * (1.0 - p.conjugate() * probe) / (probe - p)
    except PoleError:
        return False
    if abs(abs(lam) - 1.0) > 1e2 * EPS:
        return False
    candidate = MobiusMap(lam, -lam * p, -p.conjugate(), 1)
    return m.close_to(candidate, tol=1e2 * EPS)
