import cmath
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as P

import compspec
from compspec import (BoundaryDataSymbol, DenjoyWolffRecord, Location,
                      RationalSymbol, SecondOrderData, TypeClass, analyze,
                      certify_s2, clark_atoms, classify_type, contact_points,
                      contact_set, denjoy_wolff, essential_norm_sq,
                      second_order_data)
from compspec.errors import (InvalidDataError, NotInScopeError,
                             RootFindingError)
from compspec.symbol import DEGREE_CAP, _boundary_circle
from conftest import count_calls, nearest


# -- validation --------------------------------------------------------

def test_pole_in_disk_rejected():
    with pytest.raises(InvalidDataError):
        RationalSymbol((1,), (1, -2))  # pole at 1/2


def test_not_a_self_map_rejected():
    with pytest.raises(InvalidDataError):
        RationalSymbol((0, 2), (1,))  # |2z| = 2 on the circle


def test_constant_rejected():
    with pytest.raises(InvalidDataError):
        RationalSymbol((0.5,), (1,))


def test_inner_symbols_rejected():
    with pytest.raises(NotInScopeError, match="not in scope: inner symbol"):
        RationalSymbol((0, 1), (1,))  # identity
    with pytest.raises(NotInScopeError, match="inner"):
        RationalSymbol((-0.3, 1), (1, -0.3))  # Blaschke factor
    with pytest.raises(NotInScopeError, match="inner"):
        RationalSymbol((0, 0, 1), (1,))  # z^2


# -- contact set -------------------------------------------------------

def test_contact_set_lollipop(lollipop):
    pts = contact_points(lollipop)
    assert len(pts) == 2
    zs = sorted((p.zeta for p in pts), key=lambda z: z.real)
    assert abs(zs[0] + 1) < 1e-10
    assert abs(zs[1] - 1) < 1e-10
    assert all(p.multiplicity == 2 for p in pts)


def test_contact_set_eight_point(eight_point):
    pts = contact_set(eight_point)
    assert len(pts) == 8
    for k in range(8):
        target = cmath.exp(1j * math.pi * k / 4)
        assert abs(nearest(pts, target) - target) < 1e-9


def test_contact_set_empty(compact_half):
    assert contact_set(compact_half) == []


def test_contact_points_on_circle(lollipop, eight_point):
    for s in (lollipop, eight_point):
        for z in contact_set(s):
            assert abs(abs(z) - 1) < 1e-12
            assert abs(abs(s.value(z)) - 1) < 1e-8


# -- second-order data -------------------------------------------------

def test_second_order_data_lollipop(lollipop):
    d = second_order_data(lollipop, 1.0)
    assert abs(d.value - 1) < 1e-9
    assert abs(d.d1 - 1) < 1e-9
    assert abs(d.d2 - 8) < 1e-8
    d = second_order_data(lollipop, -1.0)
    assert abs(d.value + 1) < 1e-9
    assert abs(d.d1 - 9) < 1e-9
    assert abs(d.d2 + 80) < 1e-7


def test_rational_derivs_match_finite_differences(eight_point):
    s = eight_point
    z = 0.3 - 0.2j
    h = 1e-5
    d1 = (s.value(z + h) - s.value(z - h)) / (2 * h)
    d2 = (s.value(z + h) - 2 * s.value(z) + s.value(z - h)) / h ** 2
    assert abs(s.deriv(z) - d1) < 1e-7
    assert abs(s.deriv2(z) - d2) < 1e-4


def _numpy_reference(s, z):
    """phi, phi', phi'' by numpy polyval on the ascending coefficients."""
    n, d = np.array(s.num), np.array(s.den)
    u = P.polysub(P.polymul(P.polyder(n), d), P.polymul(n, P.polyder(d)))
    v = P.polysub(P.polymul(P.polyder(u), d),
                  P.polymul(P.polymul(u, P.polyder(d)), [2.0]))
    dz = P.polyval(z, d)
    return (P.polyval(z, n) / dz, P.polyval(z, u) / dz ** 2,
            P.polyval(z, v) / dz ** 3)


def _random_symbol(rng, degree):
    """N/D with |D| > sum |N coefficients| on the closed disk."""
    n = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    d = 0.3 * (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
    d[0] = 1.0 + np.abs(n).sum() + np.abs(d[1:]).sum()
    return RationalSymbol(tuple(n), tuple(d))


def test_scalar_evaluation_matches_numpy(lollipop, two_cycle, eight_point):
    rng = np.random.default_rng(7)
    symbols = [lollipop, two_cycle, eight_point] + [
        _random_symbol(rng, k) for k in (1, 2, 3, 8, 17, 32, DEGREE_CAP)]
    points = [0j] + [r * cmath.exp(1j * t) for r in (0.4, 0.9, 1.0)
                     for t in np.linspace(0.0, 2.0 * math.pi, 11)]
    for s in symbols:
        for z in points:
            want = _numpy_reference(s, np.complex128(z))
            for arg in (z, np.complex128(z)):
                got = (s.value(arg), s.deriv(arg), s.deriv2(arg))
                for g, w in zip(got, want):
                    assert type(g) is complex
                    assert abs(g - w) <= 1e-13 * abs(w)


def _bits(c):
    """The coefficient doubles of c without trailing zeros, as raw bits."""
    c = np.ascontiguousarray(np.trim_zeros(np.asarray(c, dtype=complex), "b"))
    return c.view(np.uint64)


# exact zeros are half the draws: sparse symbols such as z^k / (a - b z^k)
# exercise the trimming and the signs of zero that dense ones never reach
_coef = st.one_of(st.just(0j), st.builds(complex, st.floats(-1.0, 1.0),
                                         st.floats(-1.0, 1.0)))


@st.composite
def _coefficients(draw):
    """num and den of degree 1-64, with a constant term of den that keeps
    D zero-free on the closed disk and |phi| < 1."""
    num = draw(st.lists(_coef, min_size=2, max_size=DEGREE_CAP + 1))
    den = draw(st.lists(_coef, min_size=2, max_size=DEGREE_CAP + 1))
    den[0] = 1.0 + sum(map(abs, num)) + sum(map(abs, den[1:]))
    return num, den


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_coefficients())
def test_construction_matches_numpy_polynomial(coefficients):
    try:
        s = RationalSymbol(*coefficients)
    except InvalidDataError:
        assume(False)  # a constant symbol
    n, d = np.array(s.num), np.array(s.den)
    deg = max(n.size, d.size) - 1

    def reflect(c):
        return np.conj(np.pad(c, (0, deg + 1 - c.size)))[::-1]

    u = P.polysub(P.polymul(P.polyder(n), d), P.polymul(n, P.polyder(d)))
    v = P.polysub(P.polymul(P.polyder(u), d),
                  P.polymul(P.polymul(u, P.polyder(d)), [2.0]))
    g = P.polysub(P.polymul(n, reflect(n)), P.polymul(d, reflect(d)))
    # the same doubles, signed zeros included
    assert np.array_equal(_bits(s._polys.g), _bits(g))
    assert np.array_equal(_bits(s._desc[2][::-1]), _bits(u))
    assert np.array_equal(_bits(s._desc[3][::-1]), _bits(v))


def test_boundary_grid_is_built_once_on_first_use():
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    assert np.array_equal(_bits(_boundary_circle()), _bits(np.exp(1j * theta)))
    assert _boundary_circle() is _boundary_circle()
    assert not _boundary_circle().flags.writeable
    # importing builds nothing, so a process that makes no symbol (the
    # lemma lab) does not hold the grid
    code = ("import compspec.symbol as s; "
            "assert s._boundary_circle.cache_info().currsize == 0")
    src = pathlib.Path(compspec.__file__).parents[1]
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_evaluation_at_a_pole_is_a_typed_error():
    s = RationalSymbol((1,), (2, -1))  # 1/(2 - z), pole at z = 2
    for f in (s.value, s.deriv, s.deriv2):
        with pytest.raises(RootFindingError, match="vanishes"):
            f(2.0)


def test_second_order_data_unknown_point(lollipop):
    with pytest.raises(InvalidDataError):
        second_order_data(lollipop, 1j)


# -- Denjoy-Wolff ------------------------------------------------------

def test_dw_boundary_parabolic(lollipop):
    dw = denjoy_wolff(lollipop)
    assert dw.location is Location.BOUNDARY
    assert abs(dw.omega - 1) < 1e-9
    assert abs(dw.derivative - 1) < 1e-9


def test_dw_interior(two_cycle, eight_point, compact_half):
    for s, deriv in ((two_cycle, -1 / 3), (eight_point, 0.0),
                     (compact_half, 0.5)):
        dw = denjoy_wolff(s)
        assert dw.location is Location.INTERIOR
        assert abs(dw.omega) < 1e-9
        assert abs(dw.derivative - deriv) < 1e-9


def test_dw_declared(square_root):
    dw = denjoy_wolff(square_root)
    assert dw.location is Location.BOUNDARY
    assert abs(dw.omega - 1) < 1e-12 and abs(dw.derivative - 0.5) < 1e-12


def test_parabolic_orbit_stops_in_the_horodisk(lollipop, monkeypatch):
    # the whole 5000-step orbit took 5,034 evaluations
    calls = count_calls(monkeypatch, (RationalSymbol, "_ratio"))
    analyze(lollipop)
    assert calls["_ratio"] <= 600


def _full_orbit_reaches(s, omega):
    """The orbit gate without a stop: 5000 steps from 0, or until a step
    is below 1e-12, then within 1e-3 of omega."""
    z = 0j
    for _ in range(5000):
        nxt = s.value(z)
        if abs(nxt - z) < 1e-12:
            z = nxt
            break
        z = nxt
    return abs(z - omega) <= 1e-3


def _parabolic(t, theta):
    """((2-t)z + t) / (-tz + 2 + t) conjugated by the rotation e^{i theta}:
    parabolic non-automorphism with Denjoy-Wolff point e^{i theta}."""
    w = cmath.exp(1j * theta)
    return RationalSymbol((t * w, 2 - t), (2 + t, -t / w)), w


def _hyperbolic(derivative, t=1.4 + 0.1j):
    """The hyperbolic family of perfbench/gen.py at degree 1: the Cayley
    conjugate of w -> lam w + t, Denjoy-Wolff point 1, phi'(1) = 1/lam."""
    lam = 1.0 / derivative
    return RationalSymbol((lam + t - 1, lam - t + 1),
                          (lam + t + 1, lam - t - 1)), 1.0


_GATE_CASES = {
    **{f"parabolic-{t}-{theta}": _parabolic(t, theta)
       for t in (2, 1, 0.5, 0.1, 0.01) for theta in (0, 2.5)},
    **{f"hyperbolic-{p}": _hyperbolic(p) for p in (0.5, 0.99, 0.999)},
}


@pytest.mark.parametrize("s,omega", _GATE_CASES.values(), ids=_GATE_CASES)
def test_orbit_gate_matches_the_full_orbit(s, omega):
    try:
        dw = denjoy_wolff(s)
    except RootFindingError as exc:
        assert "iteration from 0" in str(exc)
        accepted = False
    else:
        assert abs(dw.omega - omega) < 1e-9
        accepted = True
    assert accepted == _full_orbit_reaches(s, omega)


def test_dw_record_validation():
    with pytest.raises(InvalidDataError):
        DenjoyWolffRecord(1.5, 0.5, Location.BOUNDARY)
    with pytest.raises(InvalidDataError):
        DenjoyWolffRecord(1, 1.5, Location.BOUNDARY)
    with pytest.raises(InvalidDataError):
        DenjoyWolffRecord(0, 1.2, Location.INTERIOR)


# -- type classification -----------------------------------------------

def test_classify(lollipop, two_cycle, square_root):
    dw = denjoy_wolff(lollipop)
    assert classify_type(dw, second_order_data(lollipop, dw.omega)) \
        is TypeClass.PARABOLIC_NON_AUTOMORPHISM
    assert classify_type(denjoy_wolff(two_cycle)) is TypeClass.DILATION
    assert classify_type(denjoy_wolff(square_root)) is TypeClass.HYPERBOLIC


def test_classify_needs_data_when_parabolic(lollipop):
    with pytest.raises(InvalidDataError):
        classify_type(denjoy_wolff(lollipop))


# -- certification -----------------------------------------------------

def test_certify_accepts_examples(lollipop, two_cycle, eight_point,
                                  square_root, compact_half):
    for s in (lollipop, two_cycle, eight_point, square_root, compact_half):
        cert = certify_s2(s)
        assert cert.accepted
        assert all(c.margin > 0 for c in cert.checks)


def test_certify_rejects_bad_margin():
    # d1 = 2 at a fixed boundary point with d2 = 0: margin 1/2 - 1 < 0
    bad = SecondOrderData(1, 1, 2, 0)
    dw = DenjoyWolffRecord(0, 0.5, Location.INTERIOR)
    s = BoundaryDataSymbol((bad,), dw)
    cert = certify_s2(s)
    assert not cert.accepted
    assert cert.failing and "order-2" in cert.failing[0].note


def test_boundary_data_dw_coherence():
    p = SecondOrderData(1, 1, 0.5, 0)
    with pytest.raises(InvalidDataError):
        # declared boundary DW point is not among the data points
        BoundaryDataSymbol((p,), DenjoyWolffRecord(-1, 0.5, Location.BOUNDARY))
    with pytest.raises(InvalidDataError):
        # derivative mismatch
        BoundaryDataSymbol((p,), DenjoyWolffRecord(1, 0.25, Location.BOUNDARY))


# -- Clark atoms and essential norm ------------------------------------

def test_clark_atoms_lollipop(lollipop):
    at1 = clark_atoms(lollipop, 1.0)
    assert len(at1.atoms) == 1
    zeta, mass = at1.atoms[0]
    assert abs(zeta - 1) < 1e-9 and abs(mass - 1.0) < 1e-9
    atm1 = clark_atoms(lollipop, -1.0)
    zeta, mass = atm1.atoms[0]
    assert abs(zeta + 1) < 1e-9 and abs(mass - 1 / 9) < 1e-9
    assert clark_atoms(lollipop, 1j).atoms == ()


def test_essential_norm_sq(lollipop, two_cycle, compact_half):
    assert abs(essential_norm_sq(lollipop) - 1.0) < 1e-9
    # two_cycle: 1 -> -1 and -1 -> 1, derivatives -5 and -5
    assert abs(essential_norm_sq(two_cycle) - 1 / 5) < 1e-9
    assert essential_norm_sq(compact_half) == 0.0


def test_essential_norm_sq_psi2():
    psi2 = RationalSymbol((32, 41), (49, 40))
    assert abs(essential_norm_sq(psi2) - 1 / 9) < 1e-9


def test_clark_atoms_sum_when_points_share_image(eight_point):
    # i and -i both map to the fixed point of the 2-cycle's partner
    img = eight_point.value(1j)
    atoms = clark_atoms(eight_point, img / abs(img))
    assert len(atoms.atoms) >= 2
    assert atoms.total_mass == pytest.approx(
        sum(1 / abs(eight_point.deriv(z)) for z, _ in atoms.atoms), rel=1e-9)
