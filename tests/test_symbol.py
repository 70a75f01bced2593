import cmath
import math
import re
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as P

from compspec import (BoundaryDataSymbol, DenjoyWolffRecord, Disk,
                      Location, Points, RationalSymbol, SecondOrderData,
                      Spiral, TypeClass, analyze, certify_s2, clark_atoms,
                      classify_type, contact_points, contact_set,
                      denjoy_wolff, essential_norm_sq, region, region_equal,
                      second_order_data, synthesize)
from compspec.errors import (CompspecError, InvalidDataError,
                             NotInScopeError, RootFindingError)
from compspec.config import EPS, PICK_FACTOR
from compspec.symbol import DEGREE_CAP, _pick_matrix, _reflection, _roots
from conftest import count_calls, nearest, perfbench_gen


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
    # 0.3 (1 + z/2) / (1 + z/2), whatever the scale of its coefficients
    for scale in (2.0 ** -540, 1e-170, 1e-15, 1e-5, 1.0, 1e5, 1e15, 1e200):
        with pytest.raises(InvalidDataError, match="constant"):
            RationalSymbol((0.3 * scale, 0.15 * scale), (scale, 0.5 * scale))
        # z/2 is not constant at any scale, and keeps its coefficients
        half = RationalSymbol((0, scale), (2 * scale,))
        assert half.num == (0, scale) and half.den == (2 * scale,)
        assert half.value(0.5) == 0.25 and half.deriv(0.3) == 0.5


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


def test_spread_run_of_critical_points_is_not_averaged():
    # a real map within 1e-11 of the identity: |phi| = 1 to 4e-9 at
    # both critical points of T, 1 and -1, so they form one run, but
    # they are two roots of H, not one split multiple root, and their
    # mean angle pi/2 is no critical point
    s = _two_fixed_points(1e-2, 1e-11)
    cp, = contact_points(s)
    assert cp.multiplicity == 3
    assert min(abs(cp.zeta - 1), abs(cp.zeta + 1)) < 1e-9


def test_contacts_are_listed_by_angle(lollipop, two_cycle, eight_point):
    rotated = [_rotated((-2, -1, 2), (-3, 0, 2), t) for t in (0.7, 2.5, -1.9)]
    for s in (lollipop, two_cycle, eight_point, *rotated):
        angles = [cmath.phase(z) % (2 * math.pi) for z in contact_set(s)]
        assert angles == sorted(angles)
    # the contact at 1 is snapped to 1 + 0j, whose angle is 0, not 2 pi
    assert contact_set(eight_point)[0] == 1


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


def _quotient_reference(s, k, z):
    """phi, phi' or phi'' (k = 1, 2, 3) at z as one quotient, with D and
    the numerator each by Horner's rule on their own."""
    z = complex(z)
    d = top = 0j
    for c in s._desc[0]:
        d = d * z + c
    for c in s._desc[k]:
        top = top * z + c
    return top / (d if k == 1 else d * d if k == 2 else d * d * d)


def test_jet_keeps_the_bits_of_one_quotient_each(lollipop, two_cycle,
                                                 eight_point):
    # the jet shares D's Horner pass; every entry keeps its bits
    rng = np.random.default_rng(8)
    symbols = [lollipop, two_cycle, eight_point] + [
        _random_symbol(rng, k) for k in (1, 2, 5, 17, DEGREE_CAP)]
    points = [0j, 1.0, -1j] + [cmath.exp(1j * t) for t in rng.uniform(
        0.0, 2.0 * math.pi, 20)] + list(0.9 * rng.uniform(-1, 1, (10, 2))
                                        @ [1, 1j])
    for s in symbols:
        for z in points:
            for k in (1, 2, 3):
                got = [(v.real.hex(), v.imag.hex()) for v in s._jet(k, z)]
                want = [(v.real.hex(), v.imag.hex()) for v in (
                    _quotient_reference(s, j, z) for j in range(1, k + 1))]
                assert got == want


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
    # the construction works on N and D divided by one power of two,
    # which rounds only values it makes subnormal
    n, d = np.array(s._polys.n), np.array(s._polys.d)
    given = np.concatenate([s.num, s.den]).view(float)
    scaled = np.concatenate([n, d]).view(float)
    scale = np.abs(given).max() / np.abs(scaled).max()
    assert math.frexp(scale)[0] == 0.5
    assert np.all(np.abs(scaled * scale - given) <= scale / 2 * 2.0 ** -1074)
    deg = max(n.size, d.size) - 1

    def reflect(c):
        return np.conj(np.pad(c, (0, deg + 1 - c.size)))[::-1]

    u = P.polysub(P.polymul(P.polyder(n), d), P.polymul(n, P.polyder(d)))
    v = P.polysub(P.polymul(P.polyder(u), d),
                  P.polymul(P.polymul(u, P.polyder(d)), [2.0]))
    g = P.polysub(P.polymul(n, reflect(n)), P.polymul(d, reflect(d)))
    # the same doubles, signed zeros included
    assert np.array_equal(_bits(_reflection(n, d, deg)), _bits(g))
    assert np.array_equal(_bits(s._desc[2][::-1]), _bits(u))
    assert np.array_equal(_bits(s._desc[3][::-1]), _bits(v))


# -- root finding ------------------------------------------------------

_unit_coef = st.builds(lambda r, t: r * cmath.exp(1j * t),
                       st.floats(0.1, 1.0), st.floats(0.0, 2.0 * math.pi))


@st.composite
def _polynomials_in_z_m(draw):
    """c(z) = z^s q(z^m) for m in 2-8, s in 0 ... m - 1 and q of degree
    1-9: q(0) = 0 to multiplicity 0-2, inner coefficients of q zero at
    times, and up to 2m zero top coefficients on c, untrimmed, as H can
    have."""
    m = draw(st.integers(2, 8))
    s = draw(st.integers(0, m - 1))
    q = ([0j] * draw(st.integers(0, 2))
         + draw(st.lists(st.one_of(st.just(0j), _unit_coef), min_size=1,
                         max_size=7))
         + [draw(_unit_coef)])
    c = np.zeros(s + (len(q) - 1) * m + 1 + draw(st.integers(0, 2 * m)),
                 dtype=complex)
    c[s: s + (len(q) - 1) * m + 1: m] = q
    return c


def _match_roots(got, want, tol):
    """Pair each root of got with the nearest unpaired root of want, and
    check that it lies within tol of it."""
    assert got.size == want.size
    left = list(want)
    for z, t in zip(got, tol):
        i = min(range(len(left)), key=lambda j: abs(left[j] - z))
        assert abs(left.pop(i) - z) <= t, (z, t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_polynomials_in_z_m())
def test_roots_of_a_polynomial_in_z_m(c):
    # s exact zeros and the m-th roots of q's roots are c's roots as a
    # multiset, to within each root's condition: a coefficient
    # perturbation of relative size eps moves a simple root z by
    # eps |c| |(z^k)| / |c'(z)|, and a zero root of multiplicity mu by
    # (eps |c| / |c_mu|)^(1 / mu)
    got = _roots(c)
    c = np.trim_zeros(c, "b")
    want = P.polyroots(c)
    eps = 1e4 * np.finfo(float).eps
    norm = np.linalg.norm(c)
    mu = np.flatnonzero(c)[0]
    powers = np.abs(got)[:, None] ** np.arange(c.size)
    with np.errstate(divide="ignore"):
        simple = (eps * norm * np.linalg.norm(powers, axis=1)
                  / np.abs(P.polyval(got, P.polyder(c))))
    zero = 10.0 * (eps * norm / abs(c[mu])) ** (1.0 / max(mu, 1))
    _match_roots(got, want, np.where(got == 0, zero, simple))
    assert np.count_nonzero(got == 0) == mu


@pytest.mark.parametrize("c", [
    [1, 2],                          # degree 1
    [0.5, -1j, 2, 0.25 + 1j],        # dense
    [1e-300, 1, 2],                  # a tiny c(0), not a zero root
    [1, 0, 3, 2],                    # exponents 0, 2 and 3
    [1, 0, 0, 0],                    # a constant, untrimmed
    [0, 0],                          # zero
    (-3, -2, 0, 2, 3),               # a zero middle coefficient, as in H
])
def test_dense_roots_are_numpy_roots(c):
    # s = 0 and m <= 1: the same companion solve, to the bit
    c = np.asarray(c, dtype=complex)
    got, want = _roots(c), P.polyroots(c)
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("c,s", [
    ([0, 1, 2], 1),                  # exponents 1 and 2
    ([0, 0, 0.5, -1j, 2, 0], 2),     # exponents 2, 3 and 4, untrimmed
    ([0, 0, 0, 1j], 3),              # a monomial
])
def test_zero_roots_are_split_off_exactly(c, s):
    # c = z^s c' with c' dense: s exact zeros first, then c''s
    # companion solve, to the bit
    c = np.asarray(c, dtype=complex)
    got, want = _roots(c), P.polyroots(c[s:])
    assert got.dtype == want.dtype
    assert np.array_equal(got[:s], np.zeros(s))
    assert np.array_equal(got[s:].view(np.uint64), want.view(np.uint64))


def _numpy_polynomial_roots(c):
    """_roots as written on numpy.polynomial's polyroots, frozen here to
    pin the bits of the companion solve that replaced it."""
    c = np.ascontiguousarray(c, complex)
    c = np.ldexp(c.view(float), -np.frexp(np.abs(c).max())[1]).view(complex)
    c[np.abs(c) < 2.0 ** -1022] = 0
    exponents = np.flatnonzero(c)
    s = int(exponents[0]) if exponents.size else 0
    m = int(np.gcd.reduce(exponents - s))
    try:
        with np.errstate(all="ignore"):
            roots = P.polyroots(c[s::m] if m > 1 else c[s:])
            if m > 1:
                unity = np.exp(2j * np.pi * np.arange(m) / m)
                roots = np.outer(roots ** (1.0 / m), unity).ravel()
        if np.all(np.isfinite(roots)):
            return np.concatenate((np.zeros(s, dtype=complex), roots))
    except np.linalg.LinAlgError:
        pass
    raise RootFindingError("companion-matrix root finding failed")


_tiny = st.floats(-1e-308, 1e-308, allow_subnormal=True)


@st.composite
def _scaled_polynomials_in_z_m(draw):
    """c(z) = z^s q(z^m) for m in 1-64 and s in 0-3, q of degree 0-7 (the
    zero polynomial too) with coefficients that are zero, of modulus
    0.1-1 or subnormal (the top one too), c scaled by a power of ten
    and up to two zero top coefficients on c, untrimmed."""
    m = draw(st.integers(1, 64))
    s = draw(st.integers(0, 3))
    q = draw(st.lists(st.one_of(st.just(0j), _unit_coef,
                                st.builds(complex, _tiny, _tiny)),
                      min_size=1, max_size=8))
    c = np.zeros(s + (len(q) - 1) * m + 1 + draw(st.integers(0, 2)),
                 dtype=complex)
    c[s: s + (len(q) - 1) * m + 1: m] = q
    return c * draw(st.sampled_from([1.0, 3.0, 1e-300, 1e300]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_scaled_polynomials_in_z_m())
def test_roots_keep_the_bits_of_numpy_polynomial(c):
    # the companion matrix, eigen-solve and sort are polyroots' own
    try:
        want = _numpy_polynomial_roots(c)
    except RootFindingError:
        with pytest.raises(RootFindingError):
            _roots(c)
        return
    got = _roots(c)
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("den", [
    (1, 0, 0, -2j),   # roots 2^(-1/3) e^{i (2 pi j - pi / 2) / 3}
    (1, 1, 0, -2),    # roots 1 and (-1 +- i) / 2
])
def test_pole_message_lists_roots_by_angle(den):
    with pytest.raises(InvalidDataError) as info:
        RationalSymbol((1,), den)
    listed = [complex(t.replace(" ", "")) for t in re.findall(
        r"[-+]?[\d.]+(?:e[-+]?\d+)?\s*[-+]\s*[\d.]+(?:e[-+]?\d+)?j",
        str(info.value))]
    angles = [cmath.phase(z) % (2 * math.pi) for z in listed]
    assert len(listed) == 3 and angles == sorted(angles)


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


def test_lollipop_analysis_makes_few_evaluations(lollipop, monkeypatch):
    # 6 measured; any iteration of phi would add one per step
    calls = count_calls(monkeypatch, (RationalSymbol, "_jet"))
    analyze(lollipop)
    assert calls["_jet"] <= 10


@pytest.mark.parametrize("name,jets", [
    ("lollipop", {1: 2, 3: 4}),
    ("two_cycle", {1: 2, 2: 2, 3: 4}),
    ("eight_point", {1: 8, 2: 2, 3: 16}),
])
def test_jet_evaluations_per_analysis(name, jets, request, monkeypatch):
    # by jet length k: phi alone to accept each contact (k = 1), phi
    # and phi' per fixed-point Newton step plus one (k = 2), and all
    # three per contact-polish step and for each contact's data (k = 3)
    s = request.getfixturevalue(name)
    lengths = Counter()
    jet = RationalSymbol._jet

    def counted(self, k, z):
        lengths[k] += 1
        return jet(self, k, z)

    monkeypatch.setattr(RationalSymbol, "_jet", counted)
    analyze(s)
    assert lengths == jets


def _rotated(num, den, theta):
    """e^{i theta} phi(e^{-i theta} z) for phi = num/den: its contacts and
    Denjoy-Wolff point turn with it."""
    w = cmath.exp(1j * theta)
    return RationalSymbol([w * c / w ** j for j, c in enumerate(num)],
                          [c / w ** j for j, c in enumerate(den)])


def _parabolic(t, theta):
    """((2-t)z + t) / (-tz + 2 + t) conjugated by the rotation e^{i theta}:
    parabolic non-automorphism with Denjoy-Wolff point e^{i theta}."""
    w = cmath.exp(1j * theta)
    return RationalSymbol((t * w, 2 - t), (2 + t, -t / w))


def _hyperbolic(derivative, t=1.4 + 0.1j):
    """The hyperbolic family of perfbench/gen.py at degree 1: the Cayley
    conjugate of w -> lam w + t, Denjoy-Wolff point 1, phi'(1) = 1/lam."""
    lam = 1.0 / derivative
    return RationalSymbol((lam + t - 1, lam - t + 1),
                          (lam + t + 1, lam - t - 1))


def _two_fixed_points(d, e, theta=0.0):
    """The linear-fractional map with fixed points 1 - d (multiplier
    1 - e) and 1, conjugated by the rotation e^{i theta}.  Its
    coefficients are products of d and e, so each carries only a
    rounding error (1 - multiplier would cancel)."""
    return _rotated((-(1 - d) * e, e - d), (-(d + e - d * e), e), theta)


# (symbol, omega, phi'(omega), type, full = essential or (full, essential))
_LFT_CASES = {
    **{f"parabolic-{t}-{theta}": (
        _parabolic(t, theta), cmath.exp(1j * theta), 1.0,
        TypeClass.PARABOLIC_NON_AUTOMORPHISM, region(Spiral(t)))
       for t in (2, 1, 0.5, 0.1, 0.01, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6)
       for theta in (0, 2.5)},
    **{f"hyperbolic-{p}": (_hyperbolic(p), 1.0, p, TypeClass.HYPERBOLIC,
                           region(Disk(1.0 / math.sqrt(p))))
       for p in (0.5, 0.99, 0.999)},
    # attracts so slowly that 5000 steps from 0 end at 0.78
    "slow-interior": (
        _two_fixed_points(0.1, 1e-4), 0.9, 0.9999, TypeClass.DILATION,
        (region(Disk(math.sqrt(0.9999)), Points((1.0,))),
         region(Disk(math.sqrt(0.9999))))),
}


@pytest.mark.parametrize("s,omega,derivative,tclass,regions",
                         _LFT_CASES.values(), ids=_LFT_CASES)
def test_dw_of_in_scope_linear_fractional_maps(s, omega, derivative, tclass,
                                               regions):
    a = analyze(s)
    report, dw = synthesize(a), a.boundary.denjoy_wolff
    assert abs(dw.omega - omega) < 1e-9
    assert abs(dw.derivative - derivative) < 1e-9
    assert a.type_class is tclass
    full, essential = regions if isinstance(regions, tuple) else (regions,) * 2
    assert region_equal(report.full, full)
    assert region_equal(report.essential, essential)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-6.0, math.log10(2.0)), st.floats(0.0, 2.0 * math.pi))
def test_parabolic_maps_give_their_spiral(log_t, theta):
    # the double root of N - zD at omega is divided out, so no root
    # that roundoff split off it is left to stop the search
    t = 10.0 ** log_t
    a = analyze(_parabolic(t, theta))
    assert a.type_class is TypeClass.PARABOLIC_NON_AUTOMORPHISM
    assert region_equal(synthesize(a).full, region(Spiral(t)))


def _oracle_dw(s):
    """Denjoy-Wolff point of a linear-fractional map, from its double
    coefficients in 50-digit arithmetic: the fixed point where |phi'| is
    least (the multipliers of the two fixed points are reciprocal)."""
    with mpmath.workdps(50):
        (n0, n1), (d0, d1) = ([mpmath.mpc(complex(c)) for c in p + (0,)][:2]
                              for p in (s.num, s.den))
        # phi(z) = z  <=>  d1 z^2 + (d0 - n1) z - n0 = 0
        fixed = mpmath.polyroots([d1, d0 - n1, -n0], extraprec=100)
        return complex(min(fixed, key=lambda z: abs(n1 * d0 - n0 * d1)
                           / abs(d0 + d1 * z) ** 2))


# fixed points 1 - d (multiplier 1 - e) and 1: an interior fixed point
# that attracts or repels barely, next to a boundary one.  At d = 2e-4,
# e = 1e-11, phi'(1) = 1 + 1e-11 passes as a boundary Denjoy-Wolff point
# at EPS, though 1 - 2e-4 attracts: the interior root must stop the
# search.  At d <= 2e-6 and e <= 1e-10, 1 - d lies so close to 1 that
# the pair looks like a split double root: the answer is never a
# parabolic one at 1.  At d <= 3.2e-7 and e >= 1e-4, the simple root of
# N - zD at 1 can come out inside the disk, next to 1 - d
_GRID = [(d, e, (0.0, 2.5)[(i + j) % 2])
         for i, d in enumerate((1e-7, 1e-5, 1e-4, 2e-4, 1e-3, 1e-2, 1e-1))
         for j, e in enumerate((0.5, 1e-4, 1e-9, 1e-10, 1e-11, -1e-9))] + [
    (d, e, theta) for d in (4e-7, 5e-7, 8e-7, 2e-6) for e in (1e-10, 1e-11)
    for theta in (0.0, 2.5)]
_GRID += [(d, e, theta) for d in (1e-7, 3.2e-7) for e in (1e-4, 1e-2)
          for theta in (0.0, 2.5) if (d, e, theta) not in _GRID]


@pytest.mark.parametrize("d,e,theta", _GRID)
def test_dw_agrees_with_the_oracle_or_is_a_typed_error(d, e, theta):
    try:
        s = _two_fixed_points(d, e, theta)
        omega = denjoy_wolff(s).omega
    except CompspecError:
        return
    assert abs(omega - _oracle_dw(s)) <= 1e-6


# 1 - d attracts with phi' = 0.9999, and the simple root of N - zD at 1
# comes out just inside the disk (about 2e-9 inside at theta = 0).
# Plain Newton polishes it back to 1, where |phi'| = 1.0001; with 1
# deflated, it goes to 1 - d.
@pytest.mark.parametrize("d,e,theta", [(1e-7, 1e-4, 0.0),
                                       (3.2e-7, 1e-4, 0.0),
                                       (3.2e-7, 1e-4, 2.5)])
def test_interior_fixed_point_beside_a_boundary_root_inside(d, e, theta):
    s = _two_fixed_points(d, e, theta)
    assert abs(denjoy_wolff(s).omega - _oracle_dw(s)) <= 1e-6


@pytest.mark.parametrize("e", (1e-2, 1e-4))
@pytest.mark.parametrize("theta", (0.0, 2.5))
def test_interior_fixed_point_next_to_the_boundary_one_attracts(e, theta):
    # 1 - d attracts with phi' = 1 - e however close it lies to the
    # boundary fixed point 1, where phi' = 1 / (1 - e) > 1
    for d in np.logspace(-6, -1, 11):
        s = _two_fixed_points(d, e, theta)
        a = analyze(s)
        assert a.type_class is TypeClass.DILATION
        assert abs(a.boundary.denjoy_wolff.omega - _oracle_dw(s)) <= 1e-6


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
    with pytest.raises(InvalidDataError, match="^boundary DW point is not "
                       "among the declared points$"):
        BoundaryDataSymbol((p,), DenjoyWolffRecord(-1, 0.5, Location.BOUNDARY))
    with pytest.raises(InvalidDataError,
                       match="^declared DW point is not fixed$"):
        # 1 is declared, but maps to 1j, which is not
        BoundaryDataSymbol((SecondOrderData(1, 1j, 0.5j, 0),),
                           DenjoyWolffRecord(1, 0.5, Location.BOUNDARY))
    with pytest.raises(InvalidDataError, match="^declared DW derivative "
                       "disagrees with point data$"):
        BoundaryDataSymbol((p,), DenjoyWolffRecord(1, 0.25, Location.BOUNDARY))


# -- the boundary Pick test --------------------------------------------

def test_pick_matrix_of_declared_data(square_root):
    # nodes -1 -> -1 (|phi'| = 2.5) and 1 -> 1 (0.5): off the diagonal
    # (1 - (-1)(1)) / (1 - (-1)(1)) = 1
    pick = _pick_matrix(square_root)
    assert np.array_equal(pick, [[2.5, 1.0], [1.0, 0.5]])
    assert np.linalg.eigvalsh(pick)[0] == pytest.approx(0.0858, abs=1e-4)
    # an interior Denjoy-Wolff point is one more node, omega -> omega
    p = SecondOrderData(1j, 1j, 2.0, 0)
    pick = _pick_matrix(BoundaryDataSymbol(
        (p,), DenjoyWolffRecord(0.5, 0.25, Location.INTERIOR)))
    entry = (1 - 1j * 0.5) / (1 - 1j * 0.5)
    assert np.allclose(pick, [[2.0, entry], [np.conj(entry), 1.0]],
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("points,dw,smallest", [
    # phi(0) = 0 and phi(1) = 1 with phi'(1) = 0.5 < 1: Julia's lemma
    ([(1, 1, 0.5)], (0, 0.5, Location.INTERIOR), -0.281),
    # two boundary fixed points with phi' = 0.5 and 0.7
    ([(1, 1, 0.5), (-1, -1, 0.7)], (1, 0.5, Location.BOUNDARY), -0.405),
    # the attracting 2-cycle 1 <-> -1, which the partition refuses first
    ([(1, -1, -0.5), (-1, 1, -0.5)], (0, 0.5, Location.INTERIOR), -0.5),
])
def test_pick_matrix_refuses_data_no_self_map_has(points, dw, smallest):
    s = BoundaryDataSymbol(tuple(SecondOrderData(z, w, d1, 0)
                                 for z, w, d1 in points),
                           DenjoyWolffRecord(*dw))
    assert np.linalg.eigvalsh(_pick_matrix(s))[0] == pytest.approx(
        smallest, abs=1e-3)
    with pytest.raises(InvalidDataError):
        analyze(s)


def _in_scope_sweep(seed):
    gen = perfbench_gen()
    return [RationalSymbol([complex(*c) for c in doc["num"]],
                           [complex(*c) for c in doc["den"]])
            for _, _, doc, expected in gen.batch(gen.SWEEP, seed)
            if expected["exit"] == 0]


def test_pick_matrix_of_every_rational_analysis_is_positive_definite(
        lollipop, two_cycle, eight_point, square_root):
    # a rational symbol's data come from a self-map, so the reduction
    # does not test them; here they must clear the test's band
    symbols = [lollipop, two_cycle, eight_point, square_root,
               *_in_scope_sweep(1)]
    assert len(symbols) == 113
    for s in symbols:
        vals = np.linalg.eigvalsh(_pick_matrix(analyze(s).boundary))
        assert vals[0] > PICK_FACTOR * EPS * np.abs(vals).max(), s


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


def test_essential_norm_sq_keeps_the_bits_of_the_clark_atoms(
        lollipop, two_cycle, eight_point, square_root):
    # one pass over the (value, mass) pairs gives the same double as the
    # max over alpha of clark_atoms(..., alpha).total_mass, whose matches
    # and summation order it keeps
    gen = perfbench_gen()
    doc, _ = gen.dilation(64, 2.0)
    dilation = RationalSymbol([complex(*c) for c in doc["num"]],
                              [complex(*c) for c in doc["den"]])
    for s in (lollipop, two_cycle, eight_point, square_root, dilation):
        a = analyze(s)
        want = max((clark_atoms(a, p.value / abs(p.value)).total_mass
                    for p in a.boundary.points), default=0.0)
        assert essential_norm_sq(a).hex() == want.hex()
    assert len(analyze(dilation).boundary.points) == 64


def test_clark_atoms_sum_when_points_share_image(eight_point):
    # i and -i both map to the fixed point of the 2-cycle's partner
    img = eight_point.value(1j)
    atoms = clark_atoms(eight_point, img / abs(img))
    assert len(atoms.atoms) >= 2
    assert atoms.total_mass == pytest.approx(
        sum(1 / abs(eight_point.deriv(z)) for z, _ in atoms.atoms), rel=1e-9)
