import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest

import compspec.spectrum
from compspec import (Disk, GeometricTail, MobiusMap, Points, Spiral,
                      TypeClass, analyze, contains, denjoy_wolff,
                      kms2t_essential_union, lft_spectra, max_modulus,
                      partition, region, region_equal, rho, rho_star,
                      spectral_radius_check, synthesize)
from compspec.config import EPS
from compspec.mobius import (SecondOrderData, derivative, fixed_points,
                             lfm_from_data)
from compspec.errors import InvalidDataError, NotCertifiedError
from compspec.spectrum import distance
from conftest import ROOT12

RNG = np.random.default_rng(411)


def random_region():
    prims = []
    for _ in range(RNG.integers(1, 5)):
        kind = RNG.integers(0, 4)
        if kind == 0:
            prims.append(Disk(float(RNG.uniform(0, 1.5))))
        elif kind == 1:
            prims.append(Spiral(complex(RNG.uniform(0.2, 5),
                                        RNG.uniform(-4, 4))))
        elif kind == 2:
            prims.append(GeometricTail(complex(*RNG.uniform(-0.5, 0.5, 2))))
        else:
            vals = RNG.uniform(-1, 1, (RNG.integers(1, 4), 2))
            prims.append(Points(tuple(complex(*v) for v in vals)))
    return region(*prims)


# -- region algebra ----------------------------------------------------

def test_canonicalization_idempotent():
    for _ in range(40):
        r = random_region()
        again = region(*r.primitives)
        assert again.primitives == r.primitives


def test_single_largest_disk():
    r = region(Disk(0.2), Disk(0.7), Disk(0.4))
    assert r.primitives == (Disk(0.7),)


def test_disk_absorbs_points_and_tails():
    r = region(Disk(0.5), Points((0.1 + 0.1j, 0.9)), GeometricTail(0.3))
    disks = [p for p in r.primitives if isinstance(p, Disk)]
    assert disks == [Disk(0.5)]
    # 0.9 survives, 0.1+0.1j does not; tail survives (its k=0 value is 1)
    pts = [p for p in r.primitives if isinstance(p, Points)]
    assert pts and pts[0].values == (0.9 + 0j,)
    assert any(isinstance(p, GeometricTail) for p in r.primitives)


def test_unit_disk_absorbs_spiral_and_tail():
    r = region(Disk(1.0), Spiral(8), GeometricTail(0.5), Points((0.5,)))
    assert r.primitives == (Disk(1.0),)


def test_zero_radius_disk_is_origin():
    r = region(Disk(0.0))
    assert r.primitives == (Points((0j,)),)


def test_degenerate_tail_becomes_points():
    r = region(GeometricTail(0.0))
    assert r.primitives == (Points((0j, 1 + 0j)),)


def test_points_dedup():
    r = region(Points((0.5, 0.5 + 1e-12, -0.5)))
    assert len(r.primitives) == 1
    assert len(r.primitives[0].values) == 2


def test_invalid_primitives():
    with pytest.raises(InvalidDataError):
        Disk(-1.0)
    with pytest.raises(InvalidDataError):
        Spiral(-1 + 2j)
    with pytest.raises(InvalidDataError):
        GeometricTail(1.0)


# -- membership --------------------------------------------------------

def test_spiral_membership():
    for a in (8.0 + 0j, 1.0 + 3j, 0.4 - 2.5j):
        sp = region(Spiral(a))
        for lam in (1.0, cmath.exp(-a), cmath.exp(-2 * a), 0.0):
            assert contains(sp, lam)
        assert not contains(sp, 1.5)
        if a.imag != 0:
            # off the curve: same modulus as a spiral point, wrong phase
            assert not contains(sp, cmath.exp(-a * 0.5) * 1.01)
        else:
            assert not contains(sp, 0.5 + 0.01j)


def test_spiral_rejects_above_unit_modulus():
    sp = region(Spiral(1 + 5j))
    for lam in (1.2, -1.3j, 1.1 * cmath.exp(1j)):
        assert abs(lam) > 1
        assert not contains(sp, lam)


def test_real_spiral_is_unit_segment():
    sp = region(Spiral(8.0))
    for x in np.linspace(0, 1, 23):
        assert contains(sp, complex(x))
    assert not contains(sp, 0.5 + 0.01j)
    assert not contains(sp, -0.1)


def test_tail_membership():
    t = region(GeometricTail(0.5j))
    for k in range(10):
        assert contains(t, (0.5j) ** k)
    assert contains(t, 0.0)
    assert not contains(t, 0.4)


@pytest.mark.parametrize("base", [0.999, 0.999 * cmath.exp(2j)],
                         ids=["real", "rotating"])
def test_tail_membership_is_linear(base):
    # ~27,600 powers lie above 1e-12; walking them all for every probe
    # made region_equal quadratic (about a minute at base 0.999)
    r = region(GeometricTail(base))
    start = time.perf_counter()
    assert region_equal(r, r)
    assert not region_equal(r, region(GeometricTail(base * (1 + 1e-6))))
    assert time.perf_counter() - start < 2.0
    for k in range(0, 2000, 37):   # |base^k| > 0.13, so 10 eps apart
        w = base ** k
        assert contains(r, w)
        assert not contains(r, w * (1 + 10 * EPS))


def test_max_modulus():
    assert max_modulus(region(Disk(0.3), Spiral(8))) == 1.0
    assert max_modulus(region(Disk(0.3), Points((0.5,)))) == 0.5
    assert max_modulus(region(Disk(0.3))) == 0.3


def test_region_equal():
    a = region(Disk(1 / 3), Spiral(8))
    b = region(Spiral(8), Disk(1 / 3))
    assert region_equal(a, b)
    assert not region_equal(a, region(Disk(1 / 3)))
    assert not region_equal(region(Spiral(8)), region(Spiral(1 + 1j)))
    # spirals with the same trace (parameter differences ~ 1e-12) agree
    assert region_equal(region(Spiral(8)), region(Spiral(8 + 1e-12)))


def test_spirals_of_one_shape_are_one_spiral():
    # {e^{-at}} depends on a only through Im(a)/Re(a)
    assert region(Spiral(1), Spiral(2)).primitives == (Spiral(1),)
    assert region(Spiral(1 + 3j), Spiral(2 + 6j)).primitives == (
        Spiral(1 + 3j),)
    assert len(region(Spiral(1 + 3j), Spiral(1 - 3j)).primitives) == 2


def test_tail_on_a_curve_is_dropped():
    a = 1 + 3j
    on_spiral = GeometricTail(cmath.exp(-a * 0.7))
    assert region(Spiral(a), on_spiral).primitives == (Spiral(a),)
    assert region(GeometricTail(0.25), GeometricTail(0.5)).primitives == (
        GeometricTail(0.5),)
    assert len(region(GeometricTail(0.5), GeometricTail(0.3)).primitives) == 2
    assert region_equal(region(Spiral(8), GeometricTail(0.5)),
                        region(Spiral(1)))


# -- distance ----------------------------------------------------------

def _oracle(r):
    """Dense samples of r and a bound on how far a point of r can lie
    from its nearest sample (0 where the samples are every point)."""
    samples, slack = [np.zeros(1, complex)], 0.0
    for p in r.primitives:
        if isinstance(p, Spiral):
            # uniform in the modulus rho = e^{-Re(a) t}, so the arc
            # between neighbours is |a| / Re(a) / n
            n = 400_000
            t = -np.log(np.linspace(1.0, 0.0, n, endpoint=False)) / p.a.real
            samples.append(np.exp(-p.a * t))
            slack = max(slack, abs(p.a) / p.a.real / n)
        elif isinstance(p, GeometricTail):
            k = np.arange(int(math.log(1e-14) / math.log(abs(p.base))) + 1)
            samples.append(p.base ** k)
        elif isinstance(p, Points):
            samples.append(np.array(p.values))
    disks = [p.radius for p in r.primitives if isinstance(p, Disk)]
    return np.concatenate(samples), slack, disks


def _dense_distance(oracle, lam):
    samples, _, disks = oracle
    return min([float(np.min(np.abs(samples - lam)))]
               + [max(abs(lam) - d, 0.0) for d in disks])


def _probes(r, rng):
    """Points near and on r, and anywhere in the box |Re|, |Im| < 1.6."""
    lams = list(rng.uniform(-1.6, 1.6, 8) + 1j * rng.uniform(-1.6, 1.6, 8))
    for p in r.primitives:
        if isinstance(p, Spiral):
            on = [cmath.exp(-p.a * t) for t in rng.uniform(0.0, 3.0, 3)]
        elif isinstance(p, GeometricTail):
            on = [p.base ** k for k in range(4)]
        elif isinstance(p, Points):
            on = list(p.values)
        else:
            on = [p.radius * cmath.exp(1j * rng.uniform(0, 2 * math.pi))]
        for z in on:
            lams += [z, z + 1e-3 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                     z * (1 + 1e-10)]
    return lams


def test_distance_matches_a_dense_oracle():
    rng = np.random.default_rng(12)
    real_bases = [region(GeometricTail(b), Spiral(2 - 1j))
                  for b in (0.8, -0.7, -0.3)]
    for r in [random_region() for _ in range(20)] + real_bases:
        oracle = _oracle(r)
        for lam in _probes(r, rng):
            d, dense = distance(r, lam), _dense_distance(oracle, lam)
            # exact: never above a point of r, never below the samples
            # by more than their spacing
            assert dense - oracle[1] - 1e-12 <= d <= dense + 1e-12, (r, lam)


def test_contains_is_distance_within_eps():
    rng = np.random.default_rng(13)
    for _ in range(20):
        r = random_region()
        for lam in _probes(r, rng):
            assert contains(r, lam) == (distance(r, lam) <= EPS), (r, lam)
    assert distance(region(), 0.5) == math.inf
    assert not contains(region(Spiral(1 + 3j)), complex(math.nan, 0))


def test_distance_is_exact_where_samples_were_not():
    # a sampled distance gave 0.00415 and 0.0049 here
    assert distance(region(Spiral(8)), 0.37 + 0.002j) == pytest.approx(
        0.002, rel=1e-12)
    a = 1 + 3j
    lam = 1.003 * cmath.exp(-0.8 * a)
    d = distance(region(Spiral(a)), lam)
    assert d == pytest.approx(0.00127900393707, rel=1e-9)
    assert d <= abs(cmath.exp(-0.8 * a) - lam)


@pytest.mark.parametrize("base", [0.9999999, -0.9999999,
                                  0.9999999 * cmath.exp(2j)],
                         ids=["real", "negative", "rotating"])
def test_near_unimodular_tail_is_not_sampled(base):
    # ~2.8e8 powers lie above 1e-12: sampling them needed gigabytes
    r = region(GeometricTail(base))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert region_equal(r, r)
        assert not region_equal(r, region(GeometricTail(base * (1 - 1e-6))))
        dists = [distance(r, lam) for lam in (0.5j, 0.3 + 0.5j, -0.5, 2.0)]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0 and peak < 50e6
    assert dists[3] == pytest.approx(1.0, abs=1e-6)
    if base.imag == 0:   # every power lies on the real line
        assert dists[:2] == [0.5, pytest.approx(0.5, rel=1e-15)]
        assert dists[2] == (0.5 if base > 0 else pytest.approx(0, abs=1e-7))
    else:                # the powers turn densely: all lie close
        assert max(dists[:3]) < 1e-2


@pytest.mark.parametrize("base", [0.999j, -0.5j, 0.9999j])
def test_imaginary_tail_distance_matches_every_power(base):
    # (iy)^k = y^k i^k exactly; a power below 1e-3, or the limit point 0,
    # is farther from lam than |lam| - 1e-3, which the nearest one beats
    y = base.imag
    k = np.arange(int(math.log(1e-3) / math.log(abs(y))) + 1)
    powers = np.power(y, k) * np.array([1, 1j, -1, -1j])[k % 4]
    r = region(GeometricTail(base))
    for lam in (cmath.exp(1j * math.pi / 4), 0.3 + 0.2j, -0.7j, 0.5):
        brute = float(np.abs(powers - lam).min())
        assert brute < abs(lam) - 1e-3
        assert distance(r, lam) == pytest.approx(brute, abs=1e-12), lam


@pytest.mark.parametrize("base", [0.9999999j, -0.9999999j])
def test_imaginary_tail_reaches_only_the_real_closed_form(base,
                                                          monkeypatch):
    # b^2 is exactly real, so no band of ~1e8 powers is walked
    exponents = []
    curve = compspec.spectrum._curve

    def counted(a, *args):
        exponents.append(a)
        return curve(a, *args)

    monkeypatch.setattr(compspec.spectrum, "_curve", counted)
    d = distance(region(GeometricTail(base)), cmath.exp(1j * math.pi / 4))
    assert d == pytest.approx(math.sqrt(0.5), rel=1e-9)
    assert exponents and all(a.imag == 0.0 for a in exponents)


# -- linear-fractional dispatch ----------------------------------------

def test_lft_psi1():
    full, ess = lft_spectra(MobiusMap(-3, 4, -4, 5))
    seg = region(Spiral(8))
    assert region_equal(full, seg) and region_equal(ess, seg)


def test_lft_psi2():
    full, ess = lft_spectra(MobiusMap(41, 32, 40, 49))
    assert region_equal(ess, region(Disk(1 / 3)))
    assert region_equal(full, region(Disk(1 / 3), Points((1.0,))))


def test_lft_compact():
    # z -> z/2 + 1/4: interior fixed point, no boundary contact
    full, ess = lft_spectra(MobiusMap(0.5, 0.25, 0, 1))
    assert region_equal(ess, region(Points((0j,))))
    assert contains(full, 0.5)  # eigenvalue tail at phi'(omega) = 1/2
    assert contains(full, 1.0) and contains(full, 0.0)


def test_lft_dilation_has_no_eigenvalue_power_outside_the_disk():
    # a repelling boundary fixed point zeta with psi'(zeta) = d1 > 1 and
    # an attracting interior one omega: the multipliers are reciprocal,
    # so |psi'(omega)| = 1/d1 is below the disk radius 1/sqrt(d1), and 1
    # is the only eigenvalue the full spectrum adds
    rng = np.random.default_rng(17)
    for _ in range(200):
        zeta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        d1 = 10.0 ** rng.uniform(0.02, 2)
        aligned = complex(d1 * (d1 - 1) + 10.0 ** rng.uniform(-2, 0.7),
                          rng.uniform(-5, 5))
        psi = lfm_from_data(SecondOrderData(zeta, zeta, d1,
                                            zeta.conjugate() * aligned))
        omega = max(fixed_points(psi), key=lambda p: abs(p - zeta))
        assert abs(omega) < 1 - 1e-7
        lam = derivative(psi, omega)
        assert abs(lam * derivative(psi, zeta) - 1) <= 1e-10
        radius = d1 ** -0.5
        assert abs(lam) < radius
        full, ess = lft_spectra(psi)
        assert region_equal(ess, region(Disk(radius)))
        assert region_equal(full, region(Disk(radius), Points((1.0,))))


def test_lft_hyperbolic_boundary_dw():
    # z -> (z + 1)/2 fixes 1 with derivative 1/2 and has no other
    # fixed point in the closed disk
    full, ess = lft_spectra(MobiusMap(1, 1, 0, 2))
    assert region_equal(full, region(Disk(math.sqrt(2))))
    assert region_equal(ess, region(Disk(math.sqrt(2))))


def test_lft_rejects_automorphisms():
    with pytest.raises(InvalidDataError):
        lft_spectra(MobiusMap(1j, 0, 0, 1))


# -- rho ---------------------------------------------------------------

def test_rho(eight_point):
    part = partition(eight_point)
    assert rho(part) == pytest.approx(ROOT12, abs=1e-12)
    # 144^(-1/4) = 1/sqrt(12) beats 15^(-1/2)
    assert rho(part) > 15.0 ** -0.5


def test_rho_star(lollipop):
    part = partition(lollipop)
    dw_idx = next(i for i, c in enumerate(part.cycles)
                  if abs(c.points[0] - 1) < 1e-9)
    assert rho_star(part, dw_idx) == pytest.approx(1 / 3, abs=1e-9)
    only = partition(RationalSymbol_psi1())
    assert rho_star(only, 0) == 0.0


def RationalSymbol_psi1():
    from compspec import RationalSymbol
    return RationalSymbol((4, -3), (5, -4))


# -- synthesis ---------------------------------------------------------

def test_synthesize_lollipop(lollipop):
    rep = synthesize(lollipop)
    assert analyze(lollipop).type_class is TypeClass.PARABOLIC_NON_AUTOMORPHISM
    expected = region(Disk(1 / 3), Spiral(8))
    assert region_equal(rep.essential, expected)
    assert region_equal(rep.full, expected)
    disk = [p for p in rep.essential.primitives if isinstance(p, Disk)][0]
    spiral = [p for p in rep.essential.primitives if isinstance(p, Spiral)][0]
    assert abs(disk.radius - 1 / 3) < 1e-9
    assert abs(spiral.a - 8) < 1e-9


def test_synthesize_two_cycle(two_cycle):
    rep = synthesize(two_cycle)
    assert analyze(two_cycle).type_class is TypeClass.DILATION
    assert region_equal(rep.essential, region(Disk(5 ** -0.5)))
    assert region_equal(rep.full, region(Disk(5 ** -0.5), Points((1.0,))))


def test_synthesize_eight_point(eight_point):
    rep = synthesize(eight_point)
    assert analyze(eight_point).type_class is TypeClass.DILATION
    assert rep.rho == pytest.approx(ROOT12, abs=1e-9)
    assert region_equal(rep.essential, region(Disk(ROOT12)))
    assert region_equal(rep.full, region(Disk(ROOT12), Points((1.0,))))


def test_synthesize_square_root(square_root):
    rep = synthesize(square_root)
    assert analyze(square_root).type_class is TypeClass.HYPERBOLIC
    assert region_equal(rep.full, region(Disk(math.sqrt(2))))
    assert region_equal(rep.essential, region(Disk(math.sqrt(2))))


def test_synthesize_compact(compact_half):
    rep = synthesize(compact_half)
    assert region_equal(rep.essential, region(Points((0j,))))
    assert region_equal(rep.full, region(GeometricTail(0.5)))


def test_synthesize_superattracting_compact():
    # phi(z) = z^2/2 has no boundary contact and phi'(0) = 0: the tail
    # of the powers of 0 is {0, 1}
    from compspec import RationalSymbol
    rep = synthesize(RationalSymbol((0, 0, 0.5), (1,)))
    assert rep.essential == region(Points((0j,)))
    assert rep.full.primitives == (Points((0j, 1 + 0j)),)


def test_synthesize_dilation_eigenvalue_powers():
    # interior DW with derivative 0.9 and one boundary fixed point of
    # multiplier 100: finitely many eigenvalue powers stick out of the
    # essential disk of radius 0.1
    from compspec import (BoundaryDataSymbol, DenjoyWolffRecord, Location,
                          SecondOrderData)
    s = BoundaryDataSymbol(
        (SecondOrderData(1, 1, 100, 10500),),
        DenjoyWolffRecord(0, 0.9, Location.INTERIOR))
    rep = synthesize(s)
    assert analyze(s).type_class is TypeClass.DILATION
    assert region_equal(rep.essential, region(Disk(0.1)))
    for k in range(22):  # 0.9^21 > 0.1 >= 0.9^22
        assert contains(rep.full, 0.9 ** k)
    assert not contains(rep.full, 0.95)
    assert not contains(rep.full, -0.5)


def test_synthesize_hyperbolic_rational():
    # phi(z) = (3z + 1)/4 fixes only z = 1, with derivative 3/4
    from compspec import RationalSymbol
    s = RationalSymbol((1, 3), (4,))
    rep = synthesize(s)
    assert analyze(s).type_class is TypeClass.HYPERBOLIC
    assert region_equal(rep.full, region(Disk(math.sqrt(4 / 3))))
    assert spectral_radius_check(rep, denjoy_wolff(s))


def test_spectral_radius_check(lollipop, two_cycle, square_root):
    for s in (lollipop, two_cycle, square_root):
        assert spectral_radius_check(synthesize(s), denjoy_wolff(s))


def test_rejects_uncertified():
    from compspec import (BoundaryDataSymbol, DenjoyWolffRecord, Location,
                          SecondOrderData)
    bad = SecondOrderData(1, 1, 2, 0)
    s = BoundaryDataSymbol((bad,),
                           DenjoyWolffRecord(0, 0.5, Location.INTERIOR))
    with pytest.raises(NotCertifiedError):
        synthesize(s)


# -- cross-path agreement ----------------------------------------------

def test_kms2t_matches_synthesize_lollipop(lollipop):
    assert region_equal(kms2t_essential_union(lollipop),
                        synthesize(lollipop).essential, 1e-8)


def test_kms2t_matches_synthesize_square_root(square_root):
    assert region_equal(kms2t_essential_union(square_root),
                        synthesize(square_root).essential, 1e-8)


def test_kms2t_precondition(two_cycle):
    with pytest.raises(InvalidDataError):
        kms2t_essential_union(two_cycle)  # 2-cycle, not fixed points
