"""Acceptance gate: one test per criterion, each printing a pass/fail
line (run with -s to see them on a green suite)."""

import cmath
import contextlib
import math
import time

import numpy as np

from compspec import (BoundaryDataSymbol, DenjoyWolffRecord, Disk,
                      GeometricTail, Location, MobiusMap, Points,
                      RationalSymbol, SecondOrderData, Spiral,
                      contains, cycle_multiplier, derivative,
                      essential_norm_sq, fixed_points,
                      kms2t_essential_union, lft_spectra, partition, region,
                      region_equal, run_checker, synthesize)
from compspec.algebra_lab import eigenvalues, truncation_from_coeffs
from compspec.mobius import compose, evaluate
from conftest import nearest


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_lollipop():
    with criterion(1, "lollipop reproduction"):
        t0 = time.perf_counter()
        s = RationalSymbol((-2, -1, 2), (-3, 0, 2))
        rep = synthesize(s)
        elapsed = time.perf_counter() - t0
        assert region_equal(rep.full, rep.essential)
        disks = [p for p in rep.essential.primitives if isinstance(p, Disk)]
        spirals = [p for p in rep.essential.primitives
                   if isinstance(p, Spiral)]
        assert len(disks) == 1 and len(spirals) == 1
        assert abs(disks[0].radius - 1 / 3) < 1e-9
        assert abs(spirals[0].a - 8) < 1e-9
        assert spirals[0].a.imag == 0  # the spiral is the segment [0, 1]
        assert elapsed < 1.0


def test_criterion_2_orbit_partition_example():
    with criterion(2, "eight-point orbit partition"):
        i = 1j
        s = RationalSymbol(
            (0, 0, 0, -(1 + i), 0, -(3 - i)),
            (6 + 2 * i, 0, 2 - 2 * i, 0, 0, 0, 0, 0, -(3 + i), 0, -(1 - i)))
        part = partition(s)
        e = lambda k: cmath.exp(1j * math.pi * k / 4)
        assert len(part.iterate_out) == 2
        for t in (e(1), e(5)):
            assert abs(nearest(part.iterate_out, t) - t) < 1e-9
        two = [c for c in part.cycles if c.length == 2]
        ones = [c for c in part.cycles if c.length == 1]
        assert len(two) == 1 and len(ones) == 2
        for t in (1.0, -1.0):
            assert abs(nearest(two[0].points, t) - t) < 1e-9
        assert abs(two[0].multiplier - 144) < 1e-8 * 144
        for c in ones:
            assert abs(c.multiplier - 15) < 1e-8 * 15
        leads = part.lead_ins[part.cycles.index(two[0])]
        assert len(leads) == 2
        for t in (1j, -1j):
            assert abs(nearest(leads, t) - t) < 1e-9
        rep = synthesize(s)
        root12 = 1 / math.sqrt(12)
        assert abs(rep.rho - root12) < 1e-9
        assert region_equal(rep.full, region(Disk(root12), Points((1.0,))))


def test_criterion_3_two_cycle():
    with criterion(3, "two-cycle symbol"):
        s = RationalSymbol((0, -1), (3, 0, -2))
        part = partition(s)
        assert len(part.cycles) == 1 and part.cycles[0].length == 2
        assert abs(part.cycles[0].multiplier - 25) < 1e-8 * 25
        rep = synthesize(s)
        r = 1 / math.sqrt(5)
        disks = [p for p in rep.essential.primitives if isinstance(p, Disk)]
        assert len(disks) == 1 and abs(disks[0].radius - r) < 1e-9
        assert region_equal(rep.essential, region(Disk(r)))
        assert region_equal(rep.full, region(Disk(r), Points((1.0,))))


def test_criterion_4_boundary_data_path():
    with criterion(4, "boundary-data path"):
        s = BoundaryDataSymbol(
            (SecondOrderData(-1, -1, 2.5, -33 / 8),
             SecondOrderData(1, 1, 0.5, 0)),
            DenjoyWolffRecord(1, 0.5, Location.BOUNDARY))
        rep = synthesize(s)
        disks = [p for p in rep.full.primitives if isinstance(p, Disk)]
        assert len(disks) == 1
        assert abs(disks[0].radius - math.sqrt(2)) < 1e-9
        assert region_equal(rep.full, rep.essential)


def test_criterion_5_lft_unit_results():
    with criterion(5, "linear-fractional unit results"):
        psi1 = MobiusMap(-3, 4, -4, 5)
        full1, ess1 = lft_spectra(psi1)
        seg = region(Spiral(1.0))  # [0, 1]
        assert region_equal(full1, seg) and region_equal(ess1, seg)
        psi2 = MobiusMap(41, 32, 40, 49)
        fps = sorted(fixed_points(psi2), key=lambda p: p.real)
        assert abs(fps[0] + 1) < 1e-10 and abs(fps[1] - 0.8) < 1e-10
        assert abs(derivative(psi2, fps[0]) - 9) < 1e-10
        assert abs(derivative(psi2, fps[1]) - 1 / 9) < 1e-10
        full2, ess2 = lft_spectra(psi2)
        assert region_equal(ess2, region(Disk(1 / 3)))
        assert region_equal(full2, region(Disk(1 / 3), Points((1.0,))))


def test_criterion_6_cross_path_agreement():
    with criterion(6, "cross-path essential spectrum"):
        s = RationalSymbol((-2, -1, 2), (-3, 0, 2))
        assert region_equal(kms2t_essential_union(s),
                            synthesize(s).essential, 1e-8)


def test_criterion_7_lemma_suites():
    with criterion(7, "annihilation-sum lemma suites"):
        t0 = time.perf_counter()
        suites = [("fl", 2, 16), ("ta", 2, 16), ("cta", 5, 24),
                  ("lip", 2, 16), ("n2c", 2, 16), ("rsm", 5, 24),
                  ("flc", 4, 24)]
        for lemma, n, order in suites:
            ok, failing = run_checker(lemma, n, order, trials=200,
                                      master_seed=7)
            assert ok, f"{lemma} failed for seeds {failing[:5]}"
        assert time.perf_counter() - t0 < 60.0


def test_criterion_8_essential_norm():
    with criterion(8, "essential norm"):
        lollipop = RationalSymbol((-2, -1, 2), (-3, 0, 2))
        assert abs(essential_norm_sq(lollipop) - 1.0) < 1e-9
        psi2 = RationalSymbol((32, 41), (49, 40))
        assert abs(essential_norm_sq(psi2) - 1 / 9) < 1e-9


def test_criterion_9_property_suites():
    with criterion(9, "property suites"):
        rng = np.random.default_rng(2718)

        def rand_map():
            while True:
                try:
                    return MobiusMap(*(rng.normal(size=4)
                                       + 1j * rng.normal(size=4)))
                except Exception:
                    continue

        # Mobius chain rule, associativity, inverse round trip
        for _ in range(25):
            m1, m2, m3 = rand_map(), rand_map(), rand_map()
            z = complex(*rng.uniform(-0.5, 0.5, 2))
            m = compose(m1, m2)
            assert abs(evaluate(m, z) - evaluate(m1, evaluate(m2, z))) < 1e-9
            chain = derivative(m1, evaluate(m2, z)) * derivative(m2, z)
            assert abs(derivative(m, z) - chain) < 1e-7 * max(1.0, abs(chain))
            assert compose(compose(m1, m2), m3).close_to(
                compose(m1, compose(m2, m3)), tol=1e-9)
            inv = np.linalg.inv(m1.matrix)
            m1_inv = MobiusMap(inv[0, 0], inv[0, 1], inv[1, 0], inv[1, 1])
            assert compose(m1, m1_inv).is_identity(tol=1e-9)

        # partition disjointness/coverage and multiplier invariance
        i = 1j
        s = RationalSymbol(
            (0, 0, 0, -(1 + i), 0, -(3 - i)),
            (6 + 2 * i, 0, 2 - 2 * i, 0, 0, 0, 0, 0, -(3 + i), 0, -(1 - i)))
        from compspec import contact_set
        part = partition(s)
        pts = contact_set(s)
        covered = part.all_points
        assert len(covered) == len(pts)
        for z in pts:
            assert sum(1 for w in covered if abs(w - z) < 1e-9) == 1
        for c in part.cycles:
            mults = [cycle_multiplier(s, c.points[k:] + c.points[:k])
                     for k in range(c.length)]
            assert max(mults) - min(mults) < 1e-9 * max(mults)

        # region canonicalization idempotence
        for _ in range(25):
            prims = [Disk(float(rng.uniform(0, 1.5))),
                     Spiral(complex(rng.uniform(0.2, 4),
                                    rng.uniform(-3, 3))),
                     GeometricTail(complex(*rng.uniform(-0.5, 0.5, 2))),
                     Points(tuple(complex(*v)
                                  for v in rng.uniform(-1, 1, (3, 2))))]
            r = region(*prims)
            assert region(*r.primitives).primitives == r.primitives

        # spiral membership and rejection
        for a in (8.0 + 0j, 1.0 + 3j, 0.7 - 2j):
            sp = region(Spiral(a))
            for lam in (1.0, cmath.exp(-a), cmath.exp(-2 * a)):
                assert contains(sp, lam)
            for lam in (1.2, -1.5j, 2.0 + 0.1j):
                assert abs(lam) > 1 and not contains(sp, lam)


def test_criterion_10_truncation_exactness():
    with criterion(10, "truncation exactness"):
        s = RationalSymbol((0, 0.5), (1,))
        vals = np.sort(np.abs(eigenvalues(truncation_from_coeffs(s.num, s.den, 32))))[::-1]
        expected = 0.5 ** np.arange(32)
        assert np.max(np.abs(vals - expected)) < 1e-10
