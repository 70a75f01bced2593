import cmath

import numpy as np
import pytest

from compspec import (MobiusMap, SecondOrderData, derivative,
                      fixed_points, lfm_from_data, is_disk_automorphism,
                      second_derivative, IDENTITY_FIXED, AT_INFINITY)
from compspec.errors import (DegenerateMapError, InvalidDataError, PoleError)
from compspec.mobius import (compose, evaluate, extract_data,
                             from_halfplane)

# R(z) = (1+z)/(1-z) takes the disk onto the right half-plane
R = MobiusMap(1, 1, -1, 1)
R_INV = MobiusMap(1, -1, 1, 1)

RNG = np.random.default_rng(20240817)


def random_map():
    while True:
        coeffs = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        try:
            return MobiusMap(*coeffs)
        except DegenerateMapError:
            continue


def test_canonical_normalization():
    m = MobiusMap(2, 4j, -1, 3)
    mags = [abs(m.a), abs(m.b), abs(m.c), abs(m.d)]
    assert abs(max(mags) - 1.0) < 1e-15
    # projectively equal inputs normalize to the same coefficients
    m2 = MobiusMap(2 * (3 - 1j), 4j * (3 - 1j), -(3 - 1j), 3 * (3 - 1j))
    assert m.close_to(m2, tol=1e-12)


def test_degenerate_rejected():
    with pytest.raises(DegenerateMapError):
        MobiusMap(1, 2, 2, 4)
    with pytest.raises(DegenerateMapError):
        MobiusMap(0, 0, 0, 0)


def test_pole_raises():
    m = MobiusMap(1, 0, 1, -1)  # pole at z = 1
    with pytest.raises(PoleError):
        evaluate(m, 1.0)


def test_compose_matches_pointwise():
    for _ in range(20):
        m1, m2 = random_map(), random_map()
        m = compose(m1, m2)
        for z in (0.3 + 0.1j, -0.5j, 0.9):
            assert abs(evaluate(m, z) - evaluate(m1, evaluate(m2, z))) < 1e-10


def test_compose_associative():
    for _ in range(20):
        m1, m2, m3 = random_map(), random_map(), random_map()
        left = compose(compose(m1, m2), m3)
        right = compose(m1, compose(m2, m3))
        assert left.close_to(right, tol=1e-9)


def test_chain_rule():
    for _ in range(20):
        m1, m2 = random_map(), random_map()
        m = compose(m1, m2)
        z = complex(*RNG.uniform(-0.5, 0.5, size=2))
        expected = derivative(m1, evaluate(m2, z)) * derivative(m2, z)
        assert abs(derivative(m, z) - expected) < 1e-8 * max(1.0, abs(expected))


def test_derivatives_match_finite_differences():
    for _ in range(10):
        m = random_map()
        z = complex(*RNG.uniform(-0.4, 0.4, size=2))
        h = 1e-5
        d1_fd = (evaluate(m, z + h) - evaluate(m, z - h)) / (2 * h)
        d2_fd = (evaluate(m, z + h) - 2 * evaluate(m, z)
                 + evaluate(m, z - h)) / h ** 2
        assert abs(derivative(m, z) - d1_fd) < 1e-6 * max(1.0, abs(d1_fd))
        assert abs(second_derivative(m, z) - d2_fd) < 1e-4 * max(1.0, abs(d2_fd))


def test_fixed_points_are_fixed():
    for _ in range(30):
        m = random_map()
        fps = fixed_points(m)
        if fps is IDENTITY_FIXED:
            continue
        for p in fps:
            if p is AT_INFINITY:
                continue
            assert abs(evaluate(m, p) - p) < 1e-7 * max(1.0, abs(p))


def test_fixed_points_psi2():
    # psi2(z) = (41z + 32)/(40z + 49): fixed points -1 and 4/5 with
    # derivatives 9 and 1/9
    psi2 = MobiusMap(41, 32, 40, 49)
    fps = sorted(fixed_points(psi2), key=lambda p: p.real)
    assert abs(fps[0] - (-1)) < 1e-10
    assert abs(fps[1] - 0.8) < 1e-10
    assert abs(derivative(psi2, fps[0]) - 9) < 1e-10
    assert abs(derivative(psi2, fps[1]) - 1 / 9) < 1e-10


def test_fixed_points_sentinels():
    assert fixed_points(MobiusMap(1, 0, 0, 1)) is IDENTITY_FIXED
    assert fixed_points(MobiusMap(1, 1, 0, 1)) == [AT_INFINITY]
    fps = fixed_points(MobiusMap(2, 1, 0, 1))  # z -> 2z + 1
    assert AT_INFINITY in fps
    finite = [p for p in fps if p is not AT_INFINITY]
    assert len(finite) == 1 and abs(finite[0] + 1) < 1e-12


def test_parabolic_double_root_once():
    # psi1(z) = (4 - 3z)/(5 - 4z) fixes only z = 1 (derivative 1)
    psi1 = MobiusMap(-3, 4, -4, 5)
    fps = fixed_points(psi1)
    assert len(fps) == 1
    assert abs(fps[0] - 1) < 1e-7
    assert abs(derivative(psi1, 1.0) - 1) < 1e-12


def test_halfplane_round_trip():
    for _ in range(20):
        m = random_map()
        back = from_halfplane(compose(R, compose(m, R_INV)))
        assert back.close_to(m, tol=1e-9)


def test_from_halfplane_of_translation_is_psi1():
    # psi1 is the disk map whose half-plane incarnation is w -> w + 8
    psi1 = from_halfplane(MobiusMap(1, 8, 0, 1))
    assert psi1.close_to(MobiusMap(-3, 4, -4, 5), tol=1e-9)
    for z in (0.3, -0.5j, 0.2 + 0.6j):
        assert abs(evaluate(R, psi1(z)) - (evaluate(R, z) + 8)) < 1e-9


def test_lfm_from_data_parabolic():
    psi = lfm_from_data(SecondOrderData(1, 1, 1, 8))
    assert psi.close_to(MobiusMap(-3, 4, -4, 5), tol=1e-9)


def test_lfm_from_data_hyperbolic():
    psi = lfm_from_data(SecondOrderData(-1, -1, 9, -80))
    assert psi.close_to(MobiusMap(41, 32, 40, 49), tol=1e-9)


def test_lfm_from_data_round_trip_random():
    for _ in range(20):
        theta, eta = RNG.uniform(0, 2 * np.pi, size=2)
        zeta = cmath.exp(1j * theta)
        value = cmath.exp(1j * eta)
        mod = RNG.uniform(0.2, 5.0)
        d1 = value * zeta.conjugate() * mod
        # pick d2 with a positive contact margin
        margin_free = RNG.uniform(0.05, 2.0)
        d2 = (margin_free - (1 / mod - 1)) * d1 * mod / zeta
        data = SecondOrderData(zeta, value, d1, d2)
        assert data.contact_margin() > 0
        psi = lfm_from_data(data)
        back = extract_data(psi, zeta)
        assert abs(back.value - value) < 1e-9
        assert abs(back.d1 - d1) < 1e-8 * max(1.0, abs(d1))
        assert abs(back.d2 - d2) < 1e-7 * max(1.0, abs(d2))


def test_lfm_from_data_rejects_automorphism_data():
    # the identity's data at 1 has margin 0
    with pytest.raises(InvalidDataError):
        lfm_from_data(SecondOrderData(1, 1, 1, 0))


def test_second_order_data_invariants():
    with pytest.raises(InvalidDataError):
        SecondOrderData(0.5, 1, 1, 0)     # zeta not unimodular
    with pytest.raises(InvalidDataError):
        SecondOrderData(1, 0.5, 1, 0)     # value not unimodular
    with pytest.raises(InvalidDataError):
        SecondOrderData(1, 1, -1, 0)      # misaligned angular derivative
    with pytest.raises(InvalidDataError):
        SecondOrderData(1, 1, 1j, 0)      # misaligned angular derivative


def test_is_disk_automorphism():
    assert is_disk_automorphism(MobiusMap(1j, 0, 0, 1))          # rotation
    assert is_disk_automorphism(MobiusMap(1, -0.3, -0.3, 1))     # Blaschke
    assert not is_disk_automorphism(MobiusMap(41, 32, 40, 49))
    assert not is_disk_automorphism(MobiusMap(-3, 4, -4, 5))
    assert not is_disk_automorphism(MobiusMap(0.5, 0, 0, 1))
