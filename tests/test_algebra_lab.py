import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from compspec import RationalSymbol
from compspec.algebra_lab import (AnnihilationFamily, Pattern, check_LIP,
                                  check_RSM, check_equality_CTA,
                                  check_equality_TA, check_inclusion_FL,
                                  check_n2c, check_union_FLC,
                                  eigenpair_residuals, eigenvalues,
                                  make_family, run_checker, spectra_match,
                                  truncated_matrix, truncation_from_coeffs,
                                  _required_zero_pairs, _verify_products)
from compspec.errors import InvalidDataError, RootFindingError

RNG = np.random.default_rng(99)


# -- eigenvalue oracle -------------------------------------------------

def test_eigenvalues_against_charpoly_roots():
    for _ in range(5):
        m = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
        vals = eigenvalues(m)
        char = np.poly(m)  # leading-first coefficients
        roots = P.polyroots(char[::-1])
        assert spectra_match(vals, roots, 1e-7 * np.linalg.norm(m))


def test_eigenpair_residuals_small():
    m = RNG.normal(size=(10, 10)) + 1j * RNG.normal(size=(10, 10))
    assert np.max(eigenpair_residuals(m)) < 1e-10 * np.linalg.norm(m)


def test_eigenvalues_validation():
    with pytest.raises(InvalidDataError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(InvalidDataError):
        eigenvalues(np.zeros((200, 200)))


# -- family construction -----------------------------------------------

@pytest.mark.parametrize("pattern,n", [
    (Pattern.ONE_WAY, 2), (Pattern.ONE_WAY, 4),
    (Pattern.TWO_SIDED, 2), (Pattern.TWO_SIDED, 5),
    (Pattern.NILPOTENT_PAIR, 2), (Pattern.LEAD_IN, 2),
    (Pattern.CYCLIC, 3), (Pattern.CYCLIC, 5),
])
def test_required_products_vanish(pattern, n):
    fam = make_family(pattern, n, 17, seed=5)
    for i, j in _required_zero_pairs(pattern, n):
        a, b = fam.matrices[i], fam.matrices[j]
        assert np.linalg.norm(a @ b) < 1e-9 * max(
            1.0, np.linalg.norm(a) * np.linalg.norm(b))


def test_nonzero_required_product_is_a_construction_bug():
    shift = np.diag(np.ones(3, dtype=complex), 1)   # shift @ shift != 0
    fam = AnnihilationFamily((shift, shift.T),
                             Pattern.NILPOTENT_PAIR, seed=0)
    with pytest.raises(RootFindingError, match="a_0 a_0"):
        _verify_products(fam)


def test_non_required_products_nonzero():
    fam = make_family(Pattern.ONE_WAY, 3, 12, seed=5)
    # a_2 a_1 is allowed (and generically) nonzero
    assert np.linalg.norm(fam.matrices[2] @ fam.matrices[1]) > 1e-3


def test_family_is_seeded():
    a = make_family(Pattern.CYCLIC, 3, 9, seed=42)
    b = make_family(Pattern.CYCLIC, 3, 9, seed=42)
    for x, y in zip(a.matrices, b.matrices):
        assert np.array_equal(x, y)


def test_family_validation():
    with pytest.raises(InvalidDataError):
        make_family(Pattern.NILPOTENT_PAIR, 3, 8, seed=0)
    with pytest.raises(InvalidDataError):
        make_family(Pattern.CYCLIC, 5, 3, seed=0)  # order < blocks
    with pytest.raises(InvalidDataError):
        make_family(Pattern.TWO_SIDED, 1, 8, seed=0)


# -- set matching ------------------------------------------------------

def test_spectra_match_basics():
    assert spectra_match(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 1e-9)
    # multiplicity is ignored
    assert spectra_match(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0]), 1e-9)
    assert not spectra_match(np.array([1.0]), np.array([1.1]), 1e-3)
    assert spectra_match(np.array([]), np.array([]), 1e-9)
    assert not spectra_match(np.array([1.0]), np.array([]), 1e-9)


# -- checkers ----------------------------------------------------------

@pytest.mark.parametrize("checker,pattern,n", [
    (check_inclusion_FL, Pattern.ONE_WAY, 2),
    (check_union_FLC, Pattern.ONE_WAY, 4),
    (check_equality_TA, Pattern.TWO_SIDED, 2),
    (check_equality_CTA, Pattern.TWO_SIDED, 5),
    (check_LIP, Pattern.LEAD_IN, 2),
    (check_n2c, Pattern.NILPOTENT_PAIR, 2),
    (check_RSM, Pattern.CYCLIC, 3),
    (check_RSM, Pattern.CYCLIC, 5),
])
def test_checkers_pass(checker, pattern, n):
    for seed in (1, 2, 3):
        assert checker(make_family(pattern, n, 18, seed=seed))


def test_checker_pattern_mismatch():
    fam = make_family(Pattern.TWO_SIDED, 2, 8, seed=0)
    with pytest.raises(InvalidDataError):
        check_inclusion_FL(fam)


def test_rsm_order_not_divisible_by_n():
    # block sizes differ, so the sum has defective zero eigenvalues;
    # the checker must still separate them from the genuine spectrum
    for order in (11, 17, 23):
        assert check_RSM(make_family(Pattern.CYCLIC, 5, order, seed=3))


def test_run_checker():
    ok, failing = run_checker("rsm", 4, 16, 10, master_seed=7)
    assert ok and failing == []
    with pytest.raises(InvalidDataError):
        run_checker("nope", 2, 8, 1, 0)


def test_run_checker_reports_failing_seed(monkeypatch):
    import compspec.algebra_lab as al
    calls = []

    def flaky(fam):
        calls.append(fam.seed)
        return len(calls) != 2  # fail exactly the second trial

    monkeypatch.setitem(al._CHECKERS, "ta", (Pattern.TWO_SIDED, flaky, 2))
    ok, failing = run_checker("ta", 2, 8, 3, master_seed=1)
    assert not ok
    assert failing == [calls[1]]


# -- truncation --------------------------------------------------------

def test_truncation_monomial_exact():
    s = RationalSymbol((0, 0.5), (1,))
    m = truncated_matrix(s, 16)
    vals = np.sort(np.abs(eigenvalues(m)))[::-1]
    expected = 0.5 ** np.arange(16)
    assert np.max(np.abs(vals - expected)) < 1e-12


def test_truncation_first_column_is_one():
    s = RationalSymbol((-2, -1, 2), (-3, 0, 2))
    m = truncated_matrix(s, 12)
    assert m[0, 0] == 1.0 and np.all(m[1:, 0] == 0.0)


def test_truncation_columns_are_symbol_powers():
    s = RationalSymbol((0, 0.25, 0.25), (1,))
    m = truncated_matrix(s, 10)
    # column 2 should hold the Taylor coefficients of phi^2
    phi = np.zeros(10, dtype=complex)
    phi[1] = phi[2] = 0.25
    sq = np.convolve(phi, phi)[:10]
    assert np.max(np.abs(m[:, 2] - sq)) < 1e-14


def test_truncation_constant_symbol():
    m = truncation_from_coeffs([0.3], [1.0], 5)
    vals = np.sort(np.abs(eigenvalues(m)))[::-1]
    assert abs(vals[0] - 1.0) < 1e-12
    assert np.max(vals[1:]) < 1e-12
    assert np.max(np.abs(m[0, :] - 0.3 ** np.arange(5))) < 1e-14


def test_truncation_validation():
    with pytest.raises(InvalidDataError):
        truncation_from_coeffs([1.0], [1.0], 0)
    with pytest.raises(InvalidDataError):
        truncation_from_coeffs([1.0], [0.0, 1.0], 4)
