"""Finite-matrix laboratory for the annihilation-sum spectral lemmas.

Structured random families of square complex matrices are built so that
a declared pattern of pairwise products vanishes exactly (block support
construction, then one well-conditioned similarity applied to the whole
family, which preserves all products and spectra).  A dense eigenvalue
oracle then verifies the spectral statements on each family.

All statements are about spectra as *sets*: comparisons are tolerance
set matching, ignoring multiplicity, with the tolerance scaled by the
Frobenius norms involved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDataError, RootFindingError
from .symbol import RationalSymbol

__all__ = [
    "Pattern", "AnnihilationFamily", "eigenvalues", "make_family",
    "spectra_match", "check_inclusion_FL", "check_union_FLC",
    "check_equality_TA", "check_equality_CTA", "check_LIP", "check_n2c",
    "check_RSM", "family_size", "run_checker", "truncated_matrix",
    "truncation_from_coeffs",
]

MAX_ORDER = 128
MAX_TRUNCATION = 512
SET_MATCH_TOL = 1e-7


class Pattern(str, enum.Enum):
    ONE_WAY = "one_way"              # a_i a_j = 0 for i < j
    TWO_SIDED = "two_sided"          # a_i a_j = a_j a_i = 0 for i != j
    NILPOTENT_PAIR = "nilpotent_pair"  # a_1^2 = a_2^2 = 0
    LEAD_IN = "lead_in"              # a_1 a_2 = 0 and a_2^2 = 0
    CYCLIC = "cyclic"                # a_j a_k = 0 unless k = (j+1) mod n


@dataclass(frozen=True)
class AnnihilationFamily:
    matrices: tuple  # of equal-order complex ndarrays
    pattern: Pattern
    seed: int

    @property
    def order(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def n(self) -> int:
        return len(self.matrices)


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues with multiplicity (LAPACK dense solver:
    balancing, Hessenberg reduction, shifted QR)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDataError("matrix must be square")
    if m.shape[0] > MAX_ORDER:
        raise InvalidDataError(f"order exceeds cap {MAX_ORDER}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise RootFindingError("eigenvalue iteration failed") from exc


def eigenpair_residuals(m: np.ndarray) -> np.ndarray:
    """max-norm residuals ||m v - lambda v|| per eigenpair (oracle
    re-verification)."""
    vals, vecs = np.linalg.eig(np.asarray(m, dtype=complex))
    res = m @ vecs - vecs * vals
    return np.linalg.norm(res, axis=0)


# ----------------------------------------------------------------------
# family construction
# ----------------------------------------------------------------------

def _required_zero_pairs(pattern: Pattern, n: int):
    """(i, j) index pairs with a_i a_j required to vanish."""
    if pattern is Pattern.ONE_WAY:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pattern is Pattern.TWO_SIDED:
        return [(i, j) for i in range(n) for j in range(n) if i != j]
    if pattern is Pattern.NILPOTENT_PAIR:
        return [(0, 0), (1, 1)]
    if pattern is Pattern.LEAD_IN:
        return [(0, 1), (1, 1)]
    if pattern is Pattern.CYCLIC:
        return [(j, k) for j in range(n) for k in range(n)
                if k != (j + 1) % n]
    raise InvalidDataError(f"unknown pattern {pattern}")


def _supports(pattern: Pattern, n: int):
    """(source_block, target_blocks) per matrix, and the block count.

    a_j is nonzero only on rows in its target blocks and columns in its
    source block, so a_i a_j = 0 exactly when the targets of a_j miss
    the source of a_i.
    """
    if pattern is Pattern.ONE_WAY:
        # chain: a_j acts on V_j, leaking into V_{j+1}; products vanish
        # upward (i < j) but a_{j+1} a_j is generically nonzero
        return [(j, [j] if j == n - 1 else [j, j + 1]) for j in range(n)], n
    if pattern is Pattern.TWO_SIDED:
        return [(j, [j]) for j in range(n)], n
    if pattern is Pattern.NILPOTENT_PAIR:
        return [(0, [1]), (1, [0])], 2
    if pattern is Pattern.LEAD_IN:
        return [(0, [0, 1]), (1, [2])], 3
    if pattern is Pattern.CYCLIC:
        return [((j + 1) % n, [j]) for j in range(n)], n
    raise InvalidDataError(f"unknown pattern {pattern}")


def _well_conditioned_similarity(order: int, rng) -> np.ndarray:
    for _ in range(50):
        s = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
        s /= np.sqrt(2.0 * order)
        s += np.eye(order)
        if np.linalg.cond(s) < 100.0:
            return s
    raise RootFindingError("could not draw a well-conditioned similarity")


def make_family(pattern: Pattern | str, n: int, order: int,
                seed: int) -> AnnihilationFamily:
    """Seeded structured family realizing the pattern exactly, then
    conjugated by one random well-conditioned similarity."""
    pattern = Pattern(pattern)
    if pattern in (Pattern.NILPOTENT_PAIR, Pattern.LEAD_IN) and n != 2:
        raise InvalidDataError(f"{pattern.value} is a two-element pattern")
    if n < 2:
        raise InvalidDataError("need at least two matrices")
    rng = np.random.default_rng(seed)
    supports, nblocks = _supports(pattern, n)
    if order < nblocks:
        raise InvalidDataError(
            f"order {order} too small for {nblocks} blocks")
    blocks = np.array_split(np.arange(order), nblocks)
    mats = []
    for src, targets in supports:
        m = np.zeros((order, order), dtype=complex)
        rows = np.concatenate([blocks[t] for t in targets])
        cols = blocks[src]
        m[np.ix_(rows, cols)] = (rng.normal(size=(rows.size, cols.size))
                                 + 1j * rng.normal(size=(rows.size, cols.size)))
        mats.append(m)
    s = _well_conditioned_similarity(order, rng)
    s_inv = np.linalg.inv(s)
    mats = [s @ m @ s_inv for m in mats]
    fam = AnnihilationFamily(tuple(mats), pattern, seed)
    _verify_products(fam)
    return fam


def _verify_products(fam: AnnihilationFamily):
    norms = [np.linalg.norm(m) for m in fam.matrices]
    for i, j in _required_zero_pairs(fam.pattern, fam.n):
        scale = max(1.0, norms[i] * norms[j])
        err = np.linalg.norm(fam.matrices[i] @ fam.matrices[j])
        if err > 1e-10 * scale:
            raise RootFindingError(
                f"construction bug: product a_{i} a_{j} has norm {err}")


# ----------------------------------------------------------------------
# set matching
# ----------------------------------------------------------------------

def _scaled_tol(fam_or_mats) -> float:
    mats = (fam_or_mats.matrices if isinstance(fam_or_mats, AnnihilationFamily)
            else fam_or_mats)
    scale = max(1.0, max(np.linalg.norm(m) for m in mats))
    return SET_MATCH_TOL * scale


def _nonzero(vals: np.ndarray, tol: float) -> np.ndarray:
    return vals[np.abs(vals) > tol]


def spectra_match(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Set equality up to tolerance, ignoring multiplicity."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size == 0 and b.size == 0:
        return True
    if a.size == 0 or b.size == 0:
        return False
    d = np.abs(a[:, None] - b[None, :])
    return bool(np.all(d.min(axis=1) <= tol) and np.all(d.min(axis=0) <= tol))


def _subset(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size == 0:
        return True
    if b.size == 0:
        return False
    return bool(np.all(np.abs(a[:, None] - b[None, :]).min(axis=1) <= tol))


# ----------------------------------------------------------------------
# the lemma checkers
# ----------------------------------------------------------------------

def check_inclusion_FL(fam: AnnihilationFamily) -> bool:
    """sigma(a_1 + a_2) inside sigma(a_1) u sigma(a_2); inclusion only."""
    if fam.pattern is not Pattern.ONE_WAY or fam.n != 2:
        raise InvalidDataError("needs a one-way pair")
    return check_union_FLC(fam)


def check_union_FLC(fam: AnnihilationFamily) -> bool:
    if fam.pattern is not Pattern.ONE_WAY:
        raise InvalidDataError("needs a one-way family")
    tol = _scaled_tol(fam)
    total = eigenvalues(sum(fam.matrices))
    union = np.concatenate([eigenvalues(m) for m in fam.matrices])
    return _subset(total, union, tol)


def check_equality_TA(fam: AnnihilationFamily) -> bool:
    if fam.pattern is not Pattern.TWO_SIDED or fam.n != 2:
        raise InvalidDataError("needs a two-sided pair")
    return check_equality_CTA(fam)


def check_equality_CTA(fam: AnnihilationFamily) -> bool:
    """Nonzero spectrum of the sum equals the nonzero union."""
    if fam.pattern is not Pattern.TWO_SIDED:
        raise InvalidDataError("needs a two-sided family")
    tol = _scaled_tol(fam)
    total = _nonzero(eigenvalues(sum(fam.matrices)), tol)
    union = _nonzero(np.concatenate([eigenvalues(m) for m in fam.matrices]),
                     tol)
    return spectra_match(total, union, tol)


def check_LIP(fam: AnnihilationFamily) -> bool:
    """a_1 a_2 = 0 and a_2^2 = 0: the nilpotent lead-in summand drops
    out of the nonzero spectrum."""
    if fam.pattern is not Pattern.LEAD_IN:
        raise InvalidDataError("needs a lead-in pair")
    tol = _scaled_tol(fam)
    a1, a2 = fam.matrices
    total = _nonzero(eigenvalues(a1 + a2), tol)
    alone = _nonzero(eigenvalues(a1), tol)
    return spectra_match(total, alone, tol)


def check_n2c(fam: AnnihilationFamily) -> bool:
    """For a square-zero pair, nonzero lambda in sigma(a_1 + a_2) iff
    lambda^2 in sigma(a_1 a_2) iff lambda^2 in sigma(a_2 a_1); the last
    equivalence also witnesses Jacobson's lemma."""
    if fam.pattern is not Pattern.NILPOTENT_PAIR:
        raise InvalidDataError("needs a nilpotent pair")
    tol = _scaled_tol(fam)
    a1, a2 = fam.matrices
    total = _nonzero(eigenvalues(a1 + a2), tol)
    sq = total ** 2
    p12 = _nonzero(eigenvalues(a1 @ a2), tol)
    p21 = _nonzero(eigenvalues(a2 @ a1), tol)
    tol2 = _scaled_tol([a1 @ a2])
    return (spectra_match(sq, p12, tol2)
            and spectra_match(sq, p21, tol2)
            and spectra_match(p12, p21, tol2))


def check_RSM(fam: AnnihilationFamily) -> bool:
    """Cyclic pattern: nonzero sigma(sum a_j) = {lambda: lambda^n in
    sigma(prod a_j)}, with rotation invariance and the cyclic-shift
    (Jacobson) variants of the product."""
    if fam.pattern is not Pattern.CYCLIC:
        raise InvalidDataError("needs a cyclic family")
    n = fam.n
    tol = _scaled_tol(fam)

    def shifted_product(k):
        prod = np.eye(fam.order, dtype=complex)
        for j in range(k, k + n):
            prod = prod @ fam.matrices[j % n]
        return prod

    prod0 = shifted_product(0)
    tolp = _scaled_tol([prod0])
    spec0 = _nonzero(eigenvalues(prod0), tolp)
    # Genuine nonzero eigenvalues lambda of the sum satisfy lambda^n in
    # the nonzero spectrum of the product, so |lambda| is bounded below
    # by min|spec0|^(1/n).  Defective zero eigenvalues of the sum, on
    # the other hand, perturb as far as about eps^(1/multiplicity),
    # which the plain matching tolerance does not cover; cut between
    # the two regimes.
    vals = eigenvalues(sum(fam.matrices))
    if spec0.size:
        cut = max(tol, float(np.min(np.abs(spec0))) ** (1.0 / n) / 10.0)
    else:
        cut = tol
    total = vals[np.abs(vals) > cut]
    powered = total ** n
    if not spectra_match(powered, spec0, tolp):
        return False
    # rotation invariance of the left-hand set under nth roots of unity
    for k in range(1, n):
        u = np.exp(2j * np.pi * k / n)
        if not spectra_match(total, u * total, tol):
            return False
    # cyclic shifts of the product have the same nonzero spectrum
    for k in range(1, n):
        if not spectra_match(spec0, _nonzero(eigenvalues(shifted_product(k)),
                                             tolp), tolp):
            return False
    return True


_CHECKERS = {
    "fl": (Pattern.ONE_WAY, check_inclusion_FL, 2),
    "flc": (Pattern.ONE_WAY, check_union_FLC, None),
    "ta": (Pattern.TWO_SIDED, check_equality_TA, 2),
    "cta": (Pattern.TWO_SIDED, check_equality_CTA, None),
    "lip": (Pattern.LEAD_IN, check_LIP, 2),
    "n2c": (Pattern.NILPOTENT_PAIR, check_n2c, 2),
    "rsm": (Pattern.CYCLIC, check_RSM, None),
}


def family_size(lemma: str, n: int) -> int:
    """The family size a named checker runs with: n, unless its pattern
    fixes the size."""
    if lemma not in _CHECKERS:
        raise InvalidDataError(
            f"unknown lemma {lemma!r}; choose from {sorted(_CHECKERS)}")
    fixed_n = _CHECKERS[lemma][2]
    return n if fixed_n is None else fixed_n


def run_checker(lemma: str, n: int, order: int, trials: int,
                master_seed: int):
    """Run a named checker over seeded trials; returns (all_pass,
    failing_seeds).  Per-trial seeds derive from the master seed so any
    failure is reproducible in isolation."""
    n = family_size(lemma, n)
    pattern, checker, _ = _CHECKERS[lemma]
    failing = []
    for t in range(trials):
        seed = int(np.random.default_rng([master_seed, t]).integers(2 ** 31))
        fam = make_family(pattern, n, order, seed)
        if not checker(fam):
            failing.append(seed)
    return (not failing), failing


# ----------------------------------------------------------------------
# H^2 monomial-basis truncation (diagnostic only)
# ----------------------------------------------------------------------

def truncated_matrix(s: RationalSymbol, order: int) -> np.ndarray:
    """Column j holds the first `order` Taylor coefficients of phi^j.

    Heuristic diagnostic: no convergence of its eigenvalues to the
    operator spectrum is claimed, except in the exactly solvable
    monomial case.
    """
    if not isinstance(s, RationalSymbol):
        raise InvalidDataError("truncation needs a rational symbol")
    return truncation_from_coeffs(s.num, s.den, order)


def truncation_from_coeffs(num_coeffs, den_coeffs, order: int) -> np.ndarray:
    """Truncation matrix straight from coefficient arrays (also admits
    degenerate symbols, e.g. constants, that the symbol type rejects)."""
    if not (1 <= order <= MAX_TRUNCATION):
        raise InvalidDataError(f"order must be in [1, {MAX_TRUNCATION}]")
    num_coeffs = np.asarray(num_coeffs, dtype=complex)
    den_coeffs = np.asarray(den_coeffs, dtype=complex)
    num = np.zeros(order, dtype=complex)
    den = np.zeros(order, dtype=complex)
    num[: min(order, len(num_coeffs))] = num_coeffs[:order]
    den[: min(order, len(den_coeffs))] = den_coeffs[:order]
    if abs(den[0]) < 1e-14:
        raise InvalidDataError("denominator constant term is ~0")
    # series division num / den to `order` terms
    series = np.zeros(order, dtype=complex)
    for k in range(order):
        acc = num[k] - np.dot(den[1: k + 1], series[k - 1:: -1][: k])
        series[k] = acc / den[0]
    mat = np.zeros((order, order), dtype=complex)
    col = np.zeros(order, dtype=complex)
    col[0] = 1.0
    mat[:, 0] = col
    for j in range(1, order):
        col = np.convolve(col, series)[:order]
        mat[:, j] = col
    return mat
