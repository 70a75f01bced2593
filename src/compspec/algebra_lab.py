"""Finite-matrix laboratory for the annihilation-sum spectral lemmas.

Structured random families of square complex matrices are built so that
a declared pattern of pairwise products vanishes exactly (block support
construction, then one well-conditioned similarity applied to the whole
family, which preserves all products and spectra).  A dense eigenvalue
oracle then verifies the spectral statements.  The seven lemma names
check three statements: the spectrum of the sum lies in the union of
the summands' spectra (fl, flc); its nonzero part equals their nonzero
union (ta, cta, and lip, whose lead-in summand is square-zero); and
the cyclic root spectral mapping (rsm, and n2c, the square-zero pair,
as its n = 2 case).

Each summand's block b_j reads one source block of columns C_j, and
no two summands share one, so W = S sum_j b_j is S b_j on C_j,
exactly, and a_j is formed as W[:, C_j] S^-1[C_j, :]: the bits of S
b_j S^-1, from one dense product per family and one thin one per
summand.  The required products a_i a_j are then bounded, not formed:
two summands that share a source block are a construction bug, and
one product P_i = a_i W per left factor a_i bounds every required
a_i a_j, to within its roundoff, by ||P_i[:, C_j]|| ||S^-1[C_j, :]||
(see _product_bounds).  A bound above CONSTRUCTION_TOL max(1,
||a_i|| ||a_j||) is a construction bug.

A similarity candidate S is accepted when cond_2(S) < 100.  Every
candidate is inverted first, and ||S||_F ||S^-1||_F bounds cond_2(S)
from above, so only the candidates that bound fails to prove get an
SVD.

Only the sums get a dense solve of their conjugated matrices, since
that is where each lemma has content.  The summands and their products
are solved on the unconjugated block-supported family, whose spectra
the similarity leaves unchanged, and only on their nonzero columns: a
matrix that is zero off its columns C has the spectrum of its C x C
part, plus 0 (see _block_spectra).  Every tolerance is still scaled by
the norms of the conjugated matrices.

Seeded trials are built and checked in stacks, so that each inverse,
product, norm and eigen-solve is one LAPACK or BLAS call per stack
rather than per matrix.  A stack holds as many families as fit in
STACK_BYTES at its peak (see _trial_bytes), and per family only order
x order matrices: the block matrix B = sum_j b_j, S^-1, W and the sum
of the a_j.  Each a_j is formed once, for all trials, and used at once
for its norm, the running sum, its product P_j and the cyclic product,
then dropped.  Every trial draws from its own seeded stream, so a
family has the same bits alone as in a stack, and `make_family`
rebuilds any one trial from its seed, keeping the a_j as they are
formed.

All statements are about spectra as *sets*: comparisons are tolerance
set matching, ignoring multiplicity, with the tolerance scaled by the
Frobenius norms involved.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidDataError, RootFindingError

__all__ = [
    "Pattern", "eigenvalues", "make_family", "family_size", "run_checker",
    "truncation_from_coeffs",
]

MAX_ORDER = 128
SET_MATCH_TOL = 1e-7
# the most a stack of families may hold at its peak (_trial_bytes), down
# to one family: 17 families of n = 4 or 5 at order 24 and 39 of n = 2 at
# order 16, so 50 trials of the lemma_lab suites take 2 or 3 stacks
# (fewer stacks save call overhead), each holding at most about 1.2 MB
STACK_BYTES = 9 * 2 ** 17
SIMILARITY_DRAWS = 50
# a required product a_i a_j passes the construction check when a bound
# on its norm is at most this times max(1, ||a_i|| ||a_j||): far above
# the bound's roundoff (about order eps), far below a genuinely nonzero
# product of unit-scale blocks
CONSTRUCTION_TOL = 1e-10


class Pattern(str, enum.Enum):
    ONE_WAY = "one_way"              # a_i a_j = 0 for i < j
    TWO_SIDED = "two_sided"          # a_i a_j = a_j a_i = 0 for i != j
    LEAD_IN = "lead_in"              # a_1 a_2 = 0 and a_2^2 = 0
    CYCLIC = "cyclic"                # a_j a_k = 0 unless k = (j+1) mod n


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues with multiplicity of a square matrix, or of every
    matrix of a (..., k, k) stack in one call (LAPACK dense solver:
    balancing, Hessenberg reduction, shifted QR)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidDataError("matrix must be square")
    if m.shape[-1] > MAX_ORDER:
        raise InvalidDataError(f"order exceeds cap {MAX_ORDER}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise RootFindingError("eigenvalue iteration failed") from exc


# ----------------------------------------------------------------------
# family construction
# ----------------------------------------------------------------------

def _required_zero_pairs(pattern: Pattern, n: int):
    """(i, j) index pairs with a_i a_j required to vanish."""
    if pattern is Pattern.ONE_WAY:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pattern is Pattern.TWO_SIDED:
        return [(i, j) for i in range(n) for j in range(n) if i != j]
    if pattern is Pattern.LEAD_IN:
        return [(0, 1), (1, 1)]
    if pattern is Pattern.CYCLIC:
        return [(j, k) for j in range(n) for k in range(n)
                if k != (j + 1) % n]
    raise InvalidDataError(f"unknown pattern {pattern}")


def _supports(pattern: Pattern, n: int):
    """(source_block, target_blocks) per matrix, and the block count.

    a_j is nonzero only on rows in its target blocks, which are
    consecutive, and columns in its source block, so a_i a_j = 0 exactly
    when the targets of a_j miss the source of a_i.
    """
    if pattern is Pattern.ONE_WAY:
        # chain: a_j acts on V_j, leaking into V_{j+1}; products vanish
        # upward (i < j) but a_{j+1} a_j is generically nonzero
        return [(j, [j] if j == n - 1 else [j, j + 1]) for j in range(n)], n
    if pattern is Pattern.TWO_SIDED:
        return [(j, [j]) for j in range(n)], n
    if pattern is Pattern.LEAD_IN:
        return [(0, [0, 1]), (1, [2])], 3
    if pattern is Pattern.CYCLIC:
        return [((j + 1) % n, [j]) for j in range(n)], n
    raise InvalidDataError(f"unknown pattern {pattern}")


def _similarity_candidate(pair: np.ndarray) -> np.ndarray:
    """Candidates from (..., 2, order, order) real and imaginary parts."""
    order = pair.shape[-1]
    z = pair[..., 1, :, :] * 1j
    z += pair[..., 0, :, :]
    z /= np.sqrt(2.0 * order)
    z += np.eye(order)
    return z


def _well_conditioned(s: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
    """cond_2(s) < 100 for each candidate of a stack, given the
    inverses.  ||s||_F ||s^-1||_F bounds cond_2(s) from above, so a
    candidate under the bound, less a margin for the roundoff of both
    sides, is proven without an SVD; the rest get one."""
    ok = _norms(s) * _norms(s_inv) < 100.0 * (1 - 1e-9)
    unproven = np.flatnonzero(~ok)
    if unproven.size:
        ok[unproven] = np.linalg.cond(s[unproven]) < 100.0
    return ok


def _redraw_similarity(order: int, rng) -> np.ndarray:
    """The remaining candidates of a trial whose first one failed."""
    for _ in range(SIMILARITY_DRAWS - 1):
        s = _similarity_candidate(rng.normal(size=(2, order, order)))
        if np.linalg.cond(s) < 100.0:
            return s
    raise RootFindingError("could not draw a well-conditioned similarity")


def _conjugation(spans, order: int, seeds):
    """(B, S^-1, W = S B) of the stack's families, whose blocks b_j are
    the (rows, cols) of spans; S and the draws are dropped on return."""
    # each trial's draws: every block, then its first similarity
    # candidate, as (2, rows, cols) real and imaginary parts
    shapes = [(2, rows.stop - rows.start, cols.stop - cols.start)
              for rows, cols in spans]
    shapes.append((2, order, order))
    trials = len(seeds)
    ends = list(itertools.accumulate(map(math.prod, shapes)))
    draws = np.empty((trials, ends[-1]))
    for t, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=draws[t])
    parts = [draws[:, end - math.prod(shape): end].reshape(trials, *shape)
             for end, shape in zip(ends, shapes)]
    # the source blocks are distinct, so B holds every b_j unchanged
    blocks = np.zeros((trials, order, order), dtype=complex)
    for j, (rows, cols) in enumerate(spans):
        blocks.real[:, rows, cols] = parts[j][:, 0]
        blocks.imag[:, rows, cols] = parts[j][:, 1]
    s = _similarity_candidate(parts[-1])
    del draws, parts
    s_inv = np.linalg.inv(s)
    redrawn = np.flatnonzero(~_well_conditioned(s, s_inv))
    for t in redrawn:
        # the trial's stream past the draws it has used
        rng = np.random.default_rng(seeds[t])
        rng.standard_normal(ends[-1])
        s[t] = _redraw_similarity(order, rng)
    if redrawn.size:
        s_inv[redrawn] = np.linalg.inv(s[redrawn])
    # and W = S B is S b_j on C_j, exactly
    return blocks, s_inv, s @ blocks


class _Stack(NamedTuple):
    """A stack of seeded families as the checkers read them.  b_j is
    blocks on its source columns cols[j] and zero elsewhere."""

    sums: np.ndarray        # (trials, order, order): sum_j a_j
    norms: np.ndarray       # (trials, n): ||a_j||_F
    blocks: np.ndarray      # (trials, order, order): B = sum_j b_j
    cols: list              # C_j, a slice, per summand
    # (trials,): ||a_0 a_1 ... a_{n-1}||_F, if it was formed
    cyclic_norms: np.ndarray | None


def _make_stack(pattern: Pattern | str, n: int, order: int, seeds,
                cyclic_product: bool = False, keep: list | None = None):
    """One seeded family per seed, each realizing the pattern exactly
    and conjugated by its own well-conditioned similarity, as a _Stack.
    With cyclic_product it records ||a_0 ... a_{n-1}||_F; each a_j,
    (trials, order, order), is appended to keep if given.

    The family seeded by s draws from default_rng(s): the real, then
    the imaginary part of each matrix's block, then similarity
    candidates until one has condition number below 100.  All shapes
    are validated before any order-sized array exists.
    """
    pattern = Pattern(pattern)
    if pattern is Pattern.LEAD_IN and n != 2:
        raise InvalidDataError(f"{pattern.value} is a two-element pattern")
    if n < 2:
        raise InvalidDataError("need at least two matrices")
    supports, nblocks = _supports(pattern, n)
    sources = [src for src, _ in supports]
    if len(set(sources)) < n:
        raise RootFindingError(
            f"construction bug: summands share a source block ({sources})")
    if order < nblocks:
        raise InvalidDataError(
            f"order {order} too small for {nblocks} blocks")
    if order > MAX_ORDER:
        raise InvalidDataError(f"order exceeds cap {MAX_ORDER}")
    # block k spans [edges[k], edges[k + 1]), cut as np.array_split cuts
    q, r = divmod(order, nblocks)
    edges = [k * q + min(k, r) for k in range(nblocks + 1)]
    spans = [(slice(edges[targets[0]], edges[targets[-1] + 1]),
              slice(edges[src], edges[src + 1])) for src, targets in supports]
    blocks, s_inv, w = _conjugation(spans, order, seeds)
    cols = [c for _, c in spans]
    pairs = _required_zero_pairs(pattern, n)
    total, norms, sq, cyclic_norms = _summands(
        w, s_inv, cols, {i for i, _ in pairs}, cyclic_product, keep)
    _check_products(sq, norms, w, s_inv, edges, sources, pairs, seeds)
    return _Stack(total, norms, blocks, cols, cyclic_norms)


def _summands(w, s_inv, cols, left, cyclic_product, keep):
    """Form each summand a_j = W[:, C_j] S^-1[C_j, :] of a stack once
    and use it at once; returns their running sum, the norms ||a_j||_F,
    (trials, n), sq with the squared column norms of P_i = a_i W in row
    i for each left factor i (see _product_bounds), and, with
    cyclic_product, ||a_0 ... a_{n-1}||_F."""
    trials, order = w.shape[:2]
    n = len(cols)
    sq = np.zeros((trials, n + 2, 2 * order))
    norms = np.empty((trials, n))
    for j, c in enumerate(cols):
        a = w[:, :, c] @ s_inv[:, c]
        norms[:, j] = _norms(a)
        if j in left:
            _column_sq(a @ w, sq[:, j])
        if cyclic_product:
            prod = a if j == 0 else prod @ a
        if j == 0:
            total = a.copy()
        else:
            total += a
        if keep is not None:
            keep.append(a)
    return total, norms, sq, _norms(prod) if cyclic_product else None


def make_family(pattern: Pattern | str, n: int, order: int,
                seed: int) -> np.ndarray:
    """Seeded structured family realizing the pattern exactly, then
    conjugated by one random well-conditioned similarity, as an
    (n, order, order) array whose j-th matrix is a_j."""
    summands = []
    _make_stack(pattern, n, order, [seed], keep=summands)
    return np.concatenate(summands)


def _column_sq(m: np.ndarray, out: np.ndarray):
    """Squared norms of the columns of each complex matrix of a stack,
    per real and imaginary part, into out, (trials, 2 * cols)."""
    v = m.view(float)
    np.einsum("...ij,...ij->...j", v, v, out=out)


def _product_bounds(sq, norms, w, s_inv, edges, sources,
                    pairs) -> np.ndarray:
    """Upper bounds, (trials, len(pairs)), on ||a_i a_j||_F for the
    exact products of the summands of a stack built by _make_stack,
    from one product P_i = a_i W per left factor i, given sq, whose row
    i holds the squared column norms of P_i (_column_sq); norms are the
    ||a_j||_F, (trials, n).

    a_i a_j = P_i[:, C_j] S^-1[C_j, :] up to the rounding of a_j and
    of P_i, each at most gamma_k |x||y| for a k-term complex product
    (Higham, Accuracy and Stability, 3.5-3.6), so
    ||a_i a_j|| <= ||P_i[:, C_j]|| ||S^-1[C_j, :]|| + (order + |C_j| +
    2) eps ||a_i|| ||W[:, C_j]|| ||S^-1[C_j, :]||.  Squared norms are
    summed per column (row), over real and imaginary parts as floats,
    then over each block by np.add.reduceat."""
    n, order = norms.shape[1], w.shape[-1]
    # row n of sq: the columns of W; row n + 1: the rows of S^-1, at
    # even places
    _column_sq(w, sq[:, n])
    np.einsum("...ij,...ij->...i", s_inv.view(float), s_inv.view(float),
              out=sq[:, n + 1, ::2])
    blk = np.sqrt(np.add.reduceat(sq, [2 * e for e in edges[:-1]], axis=-1))
    eps = np.finfo(float).eps
    slack = np.array([(order + b - a + 2) * eps
                      for a, b in itertools.pairwise(edges)])
    # (trials, left factor, source block), then one gather of the pairs
    grid = (blk[:, :n] + slack * norms[..., None] * blk[:, n, None]) \
        * blk[:, n + 1, None]
    i, j = np.array(pairs).T
    return grid[:, i, np.array(sources)[j]]


def _check_products(sq, norms, w, s_inv, edges, sources, pairs, seeds):
    """Raise when a required product a_i a_j may not vanish: its bound
    passes CONSTRUCTION_TOL max(1, ||a_i|| ||a_j||)."""
    bounds = _product_bounds(sq, norms, w, s_inv, edges, sources, pairs)
    i, j = np.array(pairs).T
    scale = np.maximum(1.0, norms[:, i] * norms[:, j])
    bad = bounds > CONSTRUCTION_TOL * scale
    if bad.any():
        k, t = np.argwhere(bad.T)[0]
        raise RootFindingError(
            f"construction bug: product a_{i[k]} a_{j[k]} has norm up to "
            f"{bounds[t, k]} (seed {seeds[t]})")


# ----------------------------------------------------------------------
# set matching
# ----------------------------------------------------------------------

def _norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes.  The squares are summed
    by BLAS dot, as np.linalg.norm sums a single matrix, so a stack
    gives the bits of one matrix at a time."""
    v = mats.reshape(*mats.shape[:-2], 1, -1)
    re, im = v.real, v.imag
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def _scaled_tol(norms: np.ndarray) -> np.ndarray:
    """Per-trial matching tolerance, scaled by the largest of each
    trial's norms, (trials, k)."""
    return SET_MATCH_TOL * np.maximum(1.0, norms.max(axis=1))


def _nonzero(vals: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """vals (trials, ...) with the entries of modulus at most the
    trial's tol dropped, i.e. set to NaN, which matching skips."""
    tol = tol.reshape(-1, *[1] * (vals.ndim - 1))
    return np.where(np.abs(vals) > tol, vals, np.nan)


def _covered(a: np.ndarray, b: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Per trial (row): every entry of a lies within tol of an entry of
    b.  NaN entries are absent from their set."""
    near = np.fmin.reduce(np.abs(a[:, :, None] - b[:, None, :]), axis=2,
                          initial=np.inf)
    return np.all((near <= tol[:, None]) | np.isnan(a), axis=1)


def _match(a: np.ndarray, b: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Per-trial set equality up to tolerance, ignoring multiplicity."""
    return _covered(a, b, tol) & _covered(b, a, tol)


# ----------------------------------------------------------------------
# the lemma checkers: each maps a _Stack to one verdict per trial.  Sums
# are solved densely from the conjugated matrices, summands and products
# on their nonzero columns from the blocks; tolerances are scaled by the
# conjugated matrices.  Three statements cover the seven lemmas:
# inclusion in the union (fl, flc), equality of nonzero spectra (ta,
# cta, lip) and the cyclic root spectral mapping (rsm, n2c)
# ----------------------------------------------------------------------

def _block_spectra(stack: _Stack, length: int = 1) -> np.ndarray:
    """Eigenvalues, (trials, n, width), of the cyclic products b_k
    b_{k+1} ... b_{k+length-1} of every trial's n blocks, indices mod n;
    length 1 gives the blocks themselves.

    A matrix M that is zero off its columns C has sigma(M) = sigma(M[C,
    C]), with 0 added when C is not all columns; a product is zero off
    the columns of its last factor.  Each product is formed thin on its
    last factor's C, right to left, and solved on rows and columns C
    plus zero columns up to the common width max|C| + 1, which keep the
    exact 0 (the solved matrix is [[M[C, C], 0], [*, 0]]).  b_k times a
    product is B times the product's rows C_k: the same terms, the
    others zero on both sides."""
    blocks = stack.blocks
    trials, order = blocks.shape[:2]
    n = len(stack.cols)
    sizes = [c.stop - c.start for c in stack.cols]
    width = min(max(sizes) + 1, order)
    nonzero = np.zeros((n, order), dtype=bool)
    thin = np.zeros((trials, n, order, width), dtype=complex)
    for j, c in enumerate(stack.cols):
        nonzero[j, c] = True
        thin[:, j, :, :sizes[j]] = blocks[:, :, c]
    for _ in range(length - 1):
        # entry k holds the product from b_k; prepend b_k to the one
        # from b_{k+1}
        thin = np.roll(thin, -1, axis=1)
        thin[:, ~nonzero] = 0
        thin = blocks[:, None] @ thin
    # per block: its nonzero columns first, ascending, then zero ones
    cols = np.argsort(~nonzero, axis=-1, kind="stable")[:, :width]
    last = np.roll(cols, 1 - length, axis=0)
    j = np.arange(n)[:, None, None]
    return eigenvalues(thin[:, j, last[:, :, None], np.arange(width)])


def _sum_and_parts(stack: _Stack):
    """Eigenvalues of sum_j a_j, (trials, order), and of all the a_j,
    (trials, n * width)."""
    return (eigenvalues(stack.sums),
            _block_spectra(stack).reshape(len(stack.sums), -1))


def _union_flc(stack: _Stack) -> np.ndarray:
    """sigma(sum a_j) inside the union of the sigma(a_j)."""
    total, union = _sum_and_parts(stack)
    return _covered(total, union, _scaled_tol(stack.norms))


def _equality_cta(stack: _Stack) -> np.ndarray:
    """Nonzero spectrum of the sum equals the nonzero union.  On a
    lead-in family (lip) a_2 is zero on its own columns, so it adds
    only 0 and the union is the nonzero spectrum of a_1."""
    tol = _scaled_tol(stack.norms)
    total, union = _sum_and_parts(stack)
    union = _nonzero(union, tol)
    # A defective zero eigenvalue of the sum perturbs as far as about
    # eps^(1/multiplicity), above the plain tolerance, while its genuine
    # eigenvalues lie at the union's and so at least its smallest
    # modulus: cut between the two, as _rsm does (fmax: an empty union
    # leaves tol)
    cut = np.fmax(tol, np.fmin.reduce(np.abs(union), axis=1) / 10.0)
    return _match(_nonzero(total, cut), union, tol)


def _rsm(stack: _Stack) -> np.ndarray:
    """Cyclic pattern: nonzero sigma(sum a_j) = {lambda: lambda^n in
    sigma(prod a_j)}, with rotation invariance and the cyclic-shift
    (Jacobson) variants of the product.  At n = 2 the family is a
    square-zero pair (n2c): nonzero lambda in sigma(a_1 + a_2) iff
    lambda^2 in sigma(a_1 a_2) iff lambda^2 in sigma(a_2 a_1).  The
    stack must carry the norm of a_1 ... a_n (cyclic_product)."""
    n, order = len(stack.cols), stack.sums.shape[-1]
    tol = _scaled_tol(stack.norms)
    tolp = _scaled_tol(stack.cyclic_norms[:, None])
    sums = eigenvalues(stack.sums)
    prods = _block_spectra(stack, n)        # prods[:, k]: shift k
    spec = _nonzero(prods, tolp)
    # Genuine nonzero eigenvalues lambda of the sum satisfy lambda^n in
    # the nonzero spectrum of the product, so |lambda| is bounded below
    # by min|spec0|^(1/n).  Defective zero eigenvalues of the sum, on
    # the other hand, perturb as far as about eps^(1/multiplicity),
    # which the plain matching tolerance does not cover; cut between
    # the two regimes.  (Python's pow, as numpy's vector pow may round
    # differently.)
    smallest = np.fmin.reduce(np.abs(spec[:, 0]), axis=1)  # NaN: empty
    cut = np.array([t if np.isnan(m) else max(t, float(m) ** (1.0 / n) / 10.0)
                    for t, m in zip(tol, smallest)])
    total = _nonzero(sums, cut)
    # The product eigenvalues that partner a kept lambda lie above
    # cut^n, which can be below tolp, so the product's spectrum is cut
    # there instead.  That cut never goes below the roundoff of forming
    # the n-fold product of order-sized matrices and solving it, about
    # n * order * eps of its norm (tolp / SET_MATCH_TOL): the zero
    # eigenvalues that blocks of unequal size force on a product come
    # out at that level, and must not survive.
    floor = tolp * (n * order * np.finfo(float).eps / SET_MATCH_TOL)
    spec = _nonzero(prods, np.maximum(floor, np.minimum(tolp, cut ** n)))
    ok = _match(total ** n, spec[:, 0], tolp)
    for k in range(1, n):
        # rotation invariance of the left-hand set under nth roots of
        # unity, and the same nonzero spectrum for every cyclic shift
        ok &= _match(total, np.exp(2j * np.pi * k / n) * total, tol)
        ok &= _match(spec[:, 0], spec[:, k], tolp)
    return ok


_CHECKERS = {
    "fl": (Pattern.ONE_WAY, _union_flc, 2),
    "flc": (Pattern.ONE_WAY, _union_flc, None),
    "ta": (Pattern.TWO_SIDED, _equality_cta, 2),
    "cta": (Pattern.TWO_SIDED, _equality_cta, None),
    "lip": (Pattern.LEAD_IN, _equality_cta, 2),
    "n2c": (Pattern.CYCLIC, _rsm, 2),
    "rsm": (Pattern.CYCLIC, _rsm, None),
}


def family_size(lemma: str, n: int) -> int:
    """The family size a named checker runs with: n, unless its pattern
    fixes the size."""
    if lemma not in _CHECKERS:
        raise InvalidDataError(
            f"unknown lemma {lemma!r}; choose from {sorted(_CHECKERS)}")
    fixed_n = _CHECKERS[lemma][2]
    return n if fixed_n is None else fixed_n


def _trial_bytes(n: int, order: int) -> int:
    """Bytes one family of n summands adds to a stack at its peak.

    Building, the peak is the loop of _summands: B, S^-1, W, the
    running sum, and a_j while the next one is formed, or with P_j =
    a_j W, or with the cyclic product before and after a_j: at most
    seven complex order x order matrices.  The draws and S, held before
    W exists, are fewer.  Checking holds B and the sum, then at most
    two thin products of _block_spectra, each n x order x (order / n +
    1), or the matching's differences, under two order x order
    matrices or one and a half thin ones.  Each phase also holds the
    squared column norms of _product_bounds and its grids of pairs,
    (n, n + 1) at most."""
    matrix = 16 * order ** 2
    thin = 16 * n * order * (-(-order // max(n, 1)) + 1)
    small = 16 * (n + 2) * order + 32 * n * (n + 1)
    return max(7 * matrix, 2 * matrix + 2 * max(thin, matrix)) + small


def _stack_trials(n: int, order: int) -> int:
    """Families per stack: as many as fit in STACK_BYTES, but at least
    one (shapes are checked when the first stack is built)."""
    return max(1, STACK_BYTES // max(1, _trial_bytes(n, order)))


def _trial_seed(master_seed: int, t: int) -> int:
    return int(np.random.default_rng([master_seed, t]).integers(2 ** 31))


def run_checker(lemma: str, n: int, order: int, trials: int,
                master_seed: int):
    """Run a named checker over seeded trials, a stack of families at
    a time; returns (all_pass, failing_seeds), seeds in trial order.
    Per-trial seeds derive from the master seed so any failure is
    reproducible in isolation, with make_family."""
    n = family_size(lemma, n)
    pattern, checker, _ = _CHECKERS[lemma]
    size = _stack_trials(n, order)
    failing = []
    for start in range(0, trials, size):
        seeds = [_trial_seed(master_seed, t)
                 for t in range(start, min(start + size, trials))]
        verdicts = checker(_make_stack(pattern, n, order, seeds,
                                       cyclic_product=checker is _rsm))
        failing += [seed for seed, ok in zip(seeds, verdicts) if not ok]
    return (not failing), failing


# ----------------------------------------------------------------------
# H^2 monomial-basis truncation (diagnostic only)
# ----------------------------------------------------------------------

def truncation_from_coeffs(num_coeffs, den_coeffs, order: int) -> np.ndarray:
    """Column j holds the first `order` Taylor coefficients of phi^j,
    for phi = num/den given by ascending coefficient arrays (degenerate
    symbols, e.g. constants, that the symbol type rejects included).

    The matrix takes O(log2 order) array calls.  1/den comes from Newton
    doubling on power series: if g = 1/den mod z^m, then den g = 1 +
    z^m e and g (2 - den g) = g - z^m g e is 1/den mod z^2m, two
    convolutions per step.  phi = num g to `order` terms is column 1.
    Once columns 0..m are known, the lower-triangular Toeplitz matrix of
    column m, which multiplies a series by phi^m, maps columns 1..m to
    columns m+1..2m in one product.  num and den are first divided by
    a power of two near |den[0]|, which is exact, so scaling both by a
    power of two leaves the matrix unchanged, bit for bit.  Its entries
    agree with term-by-term series division and repeated convolution to
    a few units of roundoff of each column's largest entry, not bit for
    bit.

    A matrix with an entry beyond the double range (phi's coefficients
    grow like the inverse of den's smallest root) raises
    RootFindingError naming its first non-finite column.

    Heuristic diagnostic: no convergence of its eigenvalues to the
    operator spectrum is claimed, except in the exactly solvable
    monomial case.
    """
    if not (1 <= order <= MAX_ORDER):
        raise InvalidDataError(f"order must be in [1, {MAX_ORDER}]")
    num_coeffs = np.asarray(num_coeffs, dtype=complex)
    den_coeffs = np.asarray(den_coeffs, dtype=complex)
    if not (np.isfinite(num_coeffs).all() and np.isfinite(den_coeffs).all()):
        raise InvalidDataError("coefficients must be finite")
    num = np.zeros(order, dtype=complex)
    den = np.zeros(order, dtype=complex)
    num[: min(order, len(num_coeffs))] = num_coeffs[:order]
    den[: min(order, len(den_coeffs))] = den_coeffs[:order]
    if abs(den[0]) <= 1e-14 * np.abs(den_coeffs).max(initial=0.0):
        raise InvalidDataError("denominator constant term is ~0")
    shift = np.frexp(abs(den[0]))[1]
    num, den = (np.ldexp(c.view(float), -shift).view(complex)
                for c in (num, den))
    mat = np.zeros((order, order), dtype=complex)
    mat[0, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.array([1.0 / den[0]])
        m = 1
        while m < order:
            e = np.convolve(den[: 2 * m], g)[m: 2 * m]
            g = np.concatenate((g, -np.convolve(g, e)[:m]))
            m *= 2
        if order > 1:
            mat[:, 1] = np.convolve(num, g[:order])[:order]
        # column m, zero-padded above: its windows, reversed, are the
        # rows of the Toeplitz matrix, a view that follows the buffer
        padded = np.zeros(2 * order - 1, dtype=complex)
        toeplitz = sliding_window_view(padded, order)[:, ::-1]
        m = 1
        while m + 1 < order:
            k = min(m, order - 1 - m)
            padded[order - 1:] = mat[:, m]
            mat[:, m + 1: m + 1 + k] = np.matmul(toeplitz, mat[:, 1: 1 + k])
            m *= 2
    finite = np.isfinite(mat).all(axis=0)
    if not finite.all():
        j = int(np.argmin(finite))
        raise RootFindingError(f"truncation overflows at order {order}: "
                               f"column {j} (phi^{j}) is not finite")
    return mat
