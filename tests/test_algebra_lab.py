import cmath
import json
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

import compspec.algebra_lab as al
from compspec import RationalSymbol
from compspec.algebra_lab import (Pattern, eigenvalues, make_family,
                                  run_checker, truncation_from_coeffs,
                                  STACK_BYTES, _block_spectra,
                                  _equality_cta, _make_stack, _match,
                                  _nonzero, _norms, _required_zero_pairs,
                                  _rsm, _scaled_tol, _similarity_candidate,
                                  _stack_trials, _supports, _trial_seed,
                                  _union_flc, _well_conditioned)
from compspec.errors import InvalidDataError, RootFindingError
from conftest import count_calls, perfbench_gen

RNG = np.random.default_rng(99)

# CYCLIC at n = 2 is the square-zero (nilpotent) pair, a_1^2 = a_2^2 =
# 0, that the n2c lemma is about: test ids keep that name for it
NILPOTENT_PAIR = Pattern.CYCLIC


def _stack(pattern, n, order, seeds, checker=_rsm):
    """_make_stack as run_checker calls it for checker, and the
    summands it formed, (trials, n, order, order)."""
    kept = []
    stack = _make_stack(pattern, n, order, seeds,
                        cyclic_product=checker is _rsm, keep=kept)
    return stack, np.stack(kept, axis=1)


def _cyclic_product(mats, k):
    """a_k a_{k+1} ... a_{k+n-1} of every trial, indices mod n."""
    n = mats.shape[1]
    prod = mats[:, k]
    for j in range(k + 1, k + n):
        prod = prod @ mats[:, j % n]
    return prod


def _same_set(a, b, tol):
    """_match on a single trial: a and b are 1-D sets."""
    return bool(_match(np.array([a], dtype=complex),
                       np.array([b], dtype=complex), np.array([tol]))[0])


# -- eigenvalue oracle -------------------------------------------------

def test_eigenvalues_against_charpoly_roots():
    for _ in range(5):
        m = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
        vals = eigenvalues(m)
        char = np.poly(m)  # leading-first coefficients
        roots = P.polyroots(char[::-1])
        assert _same_set(vals, roots, 1e-7 * np.linalg.norm(m))


def test_eigenvalues_of_a_stack_are_those_of_each_matrix():
    stack = RNG.normal(size=(3, 2, 7, 7)) + 1j * RNG.normal(size=(3, 2, 7, 7))
    vals = eigenvalues(stack)
    assert vals.shape == (3, 2, 7)
    for t in range(3):
        for j in range(2):
            assert np.array_equal(vals[t, j], eigenvalues(stack[t, j]))


def test_eigenvalues_validation():
    with pytest.raises(InvalidDataError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(InvalidDataError):
        eigenvalues(np.zeros(4))
    with pytest.raises(InvalidDataError):
        eigenvalues(np.zeros((200, 200)))
    with pytest.raises(InvalidDataError, match="square"):
        eigenvalues(np.zeros((4, 2, 3)))
    with pytest.raises(InvalidDataError, match="order exceeds cap 128"):
        eigenvalues(np.zeros((2, 129, 129)))


# -- family construction -----------------------------------------------

@pytest.mark.parametrize("pattern,n", [
    (Pattern.ONE_WAY, 2), (Pattern.ONE_WAY, 4),
    (Pattern.TWO_SIDED, 2), (Pattern.TWO_SIDED, 5),
    pytest.param(NILPOTENT_PAIR, 2, id="nilpotent_pair-2"),
    (Pattern.LEAD_IN, 2), (Pattern.CYCLIC, 3), (Pattern.CYCLIC, 5),
])
def test_required_products_vanish(pattern, n):
    fam = make_family(pattern, n, 17, seed=5)
    assert fam.shape == (n, 17, 17)
    for i, j in _required_zero_pairs(pattern, n):
        a, b = fam[i], fam[j]
        assert np.linalg.norm(a @ b) < 1e-9 * max(
            1.0, np.linalg.norm(a) * np.linalg.norm(b))


def test_nonzero_required_product_is_a_construction_bug(monkeypatch):
    # two-sided supports map each block to itself, so a_0 a_0 != 0,
    # which the cyclic pair requires to vanish
    two_sided = _supports(Pattern.TWO_SIDED, 2)
    monkeypatch.setattr(al, "_supports", lambda pattern, n: two_sided)
    with pytest.raises(RootFindingError,
                       match=r"construction bug: product a_0 a_0 .*seed 7"):
        _make_stack(NILPOTENT_PAIR, 2, 8, [7])


def test_shared_source_block_is_a_construction_bug(monkeypatch):
    # both summands read block 0 and write block 1, so every product
    # vanishes, but a_0 is no longer W = S (b_0 + b_1) on its columns
    monkeypatch.setattr(al, "_supports",
                        lambda pattern, n: ([(0, [1]), (0, [1])], 2))
    with pytest.raises(RootFindingError,
                       match="construction bug: summands share a source"):
        _make_stack(Pattern.ONE_WAY, 2, 8, [0])


def test_non_required_products_nonzero():
    fam = make_family(Pattern.ONE_WAY, 3, 12, seed=5)
    # a_2 a_1 is allowed (and generically) nonzero
    assert np.linalg.norm(fam[2] @ fam[1]) > 1e-3


def test_family_is_seeded():
    a = make_family(Pattern.CYCLIC, 3, 9, seed=42)
    b = make_family(Pattern.CYCLIC, 3, 9, seed=42)
    assert np.array_equal(a, b)


def test_family_validation():
    with pytest.raises(InvalidDataError):
        make_family(Pattern.LEAD_IN, 3, 8, seed=0)
    with pytest.raises(InvalidDataError):
        make_family(Pattern.CYCLIC, 5, 3, seed=0)  # order < blocks
    with pytest.raises(InvalidDataError):
        make_family(Pattern.TWO_SIDED, 1, 8, seed=0)


def test_order_cap_is_checked_before_building():
    # one order-129 matrix alone would take 266 kB
    tracemalloc.start()
    try:
        with pytest.raises(InvalidDataError, match="order exceeds cap 128"):
            run_checker("ta", 2, 129, 8, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# -- stacked trials ----------------------------------------------------

def _loop_family(pattern, n, order, seed):
    """Reference: the per-matrix construction, one family at a time, as
    the conjugated family and its blocks."""
    rng = np.random.default_rng(seed)
    supports, nblocks = _supports(pattern, n)
    blocks = np.array_split(np.arange(order), nblocks)
    mats = []
    for src, targets in supports:
        m = np.zeros((order, order), dtype=complex)
        rows = np.concatenate([blocks[t] for t in targets])
        cols = blocks[src]
        m[np.ix_(rows, cols)] = (rng.normal(size=(rows.size, cols.size))
                                 + 1j * rng.normal(size=(rows.size, cols.size)))
        mats.append(m)
    for _ in range(50):
        s = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
        s /= np.sqrt(2.0 * order)
        s += np.eye(order)
        if np.linalg.cond(s) < 100.0:
            break
    s_inv = np.linalg.inv(s)
    return np.stack([s @ m @ s_inv for m in mats]), np.stack(mats)


SHAPES = [(Pattern.ONE_WAY, 4, 24), (Pattern.TWO_SIDED, 5, 24),
          pytest.param(NILPOTENT_PAIR, 2, 16, id="nilpotent_pair-2-16"),
          (Pattern.LEAD_IN, 2, 17),
          (Pattern.CYCLIC, 5, 23)]


# stacks of 1, 8 and 9 families, one full stack of run_checker and one
# family more, and 50 families
@pytest.mark.parametrize("trials", [1, 8, 9, "full", "full+1", 50])
@pytest.mark.parametrize("pattern,n,order", SHAPES)
def test_stacked_families_are_the_single_families(pattern, n, order, trials):
    if isinstance(trials, str):
        trials = _stack_trials(n, order) + (trials == "full+1")
    seeds = [_trial_seed(0, t) for t in range(trials)]
    stack, mats = _stack(pattern, n, order, seeds)
    assert mats.shape == (trials, n, order, order)
    assert stack.sums.shape == stack.blocks.shape == (trials, order, order)
    for t, seed in enumerate(seeds):
        alone = make_family(pattern, n, order, seed)
        assert np.array_equal(mats[t], alone)
        ref, ref_blocks = _loop_family(pattern, n, order, seed)
        assert np.array_equal(alone, ref)
        # B is its blocks' sum, and each block is B on its columns
        assert np.array_equal(stack.blocks[t], ref_blocks.sum(axis=0))
        for j, cols in enumerate(stack.cols):
            block = np.zeros_like(stack.blocks[t])
            block[:, cols] = stack.blocks[t, :, cols]
            assert np.array_equal(block, ref_blocks[j])
        # the sum and the norms are those of the family alone
        assert np.array_equal(stack.sums[t], alone.sum(axis=0))
        assert np.array_equal(stack.norms[t],
                              [np.linalg.norm(a) for a in alone])
        assert stack.cyclic_norms[t] == np.linalg.norm(
            _cyclic_product(alone[None], 0)[0])


@pytest.mark.parametrize("pattern,n,order", SHAPES)
def test_product_bounds_cover_the_required_products(pattern, n, order,
                                                    monkeypatch):
    # each bound is at least the product formed directly, and passes
    recorded = []
    bounds = al._product_bounds
    monkeypatch.setattr(al, "_product_bounds",
                        lambda *args: recorded.append(bounds(*args))
                        or recorded[-1])
    seeds = [_trial_seed(0, t) for t in range(_stack_trials(n, order))]
    _, mats = _stack(pattern, n, order, seeds)
    [bound] = recorded
    pairs = _required_zero_pairs(pattern, n)
    assert bound.shape == (len(seeds), len(pairs))
    for k, (i, j) in enumerate(pairs):
        for t in range(len(seeds)):
            a, b = mats[t, i], mats[t, j]
            scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
            assert (np.linalg.norm(a @ b) <= bound[t, k]
                    <= al.CONSTRUCTION_TOL * scale)


@pytest.mark.parametrize("order", [16, 24])
def test_similarity_gate_decides_as_the_condition_number(order, monkeypatch):
    # the Frobenius bound proves most candidates without an SVD; the
    # rest fall back to one, and every decision is cond_2(s) < 100
    svds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda s: svds.append(len(s)) or cond(s))
    rng = np.random.default_rng(order)
    s = _similarity_candidate(rng.normal(size=(300, 2, order, order)))
    ok = _well_conditioned(s, np.linalg.inv(s))
    assert np.array_equal(ok, cond(s) < 100.0)
    assert 0 < sum(svds) < len(s)
    assert 0 < ok.sum() < len(s)


def test_redrawn_similarity_keeps_the_stream(monkeypatch):
    # seeds 27 and 37 reject their first similarity candidate
    redraws = []
    real = al._redraw_similarity

    def counted(order, rng):
        redraws.append(order)
        return real(order, rng)

    monkeypatch.setattr(al, "_redraw_similarity", counted)
    seeds = list(range(24, 40))
    stack, mats = _stack(Pattern.TWO_SIDED, 5, 24, seeds)
    assert redraws == [24, 24]
    for t, seed in enumerate(seeds):
        ref, ref_blocks = _loop_family(Pattern.TWO_SIDED, 5, 24, seed)
        assert np.array_equal(mats[t], ref)
        assert np.array_equal(stack.blocks[t], ref_blocks.sum(axis=0))


@pytest.mark.parametrize("lemma,check,pattern,n,order", [
    pytest.param("flc", _union_flc, Pattern.ONE_WAY, 3, 12,
                 id="flc-check_union_FLC-one_way-3-12"),
    pytest.param("n2c", _rsm, NILPOTENT_PAIR, 2, 10,
                 id="n2c-check_n2c-nilpotent_pair-2-10"),
    pytest.param("rsm", _rsm, Pattern.CYCLIC, 3, 11,
                 id="rsm-check_RSM-cyclic-3-11"),
])
def test_run_checker_fails_the_seeds_that_fail_alone(lemma, check, pattern,
                                                     n, order, monkeypatch):
    # a tolerance this tight fails some trials and passes others; two
    # full stacks and one trial more
    monkeypatch.setattr(al, "SET_MATCH_TOL", 1e-15)
    trials = 2 * _stack_trials(n, order) + 1
    ok, failing = run_checker(lemma, n, order, trials, master_seed=3)
    seeds = [_trial_seed(3, t) for t in range(trials)]
    alone = [s for s in seeds
             if not check(_stack(pattern, n, order, [s], check)[0])[0]]
    assert failing == alone
    assert 0 < len(failing) < trials and not ok


def test_large_families_are_stacked_one_at_a_time(monkeypatch):
    # one family of order 128 holds seven 262 kB matrices at its peak
    sizes = []

    def record(stack):
        sizes.append(len(stack.sums))
        return [True] * len(stack.sums)

    monkeypatch.setitem(al._CHECKERS, "flc", (Pattern.ONE_WAY, record, None))
    assert run_checker("flc", 16, 128, 3, master_seed=0) == (True, [])
    assert sizes == [1, 1, 1]
    assert _stack_trials(5, 24) == 17
    # at order 64, 0.49 MB a family
    assert _stack_trials(16, 64) == 2


def test_stacked_run_stays_small():
    tracemalloc.start()
    try:
        run_checker("cta", 5, 24, 50, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# -- the eigen-solves ----------------------------------------------------

@pytest.mark.parametrize("pattern,n,order", SHAPES)
def test_block_spectra_are_the_conjugated_spectra(pattern, n, order):
    # the checkers solve summands and products on the blocks' nonzero
    # columns; the dense solve of every conjugated one is the oracle
    # they must agree with
    stack, mats = _stack(pattern, n, order,
                         [_trial_seed(4, t) for t in range(3)])
    products = [(mats, 1)]                    # the summands
    if pattern is Pattern.CYCLIC:             # every cyclic product
        products.append((np.stack([_cyclic_product(mats, k)
                                   for k in range(n)], axis=1), n))
    width = -(-order // _supports(pattern, n)[1]) + 1
    for dense, length in products:
        tol = _scaled_tol(_norms(dense))
        dense_vals = eigenvalues(dense)
        reduced = _block_spectra(stack, length)
        assert reduced.shape == (3, n, width)
        for j in range(n):
            assert _match(dense_vals[:, j], reduced[:, j], tol).all()


# the benchmark's lemma suites (perfbench/run.py LEMMA_SUITES)
LEMMA_SUITES = [("fl", 2, 16), ("ta", 2, 16), ("cta", 5, 24),
                ("lip", 2, 16), ("n2c", 2, 16), ("rsm", 5, 24),
                ("flc", 4, 24)]


# families per stack of each suite, so stacks per 50-trial request
SUITE_STACKS = {"fl": (39, 2), "ta": (39, 2), "cta": (17, 3), "lip": (39, 2),
                "n2c": (39, 2), "rsm": (17, 3), "flc": (17, 3)}


def test_lemma_suite_stacks_are_sized_by_memory():
    for lemma, n, order in LEMMA_SUITES:
        size = _stack_trials(al.family_size(lemma, n), order)
        assert (size, -(-50 // size)) == SUITE_STACKS[lemma], lemma


def _peak_bytes(run):
    """The traced peak of run(), less what was held before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# the suites, the two SHAPES that are not suites, each with a checker
# for its pattern, and the largest families
@pytest.mark.parametrize("lemma,n,order", LEMMA_SUITES + [
    ("lip", 2, 17), ("rsm", 5, 23), ("flc", 16, 128)])
def test_a_full_stack_fits_its_budget(lemma, n, order):
    # everything that building and checking one full stack allocates
    # at once, or the stack is a single family
    n = al.family_size(lemma, n)
    pattern, checker, _ = al._CHECKERS[lemma]
    size = _stack_trials(n, order)
    seeds = [_trial_seed(0, t) for t in range(size)]
    peak = _peak_bytes(lambda: checker(_make_stack(
        pattern, n, order, seeds, cyclic_product=checker is _rsm)))
    assert peak <= STACK_BYTES or size == 1
    assert size > 1 or order == 128


def test_lemma_suites_solve_one_dense_sum_per_trial(monkeypatch):
    stacks, solves = [], []
    make_stack, eigvals = al._make_stack, np.linalg.eigvals

    def recorded_stack(pattern, n, order, seeds, **options):
        kept = []
        stack = make_stack(pattern, n, order, seeds, **options, keep=kept)
        stacks.append((pattern, n, stack, np.stack(kept, axis=1)))
        return stack

    def recorded_eigvals(m):
        solves.append(m)
        return eigvals(m)

    monkeypatch.setattr(al, "_make_stack", recorded_stack)
    monkeypatch.setattr(np.linalg, "eigvals", recorded_eigvals)
    for lemma, n, order in LEMMA_SUITES:
        for seed in range(4):
            assert run_checker(lemma, n, order, 50, seed) == (True, [])
    # per stack (SUITE_STACKS, 17 per master seed): one dense solve of
    # the sums, then one reduced solve of the summands or products
    assert len(stacks) == 68 and len(solves) == 136
    for (pattern, n, _, mats), dense, reduced in zip(
            stacks, solves[::2], solves[1::2]):
        assert np.array_equal(dense, mats.sum(axis=1))
        largest = -(-mats.shape[-1] // _supports(pattern, n)[1])
        assert reduced.shape[0] == len(mats)
        assert reduced.shape[-1] == reduced.shape[-2] <= largest + 1


# -- set matching ------------------------------------------------------

def test_spectra_match_basics():
    assert _same_set([1.0, 2.0], [2.0, 1.0], 1e-9)
    # multiplicity is ignored
    assert _same_set([1.0, 1.0, 2.0], [1.0, 2.0], 1e-9)
    assert not _same_set([1.0], [1.1], 1e-3)
    assert _same_set([], [], 1e-9)
    assert not _same_set([1.0], [], 1e-9)
    # NaN entries are absent from their set
    assert _same_set([1.0, np.nan], [1.0], 1e-9)
    # one verdict per trial, each at its own tolerance
    assert list(_match(np.array([[1.0], [1.0]]), np.array([[1.1], [1.1]]),
                       np.array([0.2, 1e-3]))) == [True, False]


# -- checkers ----------------------------------------------------------

# ids name each check after the lemma it verifies
@pytest.mark.parametrize("checker,pattern,n", [
    pytest.param(_union_flc, Pattern.ONE_WAY, 2,
                 id="check_inclusion_FL-one_way-2"),
    pytest.param(_union_flc, Pattern.ONE_WAY, 4,
                 id="check_union_FLC-one_way-4"),
    pytest.param(_equality_cta, Pattern.TWO_SIDED, 2,
                 id="check_equality_TA-two_sided-2"),
    pytest.param(_equality_cta, Pattern.TWO_SIDED, 5,
                 id="check_equality_CTA-two_sided-5"),
    pytest.param(_equality_cta, Pattern.LEAD_IN, 2, id="check_LIP-lead_in-2"),
    pytest.param(_rsm, NILPOTENT_PAIR, 2, id="check_n2c-nilpotent_pair-2"),
    pytest.param(_rsm, Pattern.CYCLIC, 3, id="check_RSM-cyclic-3"),
    pytest.param(_rsm, Pattern.CYCLIC, 5, id="check_RSM-cyclic-5"),
])
def test_checkers_pass(checker, pattern, n):
    stack, _ = _stack(pattern, n, 18, [1, 2, 3], checker)
    assert list(checker(stack)) == [True] * 3


# trial seeds of run_checker("rsm", n, order, 50, master) for masters 8;
# 0, 2, 3, 3, 4, 14; 10; 3; and 0
@pytest.mark.parametrize("n,order,seed", [
    (6, 60, 731646935), (8, 40, 685236309), (8, 40, 143843178),
    (8, 40, 1320505903), (8, 40, 1695410572), (8, 40, 1176812115),
    (8, 40, 959234412), (7, 50, 1398238234), (10, 41, 677071331),
    (12, 50, 6228730),
])
def test_rsm_keeps_small_product_eigenvalues(n, order, seed):
    # the product has a genuine eigenvalue below tolp whose nth root in
    # the sum lies above the cut: it must be kept to partner that root
    stack, mats = _stack(Pattern.CYCLIC, n, order, [seed])
    tolp = _scaled_tol(_norms(_cyclic_product(mats, 0)[:, None]))[0]
    prod = np.abs(_block_spectra(stack, n)[0, 0])
    assert ((prod > tolp / 100) & (prod < tolp)).any()
    assert _rsm(stack)[0]


@pytest.mark.parametrize("n,order,seed", [(10, 41, 1141983266),
                                          (12, 50, 1826701615)])
def test_rsm_drops_the_roundoff_zeros_of_products(n, order, seed):
    # blocks of unequal size force zero eigenvalues on every cyclic
    # product, computed at roundoff; here cut^n lies below them, so
    # only the roundoff floor keeps them from wanting a partner
    assert _rsm(_stack(Pattern.CYCLIC, n, order, [seed])[0])[0]


@pytest.mark.parametrize("seed", [1115383073, 382432507])
def test_equality_cuts_the_split_zeros_of_the_sum(seed):
    # the lead-in sum's double zero splits to about 6e-6, above the
    # matching tolerance, while its genuine eigenvalues lie at the
    # union's, 2e-3 and more: the cut must drop the split zero
    stack, _ = _stack(Pattern.LEAD_IN, 2, 16, [seed], _equality_cta)
    total = np.abs(eigenvalues(stack.sums)[0])
    assert ((total > _scaled_tol(stack.norms)[0]) & (total < 1e-4)).any()
    assert _equality_cta(stack)[0]


def test_rsm_order_not_divisible_by_n():
    # block sizes differ, so the sum has defective zero eigenvalues;
    # the checker must still separate them from the genuine spectrum
    for order in (11, 17, 23):
        assert _rsm(_stack(Pattern.CYCLIC, 5, order, [3])[0])[0]


def _long_chain_cyclic_family():
    """n = 8 with blocks of sizes 1, 4, ..., 4: a_j maps block j + 1
    onto block j (indices mod 8).  The product a_0 ... a_7 has rank 1,
    scaled to the single nonzero eigenvalue mu with |mu| = 1, so the
    sum has 8 genuine eigenvalues of modulus 1; its 21 zero eigenvalues
    form three Jordan chains of length 7, which roundoff spreads to
    about eps^(1/7) ~ 6e-3.  Returns the conjugated family and its
    one-trial stack."""
    rng = np.random.default_rng(1)
    sizes = [1] + [4] * 7
    starts = np.cumsum([0] + sizes)
    order = starts[-1]
    blocks = [slice(starts[j], starts[j + 1]) for j in range(8)]

    def draw(rows, cols):
        z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        return z / np.sqrt(2 * cols)

    mats = []
    for j in range(8):
        a = np.zeros((order, order), dtype=complex)
        src, dst = (j + 1) % 8, j
        a[blocks[dst], blocks[src]] = draw(sizes[dst], sizes[src])
        mats.append(a)
    mu = np.trace(np.linalg.multi_dot(mats))
    mats[0] /= abs(mu)
    s = np.eye(order) + draw(order, order)
    fam = np.stack([s @ a @ np.linalg.inv(s) for a in mats])
    stack = al._Stack(fam.sum(axis=0)[None], _norms(fam)[None],
                      sum(mats)[None], [blocks[(j + 1) % 8] for j in range(8)],
                      _norms(_cyclic_product(fam[None], 0)))
    return fam, stack


def test_rsm_cut_separates_long_jordan_chains():
    fam, stack = _long_chain_cyclic_family()
    mods = np.sort(np.abs(eigenvalues(fam.sum(axis=0))))
    # the chains' spread lies between the cut's placement at 1/10 of
    # the genuine modulus and a cut 100 times lower
    assert 1e-3 < mods[-9] < 0.03 and abs(mods[-8] - 1.0) < 1e-6
    assert _rsm(stack)[0]


# each family breaks the products its checker's lemma needs to vanish
@pytest.mark.parametrize("checker,pattern,n", [
    pytest.param(_equality_cta, NILPOTENT_PAIR, 2, id="cta-nilpotent_pair"),
    pytest.param(_rsm, Pattern.ONE_WAY, 2, id="n2c-one_way"),
    pytest.param(_rsm, Pattern.LEAD_IN, 2, id="n2c-lead_in"),
    pytest.param(_rsm, Pattern.TWO_SIDED, 5, id="rsm-two_sided"),
    pytest.param(_union_flc, Pattern.CYCLIC, 4, id="flc-cyclic"),
])
def test_checkers_reject_broken_patterns(checker, pattern, n):
    seeds = [_trial_seed(0, t) for t in range(16)]
    assert not np.any(checker(_stack(pattern, n, 18, seeds, checker)[0]))


# reference checkers for lip and n2c, each written for its own pattern:
# the rows of _CHECKERS that run _equality_cta and _rsm for these two
# lemmas must decide as they do

def _lip(stack, mats):
    """a_1 a_2 = 0 and a_2^2 = 0: the nilpotent lead-in summand drops
    out of the nonzero spectrum."""
    tol = _scaled_tol(_norms(mats))
    total = _nonzero(eigenvalues(mats[:, 0] + mats[:, 1]), tol)
    return _match(total, _nonzero(_block_spectra(stack)[:, 0], tol), tol)


def _n2c(stack, mats):
    """For a square-zero pair, nonzero lambda in sigma(a_1 + a_2) iff
    lambda^2 in sigma(a_1 a_2) iff lambda^2 in sigma(a_2 a_1)."""
    a1, a2 = mats[:, 0], mats[:, 1]
    tol = _scaled_tol(_norms(mats))
    sq = _nonzero(eigenvalues(a1 + a2), tol) ** 2
    prods = _nonzero(_block_spectra(stack, 2), tol)
    s12, s21 = prods[:, 0], prods[:, 1]
    tol2 = _scaled_tol(_norms((a1 @ a2)[:, None]))
    return (_match(sq, s12, tol2) & _match(sq, s21, tol2)
            & _match(s12, s21, tol2))


@pytest.mark.parametrize("lemma,reference,pattern,passes", [
    ("lip", _lip, Pattern.LEAD_IN, True),
    ("n2c", _n2c, NILPOTENT_PAIR, True),
    # families that break the products each lemma needs to vanish
    ("lip", _lip, NILPOTENT_PAIR, False),
    ("n2c", _n2c, Pattern.ONE_WAY, False),
    ("n2c", _n2c, Pattern.LEAD_IN, False),
])
def test_lip_and_n2c_rows_decide_as_the_references(lemma, reference,
                                                   pattern, passes):
    # 200 seeded trials over orders 3-27; n2c also with its summands
    # swapped, which is how the old nilpotent-pair pattern ordered them
    _, checker, n = al._CHECKERS[lemma]
    for order in range(3, 28):
        stack, mats = _stack(pattern, n, order,
                             [_trial_seed(order, t) for t in range(8)],
                             checker)
        families = [(stack, mats)]
        if lemma == "n2c":
            swapped = mats[:, ::-1]
            families.append((stack._replace(
                norms=stack.norms[:, ::-1], cols=stack.cols[::-1],
                cyclic_norms=_norms(_cyclic_product(swapped, 0))), swapped))
        for stack, mats in families:
            verdicts = checker(stack)
            assert np.array_equal(verdicts, reference(stack, mats))
            assert list(verdicts) == [passes] * len(mats)


def test_run_checker():
    ok, failing = run_checker("rsm", 4, 16, 10, master_seed=7)
    assert ok and failing == []
    with pytest.raises(InvalidDataError):
        run_checker("nope", 2, 8, 1, 0)
    for n, order in ((1, 8), (0, 8), (3, 0)):
        with pytest.raises(InvalidDataError):
            run_checker("cta", n, order, 1, 0)


def test_run_checker_reports_failing_seed(monkeypatch):
    calls = []      # every family's sum the checker saw, in trial order
    size = _stack_trials(2, 8)
    bad = size + size // 2   # mid second stack

    def flaky(stack):
        first = len(calls)
        calls.extend(stack.sums)
        return [first + t != bad for t in range(len(stack.sums))]

    monkeypatch.setitem(al._CHECKERS, "ta", (Pattern.TWO_SIDED, flaky, 2))
    ok, failing = run_checker("ta", 2, 8, 2 * size + 1, master_seed=1)
    assert not ok
    assert len(calls) == 2 * size + 1 and len(failing) == 1
    # the reported seed rebuilds the family that failed
    alone = make_family(Pattern.TWO_SIDED, 2, 8, failing[0])
    assert np.array_equal(alone.sum(axis=0), calls[bad])


# -- truncation --------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"
TRUNCATION_ORDERS = (1, 2, 3, 4, 5, 16, 64, 128)
SUBNORMAL_FLOOR = 2.0 ** -760


def _truncation_reference(num_coeffs, den_coeffs, order):
    """The matrix by the definition: num/den by term-by-term series
    division, then each power of phi by one more convolution."""
    num = np.zeros(order, dtype=complex)
    den = np.zeros(order, dtype=complex)
    num[: min(order, len(num_coeffs))] = num_coeffs[:order]
    den[: min(order, len(den_coeffs))] = den_coeffs[:order]
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


def _assert_matches_reference(num, den, order):
    # each entry within 64 order eps of its column's largest entry: the
    # two ways of forming a product of series sum the same terms in
    # other orders, so they differ by a few roundoffs per term.  A term
    # that passes through the subnormal range keeps only the absolute
    # accuracy 2^-1074, which later factors, at most 2^254 for the
    # drawn symbols, can raise to 2^-820: so the scale is at least
    # SUBNORMAL_FLOOR
    got = truncation_from_coeffs(num, den, order)
    want = _truncation_reference(np.asarray(num, dtype=complex),
                                 np.asarray(den, dtype=complex), order)
    tol = 64 * order * np.finfo(float).eps * np.maximum(
        np.abs(want).max(axis=0), SUBNORMAL_FLOOR)
    assert np.all(np.abs(got - want) <= tol), (num, den, order)


def _rational_documents():
    """The rational goldens, and each gen.py family at degree <= 16,
    seed 1, as (name, num, den)."""
    docs = [(path.name.split(".")[0], json.loads(path.read_text()))
            for path in sorted(GOLDEN.glob("*.symbol.json"))]
    gen = perfbench_gen()
    docs += [(f"{family}{k}", doc)
             for family, k, doc, _ in gen.batch(
                 [(family, k) for family in ("dilation", "hyperbolic",
                                             "inner", "pole", "bump")
                  for k in (1, 2, 3, 5, 8, 16)], 1)]
    return [(name, [complex(*c) for c in doc["num"]],
             [complex(*c) for c in doc["den"]])
            for name, doc in docs if doc["kind"] == "rational"]


@pytest.mark.parametrize("name,num,den", _rational_documents(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_truncation_matches_the_reference(name, num, den):
    for order in TRUNCATION_ORDERS:
        _assert_matches_reference(num, den, order)


_trunc_coef = st.builds(lambda r, t: r * cmath.exp(1j * t),
                        st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi))


@st.composite
def _truncation_symbols(draw):
    """Dense num and den of degree <= 16, or sparse ones with 1-3
    nonzero terms at exponents up to 16.  den has no zero in the disk
    of radius 1/2, and |phi| <= 2 there, so the coefficients of phi^j
    grow at most like 2^j 2^k and every matrix up to order 128 is
    finite."""
    def poly():
        if draw(st.booleans()):
            return draw(st.lists(_trunc_coef, min_size=1, max_size=17))
        c = [0j] * 17
        for k in draw(st.lists(st.integers(0, 16), min_size=1,
                               max_size=3)):
            c[k] = draw(_trunc_coef)
        return c

    def half_disk_sum(c):
        return sum(abs(v) * 0.5 ** k for k, v in enumerate(c))

    num, den = poly(), poly()
    tail = half_disk_sum(den[1:]) / 2.0
    floor = draw(st.floats(0.1, 1.0)) * tail + draw(st.floats(1e-3, 1.0))
    den[0] = tail + floor     # so |den| >= floor on |z| <= 1/2
    scale = draw(st.floats(0.1, 2.0)) * floor / max(half_disk_sum(num),
                                                    1e-300)
    return [v * scale for v in num], den


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_truncation_symbols())
def test_truncation_matches_the_reference_on_drawn_symbols(symbol):
    for order in TRUNCATION_ORDERS:
        _assert_matches_reference(*symbol, order)


@pytest.mark.parametrize("num,den", [
    ((-2, -1, 2), (-3, 0, 2)),      # lollipop
    ((0, 0.5), (1,)),               # z/2
    ((0.3,), (1.0,)),               # a constant
])
def test_truncation_work_grows_with_log_order(num, den, monkeypatch):
    # ceil(log2 order) Newton steps of two convolutions each, one more
    # for num/den, and ceil(log2 (order - 1)) Toeplitz products, whatever
    # the symbol
    for order in (2, 3, 4, 5, 16, 17, 64, 65, 128):
        calls = count_calls(monkeypatch, (np, "convolve"), (np, "matmul"))
        truncation_from_coeffs(num, den, order)
        assert calls == {"convolve": 2 * (order - 1).bit_length() + 1,
                         "matmul": (order - 2).bit_length()}, order
        monkeypatch.undo()


@pytest.mark.parametrize("num,den", [
    ((-2, -1, 2), (-3, 0, 2)),      # lollipop
    # 1/den = sum 1e-3k z^k: times 2^-540 it would underflow from k = 48
    ((0, 0.5), (1, -1e-3)),
])
def test_truncation_is_exact_under_power_of_two_scaling(num, den):
    # (2^k num) / (2^k den) is the same map, as long as no coefficient
    # leaves the normal range: the same matrix, bit for bit
    num, den = np.array(num, dtype=float), np.array(den, dtype=float)
    want = truncation_from_coeffs(num, den, 64)
    for k in (-1000, -540, -1, 1, 540, 1000):
        got = truncation_from_coeffs(np.ldexp(num, k), np.ldexp(den, k), 64)
        assert np.array_equal(got, want), k


def test_truncation_overflow_is_a_typed_error():
    # 0.5 / (1 - 1000 z) has the coefficients 0.5 1000^k, beyond the
    # double range from k = 103 on; order 64 still fits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootFindingError, match=(
                r"truncation overflows at order 128: column 1 \(phi\^1\)")):
            truncation_from_coeffs([0.5], [1, -1000], 128)
        m = truncation_from_coeffs([0.5], [1, -1000], 64)
    assert np.isfinite(m).all()
    assert np.abs(eigenvalues(m)).max() == pytest.approx(3.3e206, rel=0.01)


def test_truncation_monomial_exact():
    s = RationalSymbol((0, 0.5), (1,))
    m = truncation_from_coeffs(s.num, s.den, 16)
    vals = np.sort(np.abs(eigenvalues(m)))[::-1]
    expected = 0.5 ** np.arange(16)
    assert np.max(np.abs(vals - expected)) < 1e-12


def test_truncation_first_column_is_one():
    s = RationalSymbol((-2, -1, 2), (-3, 0, 2))
    m = truncation_from_coeffs(s.num, s.den, 12)
    assert m[0, 0] == 1.0 and np.all(m[1:, 0] == 0.0)


def test_truncation_columns_are_symbol_powers():
    s = RationalSymbol((0, 0.25, 0.25), (1,))
    m = truncation_from_coeffs(s.num, s.den, 10)
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
