import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from compspec import (BoundaryDataSymbol, DenjoyWolffRecord, Location,
                      RationalSymbol, SecondOrderData, analyze, contact_set,
                      cycle_multiplier, partition)
from conftest import nearest


def test_partition_disjoint_and_covering(lollipop, two_cycle, eight_point,
                                         square_root):
    for s in (lollipop, two_cycle, eight_point, square_root):
        part = partition(s)
        pts = contact_set(s)
        covered = part.all_points
        assert len(covered) == len(pts)
        for z in pts:
            hits = [w for w in covered if abs(w - z) < 1e-9]
            assert len(hits) == 1


def test_partition_lollipop(lollipop):
    part = partition(lollipop)
    assert part.iterate_out == ()
    assert len(part.cycles) == 2
    assert all(c.length == 1 for c in part.cycles)
    mults = sorted(c.multiplier for c in part.cycles)
    assert mults[0] == pytest.approx(1.0, abs=1e-9)
    assert mults[1] == pytest.approx(9.0, abs=1e-8)


def test_partition_two_cycle(two_cycle):
    part = partition(two_cycle)
    assert part.iterate_out == ()
    assert len(part.cycles) == 1
    c = part.cycles[0]
    assert c.length == 2
    assert c.multiplier == pytest.approx(25.0, rel=1e-9)
    assert part.lead_ins[0] == ()


def test_partition_eight_point(eight_point):
    part = partition(eight_point)
    e = lambda k: cmath.exp(1j * math.pi * k / 4)

    assert len(part.iterate_out) == 2
    for target in (e(1), e(5)):
        assert abs(nearest(part.iterate_out, target) - target) < 1e-9

    assert len(part.cycles) == 3
    two = [c for c in part.cycles if c.length == 2]
    ones = [c for c in part.cycles if c.length == 1]
    assert len(two) == 1 and len(ones) == 2
    assert two[0].multiplier == pytest.approx(144.0, rel=1e-8)
    for c in ones:
        assert c.multiplier == pytest.approx(15.0, rel=1e-8)
    for target in (1.0, -1.0):
        assert abs(nearest(two[0].points, target) - target) < 1e-9
    singles = [c.points[0] for c in ones]
    for target in (e(3), e(7)):
        assert abs(nearest(singles, target) - target) < 1e-9

    idx2 = part.cycles.index(two[0])
    leads = part.lead_ins[idx2]
    assert len(leads) == 2
    for target in (1j, -1j):
        assert abs(nearest(leads, target) - target) < 1e-9
    for i, c in enumerate(part.cycles):
        if i != idx2:
            assert part.lead_ins[i] == ()


def test_partition_empty(compact_half):
    part = partition(compact_half)
    assert part.iterate_out == () and part.cycles == ()


def test_cycle_multiplier_start_point_independent(two_cycle, eight_point):
    for s in (two_cycle, eight_point):
        part = partition(s)
        for c in part.cycles:
            rotations = [c.points[k:] + c.points[:k]
                         for k in range(c.length)]
            mults = [cycle_multiplier(s, pts) for pts in rotations]
            assert max(mults) - min(mults) < 1e-9 * max(1.0, max(mults))



def _reference_walk(succ):
    """The partition as it was computed before the single walk: every
    point walked to its first repeat, cycles deduplicated as sorted
    tuples.  Gives (iterate-out indices, cycles, lead-ins per cycle)."""
    n = len(succ)
    reaches = [None] * n
    iterate_out, cycles = [], []

    def cycle_of(start):
        path, seen, cur = [start], {start: 0}, start
        for _ in range(n + 1):
            nxt = succ[cur]
            if nxt is None:
                return None
            if nxt in seen:
                return tuple(path[seen[nxt]:])
            seen[nxt] = len(path)
            path.append(nxt)
            cur = nxt
        raise AssertionError("orbit walk exceeded the pigeonhole bound")

    for i in range(n):
        cyc = cycle_of(i)
        if cyc is None:
            iterate_out.append(i)
        else:
            reaches[i] = cyc
            if sorted(cyc) not in [sorted(c) for c in cycles]:
                cycles.append(cyc)
    lead_ins = [tuple(i for i in range(n) if reaches[i] is not None
                      and sorted(reaches[i]) == sorted(c) and i not in c)
                for c in cycles]
    return iterate_out, cycles, lead_ins


def _successor_symbol(succ):
    """Boundary data on the n-th roots of unity: point k maps to point
    succ[k], or half a step past itself (off the set) for None.  Every
    |phi'| is n^2 + 2, so each cycle repels, and the Denjoy-Wolff point
    is 0."""
    n = len(succ)
    zeta = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
    pts = []
    for k, j in enumerate(succ):
        w = cmath.exp(2j * math.pi * (k + 0.5) / n) if j is None else zeta[j]
        pts.append(SecondOrderData(zeta[k], w, (n * n + 2) * w / zeta[k], 0))
    return BoundaryDataSymbol(
        tuple(pts), DenjoyWolffRecord(0, 0, Location.INTERIOR))


_successor_maps = st.integers(1, 64).flatmap(lambda n: st.lists(
    st.integers(-1, n - 1).map(lambda j: None if j < 0 else j),
    min_size=n, max_size=n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_successor_maps)
def test_partition_matches_the_reference_walk(succ):
    a = analyze(_successor_symbol(succ))
    pts = [p.zeta for p in a.boundary.points]
    part = partition(a)
    iterate_out, cycles, lead_ins = _reference_walk(succ)
    assert part.iterate_out == tuple(pts[i] for i in iterate_out)
    assert [c.points for c in part.cycles] == \
        [tuple(pts[i] for i in c) for c in cycles]
    assert part.lead_ins == {k: tuple(pts[i] for i in v)
                             for k, v in enumerate(lead_ins)}
    for c, ref in zip(part.cycles, cycles):
        assert c.multiplier == cycle_multiplier(a, c.points)
        assert c.multiplier == cycle_multiplier(a, [pts[i] for i in ref])


def test_partition_of_64_contacts_onto_one_fixed_point():
    # z^64 / (2 - z^64) maps each 64th root of unity to 1, which is
    # fixed with phi'(1) = 128
    num, den = [0.0] * 65, [0.0] * 65
    num[64], den[0], den[64] = 1.0, 2.0, -1.0
    s = RationalSymbol(tuple(num), tuple(den))
    part = partition(s)
    assert part.iterate_out == ()
    cycle, = part.cycles
    assert cycle.points == (pytest.approx(1.0, abs=1e-12),)
    assert cycle.multiplier == pytest.approx(128.0, rel=1e-12)
    assert cycle.multiplier == cycle_multiplier(s, cycle.points)
    assert len(part.lead_ins[0]) == 63
