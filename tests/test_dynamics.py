import cmath
import math

import pytest

from compspec import contact_set, cycle_multiplier, partition
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

