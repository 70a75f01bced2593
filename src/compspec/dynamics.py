"""Boundary orbit analysis on the contact set.

Each contact point either iterates out of the contact set within n steps
(n = number of contact points), or is eventually periodic.  The contact
set therefore splits into iterate-out points, disjoint cycles, and
lead-in sets, one per cycle.  Cycle multipliers come from the chain rule
over the cycle, never from composing the symbol with itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EPS, MATCH_TOL
from .errors import InvalidDataError
from .symbol import Analysis, Symbol, analyze, second_order_data

__all__ = ["Cycle", "OrbitPartition", "partition", "cycle_multiplier"]


@dataclass(frozen=True)
class Cycle:
    points: tuple       # ordered: phi maps each point to the next
    multiplier: float   # |(phi^[len])'| at any cycle point

    @property
    def length(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class OrbitPartition:
    iterate_out: tuple
    cycles: tuple          # of Cycle
    lead_ins: dict         # cycle index -> tuple of points

    @property
    def all_points(self):
        pts = list(self.iterate_out)
        for c in self.cycles:
            pts.extend(c.points)
        for v in self.lead_ins.values():
            pts.extend(v)
        return pts


def _match(points, w):
    """Index of the contact point within MATCH_TOL of w, or None."""
    return next((i for i, p in enumerate(points) if abs(p - w) <= MATCH_TOL),
                None)


def cycle_multiplier(s: Symbol | Analysis, points) -> float:
    """Chain-rule product of |phi'| over the cycle points."""
    a = analyze(s)
    out = 1.0
    for p in points:
        out *= abs(second_order_data(a, p).d1)
    return out


def partition(s: Symbol | Analysis) -> OrbitPartition:
    # matching needs the contact points more than 10x MATCH_TOL apart,
    # which BoundaryDataSymbol enforces
    a = analyze(s)
    data = a.boundary.points
    points = [p.zeta for p in data]
    n = len(points)
    succ = [_match(points, p.value) for p in data]

    # walk each point at most n+1 steps: exit -> iterate-out, else find
    # the first repeat, which identifies the cycle the point reaches
    reaches_cycle: list[tuple | None] = [None] * n
    iterate_out = []
    cycles: list[tuple] = []

    def cycle_of(start: int) -> tuple | None:
        path = [start]
        seen = {start: 0}
        cur = start
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
            reaches_cycle[i] = cyc
            canon = tuple(sorted(cyc))
            if canon not in [tuple(sorted(c)) for c in cycles]:
                cycles.append(cyc)

    cycle_objs = []
    lead_ins: dict[int, tuple] = {}
    for k, cyc in enumerate(cycles):
        pts = tuple(points[i] for i in cyc)
        mult = cycle_multiplier(a, pts)
        if len(pts) > 1 and mult <= 1.0 + EPS:
            raise InvalidDataError(
                f"cycle of length {len(pts)} with multiplier {mult} <= 1; "
                "a second Denjoy-Wolff point would follow")
        cycle_objs.append(Cycle(pts, mult))
        members = set(cyc)
        leads = tuple(points[i] for i in range(n)
                      if reaches_cycle[i] is not None
                      and tuple(sorted(reaches_cycle[i])) == tuple(sorted(cyc))
                      and i not in members)
        lead_ins[k] = leads
    return OrbitPartition(tuple(points[i] for i in iterate_out),
                          tuple(cycle_objs), lead_ins)

