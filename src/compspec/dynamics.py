"""Boundary orbit analysis on the contact set.

Each contact point either iterates out of the contact set within n steps
(n = number of contact points), or is eventually periodic.  The contact
set therefore splits into iterate-out points, disjoint cycles, and
lead-in sets, one per cycle, which :func:`partition` finds in one walk
along the successor indices of a boundary-data symbol.
:func:`compspec.symbol.analyze` makes that walk once per symbol and
keeps its result, so every other caller reads the analysis.  Cycle
multipliers come from the chain rule over the cycle's own data, never
from composing the symbol with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import EPS, MATCH_TOL
from .errors import InvalidDataError
from .symbol import (Analysis, BoundaryDataSymbol, Location, Symbol,
                     analyze, second_order_data)

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
    """The orbit partition of the contact set.  A boundary-data symbol
    is walked here; any other symbol is read off its analysis.  Data
    that no self-map has is refused: a boundary cycle of length > 1 that
    attracts, and, for a hyperbolic Denjoy-Wolff point omega, a cycle
    that gives a larger rho than 1/sqrt(phi'(omega))."""
    if not isinstance(s, BoundaryDataSymbol):
        return analyze(s).partition
    # matching needs the contact points more than 10x MATCH_TOL apart,
    # which BoundaryDataSymbol enforces
    data = s.points
    points = [p.zeta for p in data]
    n = len(points)
    succ = [_match(points, p.value) for p in data]

    # fate[i] = -1 if i's orbit leaves the contact set, else the index
    # of the cycle it reaches.  A walk stops where the orbit leaves,
    # joins a known fate, or closes a new cycle at the point it entered
    fate: list[int | None] = [None] * n
    cycles = []
    for i in range(n):
        path, cur = [], i
        while cur is not None and fate[cur] is None and cur not in path:
            path.append(cur)
            cur = succ[cur]
        if cur is not None and fate[cur] is None:   # closed a new cycle
            fate[cur] = len(cycles)
            cycles.append(path[path.index(cur):])
        end = -1 if cur is None else fate[cur]
        for j in path:
            fate[j] = end

    cycle_objs = []
    for cyc in cycles:
        mult = math.prod(abs(data[j].d1) for j in cyc)
        if len(cyc) > 1 and mult <= 1.0 + EPS:
            raise InvalidDataError(
                f"cycle of length {len(cyc)} with multiplier {mult} <= 1; "
                "a second Denjoy-Wolff point would follow")
        cycle_objs.append(Cycle(tuple(points[j] for j in cyc), mult))
    lead_ins = {k: tuple(points[i] for i in range(n)
                         if fate[i] == k and i not in cyc)
                for k, cyc in enumerate(cycles)}
    part = OrbitPartition(tuple(points[i] for i in range(n) if fate[i] == -1),
                          tuple(cycle_objs), lead_ins)
    dw = s.denjoy_wolff
    if dw.location is Location.BOUNDARY and dw.derivative.real < 1.0 - EPS:
        # hyperbolic: the Denjoy-Wolff point's own cycle must give rho
        r, r_cycles = 1.0 / math.sqrt(dw.derivative.real), rho(part)
        if abs(r - r_cycles) > 1e-9 * max(1.0, r):
            raise InvalidDataError(
                f"cycle-derived rho {r_cycles} disagrees with "
                f"1/sqrt(phi'(omega)) = {r}")
    return part


def rho(part: OrbitPartition) -> float:
    """max over cycles of multiplier^(-1/(2 len))."""
    if not part.cycles:
        raise InvalidDataError("rho needs at least one cycle")
    return max(c.multiplier ** (-1.0 / (2.0 * c.length)) for c in part.cycles)
