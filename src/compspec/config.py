"""Global numerical configuration.

Two tolerance tiers are used throughout:

* ``EPS`` -- the general "within tolerance" threshold for algebraic
  identities, normalization, region membership, and the self-map, inner
  and order-2 margin tests (1e-9);
* ``MATCH_TOL`` -- the coarser tolerance within which two boundary
  points are the same point (1e-7).

Contact points are polished to far better than ``MATCH_TOL``.  It is
read in :mod:`compspec.symbol` alone, for these decisions:

* ``BoundaryDataSymbol``: its points lie more than 10 ``MATCH_TOL``
  apart, so each match is unique; ``successor`` matches each image to a
  point (the orbit partition walks it) and ``omega_index`` a boundary
  omega (the type class and the parabolic synthesis read it), whose
  image must match it: "declared DW point is not fixed";
* ``_rational_denjoy_wolff``: the boundary fixed points, the
  Denjoy-Wolff candidates, among a rational symbol's contact points;
* ``second_order_data(s, zeta)``: the point that zeta matches;
* ``clark_atoms(s, alpha)``: the points whose image matches alpha.

A boundary-data document is rejected when its boundary Pick matrix P
has an eigenvalue below ``-PICK_FACTOR * EPS * ||P||_2``: no self-map
has such data.  The factor leaves room for data that are consistent
only to within ``EPS`` per entry.

All three are constants, not settings: they are the thresholds a certified
answer is certified against, so loosening them would turn a rejection
into a wrong answer.
"""

EPS = 1e-9
MATCH_TOL = 1e-7
PICK_FACTOR = 10
