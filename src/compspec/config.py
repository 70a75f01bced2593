"""Global numerical configuration.

Two tolerance tiers are used throughout:

* ``EPS`` -- the general "within tolerance" threshold for algebraic
  identities, normalization, region membership, and the self-map, inner
  and order-2 margin tests (1e-9);
* ``MATCH_TOL`` -- the coarser tolerance used when matching a computed
  boundary image against a stored contact point (1e-7).

Boundary-orbit matching needs the two-tier scheme: contact points are
polished to far better than ``MATCH_TOL``, and a guard in the dynamics
layer requires contact points to be separated by at least ten times
``MATCH_TOL`` so that matching is unambiguous.

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
