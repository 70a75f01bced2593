"""Global numerical configuration.

Two tolerance tiers are used throughout:

* ``EPS`` -- the general "within tolerance" threshold for algebraic
  identities, normalization, region membership, and the self-map, inner
  and order-2 margin tests (1e-9);
* ``MATCH_TOL`` -- the coarser tolerance within which two boundary
  points are the same point (1e-7).

Contact points are polished to far better than ``MATCH_TOL``.  It is
read for these decisions:

* ``BoundaryDataSymbol``: its points lie more than 10 ``MATCH_TOL``
  apart, so each match is unique; ``successor`` matches each image to a
  point (the orbit partition walks it) and ``omega_index`` a boundary
  omega (the type class and the parabolic synthesis read it), whose
  image must match it: "declared DW point is not fixed";
* ``_rational_denjoy_wolff``: the fixed contact points among a rational
  symbol's contact points, the boundary Denjoy-Wolff candidates; the
  double roots of N - zD at them are divided out before its roots are
  found;
* ``second_order_data(s, zeta)``: the point that zeta matches;
* ``clark_atoms(s, alpha)``: the points whose image matches alpha;
* ``spectrum.lft_spectra``: the finite fixed points of a
  linear-fractional map on the circle, and those inside it.

``REAL_TOL`` is the relative tolerance within which phi' at a boundary
fixed point is real (1e-8 max(1, |phi'|)).  Julia-Caratheodory makes it
real and positive there; the computed phi' carries the roundoff of the
polished contact and of its evaluation, which grows with |phi'|, hence
the relative form.  The boundary Denjoy-Wolff candidates of
``_rational_denjoy_wolff`` and of ``spectrum.lft_spectra`` use it; both
accept only Re phi' <= 1 + ``EPS`` as well.

``CONTACT_TOL`` is how close to 1 |phi| must be at a circle critical
point of T = |N|^2 - |D|^2 for the point to lie in a contact (1e-8).
At a true contact |phi| = 1, and the computed critical point misses it
only by roundoff: a simple root of H by about eps in angle, a root of
H of multiplicity k, split, by about eps^(1/k), which moves |phi| by
the (k + 1)th power of that, so by no more than about eps.  The
tolerance sits well above that and below the depth of |phi| between
distinct contacts of the maps in scope.  A gap between two contacts
whose |phi| dips less than ``CONTACT_TOL`` below 1 is not resolved:
the two contacts merge into one of higher multiplicity.  The same
tolerance confirms each located contact, at its polished point.

A boundary-data document is rejected when its boundary Pick matrix P
has an eigenvalue below ``-PICK_FACTOR * EPS * ||P||_2``: no self-map
has such data.  The factor leaves room for data that are consistent
only to within ``EPS`` per entry.

All five are constants, not settings: they are the thresholds a certified
answer is certified against, so loosening them would turn a rejection
into a wrong answer.
"""

EPS = 1e-9
MATCH_TOL = 1e-7
REAL_TOL = 1e-8
CONTACT_TOL = 1e-8
PICK_FACTOR = 10
