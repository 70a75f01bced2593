"""Compare truncation eigenvalues with the predicted spectral region.

The N x N matrix whose column j holds the Taylor coefficients of phi^j
is the compression of the composition operator to polynomials of degree
< N.  Its eigenvalues are only a heuristic diagnostic -- no convergence
is claimed except in the exactly solvable monomial case -- but for the
lollipop symbol most of the cloud does settle near the predicted disk
and segment.

Run:  python demos/truncation_cloud.py
"""

import numpy as np

import compspec as cs
from compspec.algebra_lab import eigenvalues, truncation_from_coeffs

# the exactly solvable case first: phi(z) = z/2 has eigenvalues 2^-k
half = cs.RationalSymbol((0, 0.5), (1,))
mat = truncation_from_coeffs(half.num, half.den, 8)
vals = np.sort(np.abs(eigenvalues(mat)))[::-1]
print("phi(z) = z/2, order 8 truncation:")
print("  moduli:", np.array2string(vals, precision=6))
print("  exact :", 0.5 ** np.arange(8))

# the lollipop: predicted spectrum is the 1/3-disk plus [0, 1]
phi = cs.RationalSymbol((-2, -1, 2), (-3, 0, 2))
report = cs.synthesize(phi)
print("\nlollipop, predicted:", report.full.primitives)

for order in (16, 32, 64):
    cloud = eigenvalues(truncation_from_coeffs(phi.num, phi.den, order))
    inside = sum(cs.contains(report.full, lam + 0j) for lam in cloud)
    worst = max(abs(lam.imag) for lam in cloud if abs(lam) > 1 / 3)
    print(f"  order {order:3d}: {inside}/{order} eigenvalues inside the "
          f"predicted region; largest off-axis part beyond the disk "
          f"{worst:.2e}")
