"""See the annihilation-sum spectral identities at work on matrices.

The spectrum synthesis rests on a handful of purely algebraic facts
about elements with vanishing pairwise products, e.g. that for a cyclic
pattern (a_j a_k = 0 unless k = j+1 mod n) the nonzero spectrum of the
sum is the set of lambda with lambda^n in the spectrum of the cyclic
product.  Here we build structured random matrix families realizing the
patterns exactly and compare both sides with a dense eigensolver.

Each family is block-supported and then conjugated by one similarity.
`run_checker` solves only the sums densely from the conjugated
matrices; the summands and products it solves on the unconjugated
blocks, whose spectra are the same, since a similarity preserves
spectra, and whose zero rows and columns LAPACK's balancing permutes
out.  This demo solves the conjugated matrices throughout.

Run:  python demos/lemma_lab.py
"""

import numpy as np

from compspec.algebra_lab import (Pattern, eigenvalues, make_family,
                                  run_checker)

np.set_printoptions(precision=3, suppress=True)

# -- a cyclic family, n = 3 --------------------------------------------

a = make_family(Pattern.CYCLIC, n=3, order=9, seed=2024)   # a[j] is a_j

print("cyclic pattern, n = 3, order 9, seed 2024")
print("required products vanish:")
for j in range(3):
    for k in range(3):
        if k != (j + 1) % 3:
            print(f"  |a_{j} a_{k}| = {np.linalg.norm(a[j] @ a[k]):.2e}")

total = eigenvalues(sum(a))
prod = eigenvalues(a[0] @ a[1] @ a[2])
nz = total[np.abs(total) > 1e-6 * np.linalg.norm(sum(a))]
print("\nnonzero eigenvalues of the sum, cubed:")
print(np.sort_complex(nz ** 3))
print("nonzero eigenvalues of the product a_0 a_1 a_2:")
print(np.sort_complex(prod[np.abs(prod) > 1e-6 * np.linalg.norm(prod)]))

# the sum's nonzero spectrum is invariant under cube roots of unity
u = np.exp(2j * np.pi / 3)
print("\nrotation by a cube root of unity permutes the set:")
print(np.sort_complex(nz))
print(np.sort_complex(u * nz))

# -- run the seeded suites ---------------------------------------------

print("\nseeded suites (50 trials each):")
for lemma in ("fl", "ta", "cta", "lip", "n2c", "rsm"):
    ok, failing = run_checker(lemma, n=4, order=16, trials=50, master_seed=1)
    print(f"  {lemma:>4}: {'pass' if ok else f'FAIL, seeds {failing[:3]}'}")
