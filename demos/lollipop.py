"""Walk through the full pipeline on phi(z) = (2z^2 - z - 2)/(2z^2 - 3).

This symbol has boundary contact exactly at z = 1 and z = -1.  The point
1 is a parabolic fixed point (phi'(1) = 1, phi''(1) = 8) and -1 is a
repelling fixed point with derivative 9.  The spectrum comes out as the
closed disk of radius 1/3 together with the segment [0, 1] -- a shape
that earns the symbol its lollipop nickname.

Run:  python demos/lollipop.py
"""

import compspec as cs
from compspec.render import write_svg

phi = cs.RationalSymbol((-2, -1, 2), (-3, 0, 2))
a = cs.analyze(phi)   # reduce the symbol once; every call below reads a

print("contact set:", [f"{z:.3f}" for z in cs.contact_set(a)])

for zeta in cs.contact_set(a):
    d = cs.second_order_data(a, zeta)
    print(f"  at {zeta:+.0f}: value={d.value:+.3f}  phi'={d.d1:+.3f}  "
          f"phi''={d.d2:+.3f}  order-2 margin={d.contact_margin():.3f}")

dw = cs.denjoy_wolff(a)
print(f"\nDenjoy-Wolff point: {dw.omega:+.3f} ({dw.location.value}), "
      f"derivative {dw.derivative:.3f}")

part = cs.partition(a)
print("orbit partition:")
for c in part.cycles:
    print(f"  cycle {tuple(f'{p:+.0f}' for p in c.points)} "
          f"with multiplier {c.multiplier:.3f}")

report = cs.synthesize(a)
print(f"\ntype: {a.type_class.value}")
print("essential spectrum:", report.essential.primitives)
print("spectrum:          ", report.full.primitives)
print("essential norm^2:  ", cs.essential_norm_sq(a))

# independent route: each contact point is fixed, so the essential
# spectrum is also the union over the per-point linear-fractional
# matches (plus {0})
union = cs.kms2t_essential_union(a)
print("cross-check union: ", union.primitives)
print("routes agree:      ", cs.region_equal(union, report.essential))

write_svg(report.full, "lollipop.svg")
print("\nwrote lollipop.svg")
