"""Crest states across the shallowness range, up to where they cease to exist.

The crest height eta(0) is the smallest root of the crest polynomial F(t),
t = eta(0) - (c^2 - 1), below the critical shallowness; there that root
becomes double, and above it F has no root at all.  As delta
approaches the critical value the crest curvature blows up and the
denominator d(0) of the profile equations collapses to zero: the crest is
sharpening into a corner.
"""

from ikwave import NoSolitaryRoot, diagnostics_table, solve_crest

print("delta        eta(0)       -kappa(0)      d(0)")
for row in diagnostics_table([0.3, 0.45, 0.55, 0.6, 0.62, 0.625, 0.626,
                              0.6263, 0.62633, 0.626334, 0.62633493]):
    print(f"{row.delta:<12g} {row.eta0:<12.6f} {row.neg_kappa0:<14.6g} "
          f"{row.d0:.6g}")

print()
print("Past the critical shallowness the crest polynomial has no root:")
try:
    solve_crest(0.63)
except NoSolitaryRoot as exc:
    print(f"  solve_crest(0.63) -> NoSolitaryRoot: {exc}")
