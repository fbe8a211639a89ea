"""Solve one full solitary-wave profile and inspect its diagnostics.

The integration shoots from the crest toward the tail; both conserved
identities I1 and I2 stay near rounding level along the trajectory, which is
the solver's built-in accuracy monitor.  The left half of the wave is an
exact mirror image of the right half.
"""

from pathlib import Path

import numpy as np

from ikwave import solve_solitary
from ikwave.output import profile_csv_text, write_text

delta = 0.55
profile = solve_solitary(delta)

print(f"delta            = {delta}")
print(f"phase speed c    = {profile.c:.12g}")
print(f"wave height      = {profile.eta_max:.12g}")
print(f"crest curvature  = {profile.kappa0:.12g}")
print(f"samples          = {len(profile.x)}  on x in "
      f"[{profile.x[0]:.3f}, {profile.x[-1]:.3f}]")
print(f"stop reason      = {profile.stop}")
print(f"max |I1|         = {np.max(np.abs(profile.I1)):.3e}")
print(f"max |I2|         = {np.max(np.abs(profile.I2)):.3e}")

# the mirror symmetry is bitwise, not approximate
assert np.array_equal(profile.eta, profile.eta[::-1])
assert np.array_equal(profile.phi1, -profile.phi1[::-1])
print("mirror symmetry  = exact")

out = Path("demo_output") / f"profile_delta{delta}.csv"
write_text(out, profile_csv_text(profile))
print(f"wrote {out}")

# resampled variant on a uniform grid, handy for plotting
uniform = solve_solitary(delta, dx=0.02)
out = Path("demo_output") / f"profile_delta{delta}_uniform.csv"
write_text(out, profile_csv_text(uniform))
print(f"wrote {out} (dx = 0.02)")
