"""The solitary wave of extreme form and its sharp corner crest.

At the critical shallowness the crest denominator vanishes: the profile
equations degenerate and the smooth crest is replaced by a corner with a
finite one-sided slope.  In laboratory variables the faces meet at about
152.6 degrees, noticeably flatter than the 120-degree corner of the full
water-wave problem.
"""

from pathlib import Path

import numpy as np

from ikwave import extreme_profile, solve_critical
from ikwave.output import profile_csv_text, write_text

cp = solve_critical()
print(f"critical shallowness delta_c = {cp.delta_c:.12g}")
print(f"crest state: eta(0) = {cp.eta_c0:.12g}, u(0) = {cp.u_c0:.12g}")
print(f"phase speed c_c = {cp.c_c:.12g}")
print(f"c_c + u_c(0) = {cp.v_c0:.12g} > 0: the crest is not a stagnation point")
print()
print(f"one-sided slope (scaled)      = {cp.slope_nondim:.12g}")
print(f"one-sided slope (dimensional) = {cp.slope_dim:.12g}")
print(f"included crest angle          = {cp.theta_deg:.7g} degrees")
print()

profile = extreme_profile(cp)
print(f"extreme profile: peak {profile.eta_max:.9g}, "
      f"{len(profile.x)} samples, stop = {profile.stop}")
print(f"max |I1| = {np.max(np.abs(profile.I1)):.3e}   "
      f"max |I2| = {np.max(np.abs(profile.I2)):.3e}")

# the corner shows up as a jump in the difference quotient across x = 0
center = len(profile.x) // 2
left = (profile.eta[center] - profile.eta[center - 1]) \
    / (profile.x[center] - profile.x[center - 1])
right = (profile.eta[center + 1] - profile.eta[center]) \
    / (profile.x[center + 1] - profile.x[center])
print(f"difference quotients at the crest: {left:+.6f} / {right:+.6f}")

out = Path("demo_output") / "extreme_profile.csv"
write_text(out, profile_csv_text(profile))
print(f"wrote {out}")
