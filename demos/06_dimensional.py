"""Convert a scaled profile to laboratory units.

The nondimensional solution depends on the still-water depth h and gravity g
only through the scalings x* = (h/delta) x, eta* = h eta, speeds times
sqrt(gh).  A 2 m deep channel at delta = 0.3 then carries a 0.25 m high wave
travelling at about 4.7 m/s, close to the textbook estimate
(1 + a/2h) sqrt(gh).
"""

import numpy as np

from ikwave import dimensionalize, solve_solitary

profile = solve_solitary(0.3)
dp = dimensionalize(profile, depth=2.0, gravity=9.81)

print(f"depth h          = {dp.depth} m, gravity g = {dp.gravity} m/s^2")
print(f"amplitude a      = {dp.amplitude:.6g} m")
print(f"phase speed      = {dp.c:.6g} m/s")
estimate = (1.0 + dp.amplitude / (2.0 * dp.depth)) * np.sqrt(9.81 * 2.0)
print(f"(1+a/2h)sqrt(gh) = {estimate:.6g} m/s")
print(f"effective length = {dp.x[-1] - dp.x[0]:.6g} m of channel")

# the crest slope in the lab frame carries the extra factor delta
i = len(profile.x) // 2 + 3
scaled = (profile.eta[i + 1] - profile.eta[i]) / (profile.x[i + 1] - profile.x[i])
lab = (dp.eta[i + 1] - dp.eta[i]) / (dp.x[i + 1] - dp.x[i])
print(f"slope check: lab {lab:.6g} = delta * scaled {profile.delta * scaled:.6g}")
