"""Run the analytic verification suite by hand.

Everything the solver's derivation leans on that can be checked is checked
here.  The leading-order profile equation, for the whole small-amplitude
family eta = 2 alpha delta^2 sech^2(k x), k^2 = alpha/(2 gamma), every
alpha at once, the closed-form fundamental pair with unit Wronskian and its
tail rates, and positivity of the bordered determinant q (for every xi) are
proved exactly; each residual prints as 0.  At alpha = 2 gamma the family
is the classical soliton kdv_profile, which the solver approaches to fourth
order as delta -> 0.
"""

from ikwave import (compare_kdv, fundamental_checks, q_positivity,
                    solve_solitary, verify_kdv_solution)

print(f"leading-order equation residual: {verify_kdv_solution(1.0 / 3.0):g}")

report = fundamental_checks()
for key, value in report.items():
    print(f"{key:<22} = {value:.6g}")

for p in [(2,), (1, 2), (2, 4)]:
    print(f"min q over every xi for p={list(p)}: {q_positivity(p):.10g}")

# the family at alpha = 2 gamma vs the actual solver, fourth-order agreement
for delta in (0.05, 0.1):
    sup = compare_kdv(solve_solitary(delta))
    print(f"delta={delta}: sup |eta - eta_kdv| = {sup:.3e} "
          f"= {sup / delta ** 4:.3f} * delta^4")
