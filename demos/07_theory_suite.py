"""Run the analytic verification suite by hand.

Everything the solver's derivation leans on that can be checked is checked
here.  The leading-order profile equation, the closed-form fundamental pair
with unit Wronskian and its tail rates, and positivity of the bordered
determinant q (for every xi) are proved exactly; each residual prints as 0.
The first-order family that the computed waves approach as delta -> 0 is
compared with the solver in floats.
"""

import numpy as np

from ikwave import (exact_params, first_order_family, fundamental_checks,
                    q_positivity, solve_solitary, verify_kdv_solution)

print(f"leading-order equation residual: {verify_kdv_solution(1.0 / 3.0):g}")

report = fundamental_checks()
for key, value in report.items():
    print(f"{key:<22} = {value:.6g}")

for p in [(2,), (1, 2), (2, 4)]:
    print(f"min q over every xi for p={list(p)}: {q_positivity(p):.10g}")

# the first-order family vs the actual solver, fourth-order agreement
gamma = float(exact_params([2])[0])
for delta in (0.05, 0.1):
    profile = solve_solitary(delta)
    _, eta, _, _ = first_order_family(delta, 2.0 * gamma, profile.x)
    sup = float(np.max(np.abs(profile.eta - eta)))
    print(f"delta={delta}: sup |eta - eta_family| = {sup:.3e} "
          f"= {sup / delta ** 4:.3f} * delta^4")
