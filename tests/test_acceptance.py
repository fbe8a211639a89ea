"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line for its criterion and then
asserts it, so a bare `pytest -s tests/test_acceptance.py` reads as a
checklist.
"""

import time
from fractions import Fraction

import numpy as np

from ikwave import (compare_kdv, diagnostics_table, exact_params,
                    fundamental_checks, phase_speed, q_coefficients,
                    q_positivity, solve_crest, solve_critical,
                    solve_solitary, verify_kdv_solution)
from ikwave.cli import TABLE_DELTAS, run


def _line(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


# reference crest sweep: delta -> (eta0, -kappa0, d0), to the 6 digits
# printed, so every value is gated to TABLE_REL
TABLE = {
    0.6:        (0.581258, 2.34087, 1.55722),
    0.62:       (0.645485, 4.85676, 0.730167),
    0.625:      (0.670918, 10.4536, 0.323799),
    0.626:      (0.679938, 20.651, 0.159473),
    0.6263:     (0.685463, 63.354, 0.0508746),
    0.62633:    (0.687014, 168.098, 0.0190423),
    0.626334:   (0.687532, 386.48, 0.00826255),
    0.6263349:  (0.687855, 2125.63, 0.0015),
    0.62633493: (0.687915, 13840.0, 0.000230314),
}
TABLE_REL = 1e-5


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    rows = diagnostics_table(list(TABLE))
    elapsed = time.perf_counter() - start
    # the table command's default sweep and TABLE are one list
    bad = [] if tuple(TABLE) == TABLE_DELTAS else ["table sweeps other deltas"]
    for row in rows:
        if row.error is not None:
            bad.append(f"{row.delta}: {row.error}")
            continue
        for name, got, want in zip(("eta0", "-kappa0", "d0"),
                                   (row.eta0, row.neg_kappa0, row.d0),
                                   TABLE[row.delta]):
            if abs(got - want) > TABLE_REL * abs(want):
                bad.append(f"{row.delta}: {name} {got}")
    if elapsed > 5.0:
        bad.append(f"runtime {elapsed:.2f}s")
    _line("crest-sweep reproduction",
          not bad, f"9 rows in {elapsed * 1e3:.1f} ms" if not bad else "; ".join(bad))


def test_criterion_2_critical_point():
    start = time.perf_counter()
    cp = solve_critical()
    elapsed = time.perf_counter() - start
    bad = []
    if abs(cp.delta_c - 0.62633493) > 5e-9:
        bad.append(f"delta_c {cp.delta_c}")
    if abs(cp.eta_c0 - 0.687926) > 1e-6:
        bad.append(f"eta_c0 {cp.eta_c0}")
    if abs(cp.u_c0 - (-0.797196)) > 1e-6:
        bad.append(f"u_c0 {cp.u_c0}")
    if abs(cp.c_c - 1.26153) > 1e-5:
        bad.append(f"c_c {cp.c_c}")
    if elapsed > 0.1:
        bad.append(f"runtime {elapsed:.3f}s")
    _line("critical point",
          not bad,
          f"delta_c={cp.delta_c:.10f} in {elapsed * 1e3:.2f} ms"
          if not bad else "; ".join(bad))


def test_criterion_3_extreme_geometry(critical_point):
    cp = critical_point
    ok = (abs(cp.slope_dim - 0.24397) <= 1e-4
          and abs(cp.theta_deg - 152.6) <= 0.05)
    _line("extreme crest geometry", ok,
          f"slope={cp.slope_dim:.6f}, theta={cp.theta_deg:.3f} deg")


def test_criterion_4_constants():
    gamma = float(exact_params([2])[0])
    c = phase_speed(0.62633493)
    ok = abs(gamma - 1.0 / 3.0) <= 1e-15 and abs(c - 1.26153) <= 1e-5
    _line("model constants", ok, f"gamma={gamma!r}, c(delta_c)={c:.7f}")


def test_criterion_5_first_integrals():
    # I1 and I2 at rounding level: within 16 eps of the crest height
    eps = np.finfo(float).eps
    worst = 0.0
    for delta in (0.3, 0.45, 0.6):
        p = solve_solitary(delta)
        worst = max(worst, float(np.max(np.abs(p.I1))) / p.eta_max,
                    float(np.max(np.abs(p.I2))) / p.eta_max)
    _line("first-integral conservation", worst <= 16 * eps,
          f"max={worst / eps:.2f} eps of eta_max")


def test_criterion_6_fourth_order_scaling():
    e1 = compare_kdv(solve_solitary(0.1))
    e2 = compare_kdv(solve_solitary(0.2))
    ratio = e2 / e1
    heights = [solve_crest(d).eta0
               for d in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.62)]
    monotone = all(b > a for a, b in zip(heights, heights[1:]))
    ok = 12.0 <= ratio <= 20.0 and monotone
    _line("soliton-error scaling", ok,
          f"ratio={ratio:.3f}, heights monotone={monotone}")


def test_criterion_7_theory_suite():
    fc = fundamental_checks()
    kdv_res = verify_kdv_solution(1.0 / 3.0)
    q = q_coefficients([2])
    q_dev = max(abs(sum(ck * xi2 ** k for k, ck in enumerate(q))
                    - Fraction(4, 9))
                for xi2 in (0, 1, 25, 100))
    bad = []
    if fc["wronskian_dev"] != 0:
        bad.append(f"wronskian {fc['wronskian_dev']:.2e}")
    if fc["ode_residual_u1"] != 0 or fc["ode_residual_u2"] != 0:
        bad.append("ode residual")
    if (fc["decay_exponent_u1"], fc["growth_exponent_u2"]) != (-2, 2):
        bad.append("tail rates")
    if kdv_res != 0:
        bad.append(f"kdv {kdv_res:.2e}")
    if q_dev != 0:
        bad.append(f"q dev {float(q_dev):.2e}")
    if not (q_positivity((1, 2)) > 0.0 and q_positivity((2, 4)) > 0.0):
        bad.append("q positivity")
    _line("analytic verification suite", not bad,
          "all identities exact" if not bad else "; ".join(bad))


def test_criterion_8_failure_behavior(capsys):
    code = run(["solve", "--delta", "0.7"])
    err = capsys.readouterr().err
    ok = code == 1 and "NoSolitaryRoot" in err
    _line("supercritical failure mode", ok, f"exit={code}")
