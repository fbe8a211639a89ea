import decimal
import math

import numpy as np
import pytest

from ikwave import (NoSolitaryRoot, crest_curvature, crest_slope,
                    extreme_profile, included_angle, integrate_half,
                    solve_crest, solve_critical, solve_solitary)
from ikwave import profile_ode
from ikwave.crest_init import (CriticalPoint, crest_denominator,
                               crest_polynomial, fold_quartic, speed_excess)
from ikwave.output import PROFILE_COLUMNS
from oracles import DELTA_C, decimal_critical_point, decimal_quartic, x_oracle


def test_critical_point_is_pinned_bitwise(critical_point):
    # every field, bit for bit, so a change to the bisection shows
    assert critical_point == CriticalPoint(
        delta_c=0.6263349307245629, eta_c0=0.6879263338437143,
        u_c0=-0.7971963412054571, c_c=1.2615302969638287,
        v_c0=0.46433395575837155, slope_nondim=-0.3895225297479565,
        slope_dim=0.2439715666853428, theta_deg=152.5786014395976)
    assert all(type(value) is float for value in critical_point)
    # a fresh solve gives the same fields, and crest_slope reads two of them
    assert solve_critical() == critical_point
    assert crest_slope(critical_point) == (critical_point.slope_nondim,
                                           critical_point.slope_dim)


def test_critical_point_residuals(critical_point):
    cp = critical_point
    # the smallest root of the crest polynomial is double there
    gamma = speed_excess(cp.delta_c)
    _, _, F, Ft = crest_polynomial(cp.eta_c0 - gamma, gamma)
    assert abs(F) <= 1e-12
    assert abs(Ft) <= 1e-12
    # the critical condition is exactly a vanishing crest denominator
    columns = profile_ode._Curve(cp.delta_c, cp.eta_c0).columns(np.zeros(1))
    d0 = float(columns[PROFILE_COLUMNS.index("d") - 1][0])
    assert abs(d0) <= 1e-10


def test_critical_point_matches_decimal_oracle(critical_point):
    cp = critical_point
    delta_c, eta_c0, c_c, u_c0 = decimal_critical_point()
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        # F = F_t = 0 is the double root of the independent quartic in u(0)
        assert all(abs(r) <= decimal.Decimal("1e-45")
                   for r in decimal_quartic(c_c, u_c0))
        # delta_c is the largest float below the critical value
        assert cp.delta_c == 0.6263349307245629
        assert (decimal.Decimal(cp.delta_c) < delta_c
                < decimal.Decimal(math.nextafter(cp.delta_c, math.inf)))
        assert (abs(decimal.Decimal(cp.eta_c0) - eta_c0)
                <= decimal.Decimal(math.ulp(cp.eta_c0)))
    # so the branch ends exactly there
    solve_crest(cp.delta_c)
    with pytest.raises(NoSolitaryRoot):
        solve_crest(math.nextafter(cp.delta_c, math.inf))


def test_decimal_oracle_lands_on_the_fold_quartic():
    # the 2-D Newton on F = F_t = 0 knows nothing of Q, yet its gamma is Q's
    # root: disc_t F = 79027200 (gamma + 1)^4 Q(gamma)
    _, _, c_c, _ = decimal_critical_point()
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        assert abs(fold_quartic(c_c * c_c - 1)) <= decimal.Decimal("1e-45")


def test_branch_ends_with_a_resolved_crest(critical_point):
    # the smallest crest denominator solve_crest can return, far above D_MIN
    crest = solve_crest(critical_point.delta_c)
    assert crest_denominator(crest) >= 1e-8
    assert math.isfinite(crest_curvature(crest))


def test_included_angle():
    assert included_angle(0.0) == 180.0
    assert included_angle(math.tan(math.radians(30.0))) == pytest.approx(120.0, abs=1e-12)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            included_angle(bad)


@pytest.fixture(scope="module")
def extreme(critical_point):
    return extreme_profile(critical_point)


def test_extreme_peak_and_corner(critical_point, extreme):
    assert extreme.eta_max == critical_point.eta_c0
    assert extreme.kappa0 is None
    center = len(extreme.x) // 2
    assert extreme.x[center] == 0.0
    assert extreme.eta[center] == extreme.eta_max


def test_extreme_identities_and_denominator(extreme):
    # at rounding level, within 16 eps of the crest height
    bound = 16 * np.finfo(float).eps * extreme.eta_max
    assert np.max(np.abs(extreme.I1)) <= bound
    assert np.max(np.abs(extreme.I2)) <= bound
    positive = extreme.x > 0.0
    assert np.all(extreme.d[positive] > 0.0)


def test_one_sided_slope_by_difference_quotient(critical_point, extreme):
    # first-order one-sided quotients at h and h/2, Richardson extrapolated
    eta0 = critical_point.eta_c0

    def quotient(h):
        return (float(extreme.interpolant(h)[0]) - eta0) / h

    q1, q2 = quotient(1e-3), quotient(5e-4)
    richardson = 2.0 * q2 - q1
    assert q2 == pytest.approx(critical_point.slope_nondim, abs=5e-3)
    assert richardson == pytest.approx(critical_point.slope_nondim, abs=1e-3)
    # the profile starts at the corner itself, so the quotients at h = 1e-6
    # and 1e-8 already give the corner slope
    for h in (1e-6, 1e-8):
        assert quotient(h) == pytest.approx(critical_point.slope_nondim, abs=1e-5)


@pytest.mark.parametrize("z", ["1e-10", "1e-12"])
def test_corner_slope_is_the_curve_at_the_crest(z, critical_point):
    # near the corner x = a z^2 + O(z^4) and eta = eta_c0 (1 - z^2 + ...),
    # so eta'(0+) = -eta_c0/a, with a = (dx/dz)/(2z) from the oracle's
    # integrand.  Measured: 1 ulp at both z here; at z = 1e-6 the O(z^2)
    # term of (dx/dz)/(2z) moves the slope by 2.3e-12
    oracle = x_oracle("extreme")
    z = decimal.Decimal(z)
    a = oracle.slope(z, oracle.eta(z)) / (2 * z)
    slope = float(-oracle.eta0 / a)
    assert abs(slope - critical_point.slope_nondim) <= 2 * math.ulp(
        critical_point.slope_nondim)


def test_oracle_slope_does_not_depend_on_the_callers_context():
    # next to the corner dx/dz cancels some 55 digits, so it needs the
    # oracle's own precision whatever the caller's
    oracle = x_oracle("extreme")
    z = decimal.Decimal("1e-10")
    values = []
    for prec in (10, 200):
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            values.append(oracle.slope(z, oracle.eta(z)))
    assert values[0] == values[1]


@pytest.mark.parametrize("x", [1e-14, 1e-12, 1e-11, 1e-10, 1e-8])
def test_resampling_next_to_the_corner(x, critical_point):
    # eta = eta_c0 + slope x + O(x^2): the x^2 term is at most 0.35 eps
    # eta_c0 here, where dx/dz rounds to 0 and Newton takes no step
    cp = critical_point
    half = profile_ode.integrate_from(cp.delta_c, cp.eta_c0)
    eta = float(half(x)[0])
    bound = 2 * np.finfo(float).eps * cp.eta_c0
    assert abs(eta - (cp.eta_c0 + cp.slope_nondim * x)) <= bound


def test_denominator_growth_off_the_crest(critical_point, extreme):
    # one-sided derivative of d along the profile vs its closed form
    cp = critical_point
    H, v, c = 1.0 + cp.eta_c0, cp.v_c0, cp.c_c
    expected = (3.0 * v * v - 8.0 * H - 3.0 * c / v) * cp.slope_nondim

    def d_at(x):
        return extreme.interpolant(x)[PROFILE_COLUMNS.index("d") - 1]

    q1 = d_at(1e-3) / 1e-3
    q2 = d_at(5e-4) / 5e-4
    richardson = 2.0 * q2 - q1
    assert richardson == pytest.approx(expected, rel=1e-4)
    assert expected > 0.0  # d increases away from the degenerate crest


def _local_exponent(f, k):
    """d log f / d log(delta_c - delta) over the half decade from
    delta_c - 10^-k to delta_c - 10^-(k + 1/2)."""
    return math.log(f(k) / f(k + 0.5)) / (0.5 * math.log(10.0))


@pytest.fixture(scope="module")
def fold_expansion():
    """(delta_c, eta_c0, A, K) in 50-digit decimals, with
    eta0 = eta_c0 - A s + O(s^2) and kappa0 = K/s + O(1), s = sqrt(delta_c
    - delta).

    At the double root F = F_t = 0, so F(t, gamma) = 0 leaves
    F_gamma (gamma - gamma_c) + F_tt (t - t_c)^2/2 = 0 to leading order:
    t_c - t = sqrt(2 F_gamma gamma'(delta_c)/F_tt) s, and eta0 = gamma + t
    moves by the same to leading order.  The crest denominator
    d(0) = -N/(2H) then reads N_t A s/(2H), which gives K from eta''(0) =
    (6Hw + 10H^2 v)(3w/(2H^3))/(delta^2 d(0)) at the critical crest.
    A = 0.4072891681... and K = -0.3725309020...
    """
    delta_c, eta_c0, c_c, u_c0 = decimal_critical_point(50)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        gamma = c_c * c_c - 1
        t = eta_c0 - gamma
        P, Pt, _, _ = crest_polynomial(t, gamma)
        F_gamma = 2 * P * (1 + 2 * gamma + 8 * t) - 20 * t
        F_tt = 2 * (Pt * Pt + 14 * P)
        gamma_prime = 4 * (6 * delta_c + 4 * delta_c ** 3) / 9
        A = (2 * F_gamma * gamma_prime / F_tt).sqrt()
        # the t-derivative of N in the crest_init docstring
        N_t = (105 * t * t + 2 * (81 * gamma + 33) * t + 57 * gamma ** 2
               + 48 * gamma + 6)
        H = 1 + eta_c0
        v, w = c_c + u_c0, c_c * eta_c0 + H * u_c0
        K = (2 * H * (6 * H * w + 10 * H * H * v) * (3 * w / (2 * H ** 3))
             / (delta_c ** 2 * N_t * A))
    return delta_c, eta_c0, A, K


def _fold_residuals(crest, fold_expansion):
    """The residuals of the two-term expansions at a crest: the height's,
    divided by delta_c - delta, and the curvature's."""
    delta_c, eta_c0, A, K = fold_expansion
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        gap = delta_c - decimal.Decimal(crest.delta)
        s = gap.sqrt()
        height = (eta_c0 - decimal.Decimal(crest.eta0) - A * s) / gap
        curvature = decimal.Decimal(crest_curvature(crest)) - K / s
    return abs(float(height)), abs(float(curvature))


@pytest.mark.parametrize("k", range(4, 15))
def test_crest_follows_the_two_term_fold_expansions(k, fold_expansion):
    # the residuals are the next terms, O(delta_c - delta) and O(1):
    # measured 1.5961-1.5984 and 0.313-0.340 over k = 4..14
    crest = solve_crest(DELTA_C - 10.0 ** -k)
    height, curvature = _fold_residuals(crest, fold_expansion)
    assert height <= 1.7
    assert curvature <= 0.4


@pytest.mark.parametrize("k", [15, 16])
def test_fold_expansions_hold_at_the_last_floats_of_the_branch(
        k, fold_expansion):
    # kappa0 ~ 1/d0 carries its own rounding, 16 eps |kappa0|/d0 as in
    # test_crest_curvature_matches_decimal_oracle_next_to_critical: 0.147
    # and 0.944 here.  Measured 1.5754 and 1.4115 for the height, 0.402
    # and 0.360 for the curvature
    crest = solve_crest(DELTA_C - 10.0 ** -k)
    height, curvature = _fold_residuals(crest, fold_expansion)
    rounding = (16 * np.finfo(float).eps * abs(crest_curvature(crest))
                / crest_denominator(crest))
    assert height <= 1.7
    assert curvature <= 0.4 + rounding


@pytest.mark.parametrize("k", [6, 7, 8, 9, 10])
def test_crest_curvature_diverges_like_inverse_square_root(k):
    def kappa0(k):
        return abs(crest_curvature(solve_crest(DELTA_C - 10.0 ** -k)))

    assert _local_exponent(kappa0, k) == pytest.approx(-0.5, abs=1e-3)


@pytest.mark.parametrize("k", [7, 8, 9, 10])
def test_crest_approaches_corner_height_like_square_root(k, critical_point):
    # at k = 6 the exponent is 0.50149: the next-order term still shows
    def gap(k):
        return critical_point.eta_c0 - solve_crest(DELTA_C - 10.0 ** -k).eta0

    assert _local_exponent(gap, k) == pytest.approx(0.5, abs=1e-3)


def _sup_distance_to_extreme(k, extreme):
    """sup |eta - eta_ext| at delta_c - 10^-k on 4,001 points uniform over
    the x range both right halves cover, from both interpolants."""
    profile = solve_solitary(DELTA_C - 10.0 ** -k)
    xs = np.linspace(0.0, min(profile.x[-1], extreme.x[-1]), 4001)
    eta, eta_ext = profile.interpolant(xs)[0], extreme.interpolant(xs)[0]
    return float(np.max(np.abs(eta - eta_ext)))


@pytest.mark.parametrize("k", [6, 7, 8, 9, 10, 11])
def test_profiles_converge_to_the_extreme_wave_like_square_root(k, extreme):
    # from k = 5 to 6 the exponent is -0.5037: the next-order term still shows
    ratio = (_sup_distance_to_extreme(k + 1, extreme)
             / _sup_distance_to_extreme(k, extreme))
    assert math.log10(ratio) == pytest.approx(-0.5, abs=2e-3)


@pytest.mark.parametrize("k", range(3, 11))
def test_near_critical_profile_is_resolved_by_step_control(k, monkeypatch):
    # tightening the panel tolerance 100-fold takes more panels and moves
    # eta by at most 1e-12 on 4,001 points uniform over the x range both
    # right halves cover
    crest = solve_crest(DELTA_C - 10.0 ** -k)
    half = integrate_half(crest)
    monkeypatch.setattr(profile_ode, "PANEL_TOL",
                        profile_ode.PANEL_TOL / 100.0)
    fine = integrate_half(crest)
    assert len(fine.x) > len(half.x)
    xs = np.linspace(0.0, min(half.x[-1], fine.x[-1]), 4001)
    eta, eta_fine = half(xs)[0], fine(xs)[0]
    assert float(np.max(np.abs(eta - eta_fine))) <= 1e-12
