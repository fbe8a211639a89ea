import decimal
import math

import numpy as np
import pytest
from numpy.polynomial import legendre
from hypothesis import given, settings
from hypothesis import strategies as st

from ikwave import (DenominatorVanished, StepSizeUnderflow, crest_curvature,
                    extreme_profile, integrate_half, solve_crest,
                    solve_solitary)
from ikwave import cli, crest_init, profile_ode
from ikwave.crest_init import (CrestState, crest_denominator, curve_w,
                               phase_speed)
from ikwave.output import PROFILE_COLUMNS, profile_csv_text
from ikwave.solitary_profile import assemble_profile
from oracles import (DELTA_C, ORACLE_EDGES, ORACLE_NODES,
                     decimal_crest_curvature, decimal_phi1_prime, x_oracle)


def test_config_validation():
    assert profile_ode.PANEL_NODES == 16 and profile_ode.PANEL_TOL == 1e-14
    assert profile_ode.PANEL_MAX_DEPTH == 30
    assert crest_init.D_MIN == 1e-13 and profile_ode.TAIL_REL == 1e-5
    assert np.exp(-profile_ode.Z_END ** 2) == pytest.approx(1e-5, rel=1e-14)
    assert profile_ode.Z_TOL == 1e-10 and profile_ode.NEWTON_MAX_SWEEPS == 50


def test_identities_vanish_at_solved_crest():
    crest = solve_crest(0.55)
    *_, I1, I2 = profile_ode._Curve(crest.delta, crest.eta0).columns(
        np.zeros(1))
    assert abs(float(I1[0])) <= 1e-12
    assert abs(float(I2[0])) <= 1e-11


def _half(delta, critical_point):
    if delta == "extreme":
        return profile_ode.integrate_from(critical_point.delta_c,
                                          critical_point.eta_c0)
    return integrate_half(solve_crest(delta))


@pytest.mark.parametrize("delta", [1e-4, 0.1, 0.3, 0.55, 0.62, 0.626,
                                   DELTA_C, "extreme"])
def test_profile_fields_are_the_kernel_on_its_samples(delta, critical_point):
    # at its own samples the Hermite start is the sample z, so every Newton
    # step is exactly 0, and the right half's columns after x are one pass
    # of the closed forms at the sample z, from a curve built afresh from
    # (delta, eta0)
    half = _half(delta, critical_point)
    assert np.array_equal(half._z_start(half.x), half._z)
    p = assemble_profile(half)
    columns = profile_ode._Curve(p.delta, p.eta_max).columns(half._z)
    right = p.x >= 0.0
    assert np.array_equal(p.x[right], half.x)
    for name, a in zip(PROFILE_COLUMNS[1:], columns, strict=True):
        assert np.array_equal(getattr(p, name)[right], a), name


def _dx_grid(half, dx):
    """solve_solitary's half grid of spacing dx."""
    x = np.arange(int(half.x[-1] / dx) + 1) * dx
    return x[x <= half.x[-1]]


def test_potential_reconstruction_recovers_velocity(critical_point):
    # u = phi0' + H^2 phi1' is an identity of the 2x2 solve on the curve
    for delta in (1e-6, 1e-2, 0.3, 0.62, "extreme"):
        half = _half(delta, critical_point)
        for x in (None, _dx_grid(half, 0.01)):
            p = assemble_profile(half, x)
            H = 1.0 + p.eta
            assert np.all(np.abs(p.phi0_prime + H * H * p.phi1_prime - p.u)
                          <= 8 * np.finfo(float).eps * np.abs(p.u)), delta


@pytest.mark.parametrize("delta", [1e-6, 1e-4, 1e-2, 0.3, 0.62, "extreme"])
def test_phi1_prime_column_matches_decimal_oracle(delta, critical_point):
    # w = eta W keeps the digits that c eta + H u cancels as delta -> 0
    half = _half(delta, critical_point)
    for x in (None, _dx_grid(half, 0.01)):
        p = assemble_profile(half, x)
        right = p.x >= 0.0
        exact = decimal_phi1_prime(p.delta, p.eta[right].tolist())
        error = max(abs(decimal.Decimal(a) - b)
                    for a, b in zip(p.phi1_prime[right].tolist(), exact))
        assert float(error) <= (8 * np.finfo(float).eps
                                * np.max(np.abs(p.phi1_prime)))


def test_half_trajectory_conserves_identities():
    # I1 and I2 vanish by construction on the curve; the phi1' residual and
    # the quadrature oracle below are the independent checks
    half = integrate_half(solve_crest(0.45))
    p = assemble_profile(half)
    assert half.stop == "tail"
    assert np.all(np.diff(half.x) > 0.0)
    assert np.all(p.d > 0.0)
    # surface decays monotonically from the crest on the samples
    eta = half(half.x)[0]
    assert np.all(np.diff(eta) < 0.0)
    assert eta[-1] < 1e-5


def test_integrate_half_takes_only_a_crest_state():
    with pytest.raises(TypeError, match="CrestState"):
        integrate_half(tuple(solve_crest(0.45)))


def test_achievable_tail_threshold_reached():
    for delta in (1e-4, 0.3, 0.6):
        half = integrate_half(solve_crest(delta))
        assert half.stop == "tail"
        eta = half.along_z(half._z)[1]
        assert eta[-1] / eta[0] == pytest.approx(
            profile_ode.TAIL_REL, rel=1e-14)


def phi1_prime_residual(delta, eta0, n=400, h=1e-6):
    """Largest |dphi1/dx - 1.5 w/H^3| along a half profile, over max|phi1'|.

    The curve is built from I1 and I2 only, so the third equation of the
    system is an independent check.  dphi1/dx is a central difference in z
    divided by dx/dz, on n points uniform in z over (0, Z_END]; h resolves
    the crest of the waves next to the critical one.  w is taken as eta*W,
    since c*eta + H*u loses its digits to cancellation for small delta.
    """
    curve = profile_ode._Curve(delta, eta0)
    z = np.linspace(0.0, profile_ode.Z_END, n + 1)[1:]
    eta, slope = curve.eta(z), curve.at(z)
    dphi1 = (curve.columns(z + h)[2] - curve.columns(z - h)[2]) / (2.0 * h)
    H = 1.0 + eta
    exact = 1.5 * eta * curve_w(eta, curve.c, curve.gamma, np.sqrt) / H ** 3
    return float(np.max(np.abs(dphi1 / slope - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("delta", [1e-4, 1e-2, 0.1, 0.3, 0.55, 0.62, 0.626,
                                   DELTA_C - 1e-10])
def test_third_equation_holds_along_the_curve(delta):
    assert phi1_prime_residual(delta, solve_crest(delta).eta0) <= 1e-8


def test_third_equation_holds_on_the_extreme_wave(critical_point):
    cp = critical_point
    assert phi1_prime_residual(cp.delta_c, cp.eta_c0) <= 1e-8


@pytest.mark.parametrize("delta", [1e-3, 0.3, 0.626, DELTA_C, "extreme"])
def test_dx_grid_matches_the_quadrature_oracle(delta, critical_point):
    # eta at x_j against eta0 exp(-z_j^2), z_j the oracle's inverse at x_j;
    # gating x through z = sqrt(ln(eta0/eta_j)) instead would amplify the
    # rounding of eta_j by about eta0/(|kappa0| x_j) next to the crest.
    # Measured: 1.40, 0.62, 1.38, 4.28 and 2.15 eps eta0
    half = _half(delta, critical_point)
    x = _dx_grid(half, 0.01)
    checked = (x <= 0.1) | (np.arange(x.size) % 10 == 0)
    x = x[checked]
    eta = assemble_profile(half, x).eta[x.size - 1:]
    oracle = x_oracle(delta)
    # Newton for z_j starts where the profile's eta puts it
    start = np.sqrt(np.log(half(0.0)[0] / eta))
    error = max(abs(decimal.Decimal(e) - oracle.eta(oracle.z_of_x(a, z)))
                for a, e, z in zip(x.tolist(), eta.tolist(), start.tolist()))
    assert float(error) <= 8 * np.finfo(float).eps * float(oracle.eta0)


def test_quadrature_oracle_is_converged():
    # at the case of the x(z) gate below where it converges slowest, as the
    # crest nears a corner; measured: 4.4e-29 x_end there, at most
    # 6.2e-31 x_end at the other nine
    delta = DELTA_C - 1e-10
    coarse, fine = x_oracle(delta), x_oracle(delta, ORACLE_NODES + 8)
    assert max(abs(a - b) for a, b in zip(coarse.x, fine.x)) <= (
        decimal.Decimal("1e-25") * coarse.x[-1])


def assert_tail_positive_and_decaying(p):
    right = p.eta[p.x > 0.0]
    assert np.all(right > 0.0)
    assert np.all(np.diff(p.eta[p.x >= 0.0]) < 0.0)


@pytest.mark.parametrize("delta", [1e-4, 1e-2, 0.3, 0.55]
                         + [DELTA_C - 10.0 ** -k for k in range(3, 16)])
def test_tail_is_positive_and_strictly_decreasing(delta):
    for dx in (None, 0.01):
        assert_tail_positive_and_decaying(solve_solitary(delta, dx=dx))


@pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.1, 0.3, 0.6])
def test_tail_rate(delta):
    # eta = eta0 exp(-z^2) ~ C exp(-lambda x) as z -> inf, so x ~ z^2/lambda
    # and 2z/(dx/dz) -> lambda = sqrt(15 gamma/(delta^2 (6 c^2 - 1)));
    # by z = 10 the corrections, O(eta), are far below rounding
    c, gamma = crest_init.phase_speed(delta), crest_init.speed_excess(delta)
    lam = math.sqrt(15.0 * gamma / (delta * delta * (6.0 * c * c - 1.0)))
    z = np.array([10.0, 25.0])
    slope = profile_ode._Curve(delta, solve_crest(delta).eta0).at(z)
    rate = 2.0 * z / slope
    np.testing.assert_allclose(rate, lam, rtol=4.5e-16, atol=0.0)
    if delta <= 0.1:
        # lambda = 2 - (19/15) delta^2 + O(delta^4): Laitone's width
        # correction 2 (19/30) (measured: -1.092 and -1.082 delta^4)
        gap = (2.0 - rate) / (delta * delta) - 19.0 / 15.0
        assert np.all(np.abs(gap) <= 1.2 * delta * delta)


def _energy_and_momentum(delta, sign=1.0):
    """(E/delta, P/delta) of the whole line at shallowness delta, the
    model's energy and momentum per unit physical length (x = delta x*/h):

        E = int [(H phi0'^2 + (2/3) H^3 phi0' phi1' + H^5 phi1'^2/5)/2
                 + (2/3) delta^-2 H^3 phi1^2 + eta^2/2] dx,
        P = int eta (phi0' + H^2 phi1' + sign 2 H eta' phi1) dx,

    by Gauss-Legendre on the solver's own panels taken to z = 6.1, where
    eta/eta0 is about 8e-17.  Every integrand is even in x, so the whole
    line is twice the half.
    """
    curve = profile_ode._Curve(delta, solve_crest(delta).eta0)
    panels = profile_ode.solve_ivp(curve.at, 6.1)
    half_width = 0.5 * panels.width[:, None]
    z = panels.start[:, None] + half_width * (profile_ode._NODES + 1.0)
    slope = curve.at(z)
    eta, _, phi1, phi0_x, phi1_x, *_ = curve.columns(z)
    H = 1.0 + eta
    energy = (0.5 * (H * phi0_x ** 2 + (2.0 / 3.0) * H ** 3 * phi0_x * phi1_x
                     + 0.2 * H ** 5 * phi1_x ** 2)
              + (2.0 / 3.0) / (delta * delta) * H ** 3 * phi1 ** 2
              + 0.5 * eta ** 2)
    eta_x = -2.0 * z * eta / slope
    momentum = eta * (phi0_x + H * H * phi1_x + sign * 2.0 * H * eta_x * phi1)
    weight = 2.0 * half_width * profile_ode._WEIGHTS * slope / delta
    return np.sum(weight * energy), np.sum(weight * momentum)


def hamiltonian_residual(delta, sign=1.0):
    """|(E/delta)' + c (P/delta)'| / |(E/delta)'|, d/ddelta by Richardson
    on central differences of step h = 1e-4 delta and 2h."""
    h = 1e-4 * delta

    def central(k):
        (e1, p1), (e0, p0) = (_energy_and_momentum(delta + k * h, sign),
                              _energy_and_momentum(delta - k * h, sign))
        return np.array([e1 - e0, p1 - p0]) / (2.0 * k * h)

    de, dp = (4.0 * central(1) - central(2)) / 3.0
    return abs(de + phase_speed(delta) * dp) / abs(de)


@pytest.mark.parametrize("delta", [0.01, 0.05, 0.2, 0.4, 0.55, 0.6, 0.62])
def test_branch_is_a_critical_curve_of_energy_plus_c_momentum(delta):
    # the model is Hamiltonian, so along the branch dE = -c dP; E and P are
    # the model's, on the solver's phi0', phi1' and phi1, and the reduced
    # system does not enter them.  Measured: 5.9e-13 to 9.6e-13; a central
    # difference alone leaves up to 7.4e-9
    assert hamiltonian_residual(delta) <= 1e-11
    if delta == 0.05:
        # the opposite sign on 2 H eta' phi1 fails (measured: 1.8e-5)
        assert hamiltonian_residual(delta, sign=-1.0) > 1e-6


@settings(max_examples=50, deadline=None)
@given(st.floats(np.log(1e-6), np.log(DELTA_C), exclude_max=True))
def test_profiles_across_the_branch(log_delta):
    delta = min(float(np.exp(log_delta)), DELTA_C)
    eta0 = solve_crest(delta).eta0
    for dx in (None, 0.01):
        p = solve_solitary(delta, dx=dx)
        assert np.array_equal(p.x, -p.x[::-1])
        assert np.array_equal(p.eta, p.eta[::-1])
        assert np.array_equal(p.u, p.u[::-1])
        assert np.array_equal(p.phi1, -p.phi1[::-1])
        assert_tail_positive_and_decaying(p)
        crest = p.eta[p.x == 0.0]
        assert len(crest) == 1 and crest[0] == eta0 and p.eta_max == eta0
        # I1 and I2 at rounding level, within 16 eps of the crest height
        bound = 16 * np.finfo(float).eps * eta0
        assert np.max(np.abs(p.I1)) <= bound
        assert np.max(np.abs(p.I2)) <= bound
    assert phi1_prime_residual(delta, eta0, n=100) <= 1e-8


def test_dense_interpolant_matches_samples():
    half = integrate_half(solve_crest(0.5))
    mid = 0.5 * (half.x[10] + half.x[11])
    eta_mid = half(mid)[0]
    eta = half(half.x)[0]
    assert eta[11] < eta_mid < eta[10]


@pytest.mark.parametrize("delta", [1e-4, 1e-3, 0.1, 0.3, 0.55, 0.62, 0.626,
                                   DELTA_C - 1e-10, DELTA_C, "extreme"])
def test_panel_table_matches_composite_quadrature(delta, critical_point):
    # against the 40-digit composite Gauss-Legendre rule of x_oracle, at its
    # 289 panel edges; measured: at most 2.43 eps x_end, at delta = 1e-3
    half = _half(delta, critical_point)
    oracle = x_oracle(delta)
    x, _ = half.along_z(np.array(ORACLE_EDGES))
    error = max(abs(decimal.Decimal(a) - b) for a, b in zip(x.tolist(),
                                                             oracle.x))
    assert float(error) <= 4 * np.finfo(float).eps * half.x[-1]
    # the samples are the table at z = 0, every node and Z_END, and
    # assemble_profile needs x exactly 0.0 at the crest
    assert np.array_equal(half.x, half.along_z(half._z)[0])
    assert half.x[0] == 0.0 and x[0] == 0.0


@pytest.mark.parametrize("delta", [1e-4, 0.3, 0.62, DELTA_C - 1e-12,
                                   "extreme"])
def test_chebyshev_table_is_the_legendre_antiderivative(delta, critical_point):
    # x(z) as numpy's legint and legval give it from the Legendre
    # coefficients of each panel, which panel acceptance uses
    half = _half(delta, critical_point)
    nodes = half._z[1:-1].reshape(-1, profile_ode.PANEL_NODES)
    g = legendre.legint(half._curve.at(nodes) @ profile_ode._TO_COEF,
                        lbnd=-1.0, axis=1).T
    z = np.concatenate([np.linspace(0.0, profile_ode.Z_END, 4097),
                        half._z[1:-1]])
    i = np.maximum(np.searchsorted(half._start, z, side="right") - 1, 0)
    s = (z - half._start[i]) / half._half_width[i] - 1.0
    x = half._x_start[i] + half._half_width[i] * (
        legendre.legval(s, g[:, i], tensor=False)
        - legendre.legval(-1.0, g[:, i], tensor=False))
    assert np.max(np.abs(half.along_z(z)[0] - x)) <= (
        4.0 * np.spacing(half.x[-1]))


def _sweeps(solve, monkeypatch):
    """The calls of _Curve.at in solve() after the quadrature's, one per
    level: the slopes of the Hermite start at the samples, then one per
    Newton sweep."""
    calls, levels = [], []
    at, solve_ivp = profile_ode._Curve.at, profile_ode.solve_ivp

    def counting_at(self, z):
        calls.append(np.size(z))
        return at(self, z)

    def counting_solve(fun, z_end):
        before = len(calls)
        panels = solve_ivp(fun, z_end)
        levels.append(len(calls) - before)
        return panels

    monkeypatch.setattr(profile_ode._Curve, "at", counting_at)
    monkeypatch.setattr(profile_ode, "solve_ivp", counting_solve)
    solve()
    assert len(levels) == 1
    return len(calls) - levels[0]


@pytest.mark.parametrize("delta", [1e-4, 0.01, 0.3, 0.55, 0.62, 0.626]
                         + [DELTA_C - 10.0 ** -k for k in (3, 6, 10)])
def test_dx_resampling_takes_two_newton_sweeps(delta, monkeypatch):
    # the slope pass, then two Newton sweeps from the Hermite start
    assert _sweeps(lambda: solve_solitary(delta, dx=0.01), monkeypatch) == 3


@pytest.mark.parametrize("delta", [1e-4, 0.3, 0.626, DELTA_C - 1e-10,
                                   "extreme"])
def test_native_grid_takes_one_newton_sweep(delta, monkeypatch,
                                            critical_point):
    # the slope pass, then one sweep whose every step is exactly 0
    assert _sweeps(lambda: assemble_profile(_half(delta, critical_point)),
                   monkeypatch) == 2


@pytest.mark.parametrize("delta", [1e-4, 0.3, 0.626, "extreme"])
def test_along_z_eta_is_the_curve_eta_bit_for_bit(delta, critical_point):
    # along_z evaluates eta alone, by the formula that at() uses
    half = _half(delta, critical_point)
    z = np.concatenate([np.linspace(0.0, profile_ode.Z_END, 4097),
                        half._z])
    assert np.array_equal(half.along_z(z)[1], half._curve.columns(z)[0])


def _depth(half):
    """Halvings from [0, Z_END] down to the narrowest panel of a half."""
    return round(math.log2(profile_ode.Z_END
                           / (2.0 * half._half_width.min())))


@pytest.mark.parametrize("delta", [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.6]
                         + [DELTA_C - 10.0 ** -k for k in range(1, 17)]
                         + [DELTA_C, "extreme"])
def test_panel_refinement_stays_well_below_its_cap(delta, critical_point):
    # measured: depth 2 for small delta, 14 at delta_c
    assert _depth(_half(delta, critical_point)) <= 16


def test_panel_cap_is_a_step_size_underflow(monkeypatch):
    monkeypatch.setattr(profile_ode, "PANEL_MAX_DEPTH", 3)
    with pytest.raises(StepSizeUnderflow, match="unresolved"):
        integrate_half(solve_crest(0.6))
    assert cli.run(["compare-kdv", "--delta", "0.6"]) == 1


def test_non_finite_slope_is_a_step_size_underflow():
    with pytest.raises(StepSizeUnderflow, match="not finite"):
        profile_ode.solve_ivp(lambda z: np.where(z > 1.0, np.nan, 1.0), 2.0)


@pytest.mark.parametrize("delta", [0.3, 0.626])
def test_interpolant_value_does_not_depend_on_the_batch(delta):
    # a point's bits must not depend on the other points of the call
    profile = solve_solitary(delta, dx=0.01)
    interpolant, xs = profile.interpolant, profile.x[profile.x >= 0.0]
    zs = np.linspace(0.0, profile_ode.Z_END, 4097)
    for call, grid in ((interpolant, xs), (interpolant.along_z, zs)):
        batch = call(grid)
        differ = [k for k in range(len(grid))
                  if not all(np.array_equal(a[k:k + 1], b)
                             and np.array_equal(a[k], c)
                             for a, b, c in zip(batch, call(grid[k:k + 1]),
                                                call(float(grid[k]))))]
        assert differ == []


@pytest.mark.parametrize("delta", [0.3, "extreme"])
def test_interpolant_rejects_points_off_the_half_profile(delta, critical_point):
    half = _half(delta, critical_point)
    x_end = half.x[-1]
    for x in (-0.1, -3.0, np.nextafter(x_end, np.inf), x_end + 1.0, np.nan,
              [0.0, np.nan]):
        with pytest.raises(ValueError, match="x must lie in") as raised:
            half(x)
        assert f"[0, {float(x_end)!r}]" in str(raised.value)
    for z in (-1e-3, np.nextafter(profile_ode.Z_END, np.inf), 10.0, np.nan):
        with pytest.raises(ValueError, match="z must lie in"):
            half.along_z(z)
    # at the ends of the range every column is the closed forms at the
    # first and last sample z, bit for bit
    columns = half._curve.columns(half._z)
    for k in (0, -1):
        assert [float(a) for a in half(half.x[k])] == [
            float(a[k]) for a in columns]


@pytest.mark.parametrize("delta", [1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.3,
                                   0.5, 0.6, 0.62])
def test_crest_curvature_matches_decimal_oracle(delta):
    # measured: at most 6 ulp; c eta0 + H u0 cost 5e15 ulp at delta = 1e-8
    kappa0 = crest_curvature(solve_crest(delta))
    error = decimal.Decimal(kappa0) - decimal_crest_curvature(delta)
    assert abs(float(error)) <= 8 * math.ulp(kappa0)


@pytest.mark.parametrize("delta", [0.6263349307245, DELTA_C])
def test_crest_curvature_matches_decimal_oracle_next_to_critical(delta):
    # d0 = 6Hv^2 - 3vw - H^2 cancels to an error of about eps/d0; measured
    # 4.3 and 4.2 eps/d0.  kappa0 ~ 1/d0 also amplifies the crest height's
    # error, so a crest 1.75e6 ulp off at DELTA_C moves kappa0 by 6%
    crest = solve_crest(delta)
    bound = 16 * np.finfo(float).eps / crest_denominator(crest)
    exact = decimal_crest_curvature(delta)
    error = decimal.Decimal(crest_curvature(crest)) - exact
    assert abs(float(error / exact)) <= bound


def test_crest_curvature_diverges_at_critical_point():
    degenerate = CrestState(delta=0.626334930724562, c=1.261530296963828,
                            eta0=0.687926333843714, u0=-0.797196341205457)
    with pytest.raises(DenominatorVanished):
        crest_curvature(degenerate)


def test_each_integration_calls_module_solve_ivp_once(monkeypatch, critical_point):
    # perfbench's tracer wraps profile_ode.solve_ivp and reads nfev and t
    # from its result, so the integrator must look the name up at call time
    solves = (lambda: solve_solitary(0.45),
              lambda: extreme_profile(critical_point))
    plain = [profile_csv_text(solve()) for solve in solves]
    results = []
    original = profile_ode.solve_ivp

    def counting(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(profile_ode, "solve_ivp", counting)
    for solve, text in zip(solves, plain):
        before = len(results)
        assert profile_csv_text(solve()) == text
        assert len(results) == before + 1
        assert results[-1].nfev > 0 and len(results[-1].t) > 1
