import numpy as np
import pytest

from ikwave import (compare_kdv, crest_curvature, diagnostics_table,
                    dimensionalize, extreme_profile, kdv_profile,
                    solve_solitary)
from ikwave import solitary_profile
from ikwave.crest_init import DX_MIN
from ikwave.solitary_profile import (assemble_profile, integrate_half,
                                     solve_crest)
from oracles import DELTA_C


def test_grid_and_peak_shape(profile_cache):
    p = profile_cache(0.45)
    assert np.all(np.diff(p.x) > 0.0)
    center = len(p.x) // 2
    assert p.x[center] == 0.0
    assert p.eta[center] == p.eta_max == np.max(p.eta)
    assert p.phi1[center] == 0.0
    assert p.kappa0 < 0.0
    assert np.all(p.d > 0.0)


def test_uniform_resampling():
    p = solve_solitary(0.5, dx=0.05)
    steps = np.diff(p.x)
    np.testing.assert_allclose(steps, 0.05, rtol=1e-12)
    # interpolation must not degrade the conserved identities: they stay
    # at rounding level, within 16 eps of the crest height
    bound = 16 * np.finfo(float).eps * p.eta_max
    assert np.max(np.abs(p.I1)) <= bound
    assert np.max(np.abs(p.I2)) <= bound
    with pytest.raises(ValueError):
        solve_solitary(0.5, dx=-0.1)


@pytest.mark.parametrize("delta, dx, name", [
    (float("nan"), None, "delta"), (float("inf"), None, "delta"),
    (0.0, None, "delta"), (-0.3, None, "delta"), (0.3, float("nan"), "dx"),
    (0.3, float("inf"), "dx"), (0.3, 0.0, "dx"),
])
def test_bad_delta_or_dx_raises_value_error(delta, dx, name):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        solve_solitary(delta, dx=dx)


@pytest.mark.parametrize("dx", [1e-320, 1e-9, 5e-5])
def test_dx_below_minimum_raises_before_solving(dx, monkeypatch):
    def no_solve(delta):
        raise AssertionError("solved despite a bad dx")
    monkeypatch.setattr(solitary_profile, "solve_crest", no_solve)
    with pytest.raises(ValueError, match=f"at least {DX_MIN!r}"):
        solve_solitary(0.3, dx=dx)


def test_assembly_needs_a_half_grid_from_the_crest():
    # WaveProfile promises a strictly increasing grid: a half grid must be
    # 1-D, not empty, start at the crest and increase strictly
    half = integrate_half(solve_crest(0.3))
    for x in (half.x[1:], 0.0, [], [[0.0, 0.1], [0.2, 0.3]], [0.0, 0.5, 0.2],
              [0.0, 0.0, 0.1]):
        with pytest.raises(ValueError, match="x = 0"):
            assemble_profile(half, x)


def test_dx_minimum_is_accepted():
    assert DX_MIN == 1e-4
    p = solve_solitary(0.3, dx=DX_MIN)
    np.testing.assert_allclose(np.diff(p.x), DX_MIN, rtol=1e-9)


def test_dx_grid_stays_inside_the_half_profile():
    # for some cell counts n, dx = x_end / n has x_end / dx == n but
    # n * dx > x_end by an ulp: that point is dropped rather than sent to
    # the interpolant, which rejects it
    x_end = solve_solitary(0.3).x[-1]
    cells = [n for n in range(1, 200)
             if np.floor(x_end / (x_end / n)) * (x_end / n) > x_end]
    assert cells
    for n in cells[:3]:
        p = solve_solitary(0.3, dx=x_end / n)
        assert p.x[-1] < x_end and len(p.x) == 2 * n - 1


BAD_POSITIVE = [float("nan"), float("inf"), 0.0, -1.0]


# 1e-160 squared is subnormal, which check_delta, the rule of solve_crest,
# rejects too
@pytest.mark.parametrize("delta", BAD_POSITIVE + [1e-160])
def test_kdv_profile_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        kdv_profile(delta, np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("bad", BAD_POSITIVE)
def test_dimensionalize_rejects_bad_depth_or_gravity(bad, profile_cache):
    p = profile_cache(0.3)
    with pytest.raises(ValueError, match="depth must be positive and finite"):
        dimensionalize(p, depth=bad, gravity=9.81)
    with pytest.raises(ValueError,
                       match="gravity must be positive and finite"):
        dimensionalize(p, depth=1.0, gravity=bad)


def test_kdv_profile_values():
    x = np.array([0.0, 1.0, 20.0])
    vals = kdv_profile(0.3, x)
    assert vals[0] == pytest.approx(0.12, abs=1e-15)
    assert vals[1] == pytest.approx(0.12 / np.cosh(1.0) ** 2, abs=1e-15)
    assert vals[2] < 1e-16
    with pytest.raises(ValueError):
        kdv_profile(-0.1, x)


def test_kdv_profile_is_zero_where_cosh_overflows():
    # cosh^2 x overflows from |x| of about 355 on, and cosh x itself from
    # about 710; pyproject's filterwarnings fails the test on either warning
    assert kdv_profile(0.3, [400.0, 800.0]).tolist() == [0.0, 0.0]


def test_taller_than_soliton_at_large_delta(profile_cache):
    # at delta=0.6 the computed height 0.581258 well exceeds the soliton 0.48
    p = profile_cache(0.6)
    assert compare_kdv(p) >= 0.1
    assert p.eta_max > (4.0 / 3.0) * 0.36


def test_kdv_error_fourth_order_band(profile_cache):
    # for delta <= 0.1 the sup of |eta - eta_kdv| sits at the crest, so
    # compare_kdv/delta^4 = (eta0 - (4/3) delta^2)/delta^4, which the crest
    # series (test_branch_structure) puts at 8/15 + (16/75) delta^2
    # + (16/45) delta^4 + ...; the rounding of eta0 adds about 2 eps/delta^2
    eps = np.finfo(float).eps
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        ratio = compare_kdv(profile_cache(delta)) / delta ** 4
        gap = abs(ratio - (8.0 / 15.0 + (16.0 / 75.0) * delta ** 2))
        bound = 2.0 * (16.0 / 45.0) * delta ** 4 + 2.0 * eps / delta ** 2
        assert gap <= bound, delta


@pytest.mark.parametrize("delta", [1e-6, 1e-4, 0.1, 0.45, 0.626, DELTA_C])
@pytest.mark.parametrize("dx", [0.002, 0.01, 0.05])
def test_compare_kdv_does_not_depend_on_the_grid(profile_cache, delta, dx):
    # the sup is taken on one z grid through the interpolant, so the samples
    # of the profile, whatever dx made them, never set it
    assert (compare_kdv(solve_solitary(delta, dx=dx))
            == compare_kdv(profile_cache(delta)))


def laitone_eta(delta, x):
    """Laitone's second-order solitary wave (J. Fluid Mech. 9, 1960),
    eps S - (3/4) eps^2 S T^2 with S = sech^2(kappa x/delta) and
    T = tanh(kappa x/delta), in the profile's variables."""
    eps = (4.0 / 3.0) * delta ** 2 + (8.0 / 15.0) * delta ** 4
    arg = np.sqrt(0.75 * eps) * (1.0 - 0.625 * eps) * x / delta
    S, T = 1.0 / np.cosh(arg) ** 2, np.tanh(arg)
    return eps * S - 0.75 * eps * eps * S * T * T


@pytest.mark.parametrize("delta", [1e-1, 3e-2, 1e-2, 1e-3])
@pytest.mark.parametrize("dx", [None, 0.01])
def test_shape_off_the_crest_is_laitones_to_second_order(delta, dx):
    # the whole shape, not the crest height alone: the sup of the delta^6
    # remainder sits on the flank.  Measured: 0.8479, 0.8378, 0.8369 and
    # 0.8364 on the native grid, at most 0.8483 on the dx grid, at
    # |x| = 0.85 to 0.87
    p = solve_solitary(delta, dx=dx)
    gap = np.abs(p.eta - laitone_eta(delta, p.x)) / delta ** 6
    assert gap.max() <= 0.9
    assert abs(p.x[np.argmax(gap)]) > 0.5


def test_diagnostics_table_keeps_going_after_failures():
    rows = diagnostics_table([0.7, 0.6, 2.0])
    assert [r.delta for r in rows] == [0.7, 0.6, 2.0]
    assert rows[0].error is not None and rows[0].eta0 is None
    assert rows[1].error is None
    assert rows[2].error is not None


def test_diagnostics_table_raises_on_a_delta_check_delta_rejects():
    # only an IkwaveError becomes a row: check_delta's ValueError propagates
    with pytest.raises(ValueError, match="got -1.0"):
        diagnostics_table([0.3, -1.0, 0.7])


def test_diagnostics_table_empty():
    assert diagnostics_table([]) == []


def test_dimensionalize_scalings(profile_cache):
    p = profile_cache(0.3)
    dp = dimensionalize(p, depth=2.0, gravity=9.81)
    speed = np.sqrt(9.81 * 2.0)
    np.testing.assert_allclose(dp.x, (2.0 / 0.3) * p.x, rtol=1e-15)
    np.testing.assert_allclose(dp.eta, 2.0 * p.eta, rtol=1e-15)
    np.testing.assert_allclose(dp.u, speed * p.u, rtol=1e-15)
    assert dp.c == pytest.approx(p.c * speed, rel=1e-15)
    assert dp.amplitude == pytest.approx(2.0 * p.eta_max, rel=1e-15)


def test_dimensional_slope_chain_rule(profile_cache):
    # d(eta*)/d(x*) = delta * d(eta)/dx: check via matching difference quotients
    p = profile_cache(0.3)
    dp = dimensionalize(p, depth=1.0, gravity=1.0)
    i = len(p.x) // 2 + 5
    nd = (p.eta[i + 1] - p.eta[i]) / (p.x[i + 1] - p.x[i])
    dim = (dp.eta[i + 1] - dp.eta[i]) / (dp.x[i + 1] - dp.x[i])
    assert dim == pytest.approx(p.delta * nd, rel=1e-12)


def test_dimensional_speed_matches_amplitude_estimate(profile_cache):
    # c*sqrt(gh) vs (1 + a/2h)sqrt(gh) agree to fourth order in delta
    p = profile_cache(0.1)
    dp = dimensionalize(p, depth=1.0, gravity=1.0)
    estimate = 1.0 + dp.amplitude / 2.0
    assert abs(dp.c - estimate) <= 1.0 * 0.1 ** 4


@pytest.mark.parametrize("dx", [None, 0.01])
def test_profile_at_1e_75_keeps_every_value_normal(dx):
    p = solve_solitary(1e-75, dx=dx)
    tiny = np.finfo(float).tiny
    for a in (p.eta, p.u, p.phi0_prime, p.phi1_prime, p.d):
        assert (np.abs(a) >= tiny).all()
    assert (np.abs(p.phi1[p.x != 0.0]) >= tiny).all()


@pytest.mark.parametrize("delta", [1e-75, 1e-8, 0.3, 0.62, DELTA_C - 1e-12,
                                   DELTA_C])
@pytest.mark.parametrize("dx", [None, 0.01])
def test_kappa0_is_the_crest_curvature_of_a_smooth_crest(delta, dx,
                                                         critical_point):
    # assemble_profile works kappa0 out from the half profile: the crest's
    # curvature where dx/dz(0) > 0, and None at the extreme wave's corner
    p = solve_solitary(delta, dx=dx)
    crest = solve_crest(delta)
    assert p.eta_max == crest.eta0
    assert p.kappa0 == crest_curvature(crest)
    assert not p.interpolant._corner[0]
    extreme = extreme_profile(critical_point)
    assert extreme.interpolant._corner[0] and extreme.kappa0 is None


# h = 1e-300 is the smallest of these depths that leaves every value normal
@pytest.mark.filterwarnings("error")
def test_dimensionalize_small_normal_scales(profile_cache):
    p = profile_cache(0.3)
    dp = dimensionalize(p, depth=1e-300, gravity=9.81)
    tiny = np.finfo(float).tiny
    assert all((np.abs(a) >= tiny).all() for a in (dp.eta, dp.u))
    assert (np.abs(dp.x[p.x != 0.0]) >= tiny).all()
    assert dp.amplitude == 1e-300 * p.eta_max


@pytest.mark.filterwarnings("error")
def test_dimensionalize_large_finite_scales(profile_cache):
    p = profile_cache(0.6)
    dp = dimensionalize(p, depth=1e150, gravity=1e150)
    assert all(np.isfinite(a).all() for a in (dp.x, dp.eta, dp.u))
    assert np.isfinite(dp.c) and dp.amplitude == 1e150 * p.eta_max
