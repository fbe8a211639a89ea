import decimal
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikwave import (NoSolitaryRoot, crest_curvature, crest_init, phase_speed,
                    profile_ode, solve_crest, solve_critical)
from ikwave.crest_init import DX_MIN, check_dx, crest_denominator
from oracles import decimal_crest_eta0, quartic_coeffs


def test_phase_speed():
    assert phase_speed(0.3) == pytest.approx(1.06, abs=1e-15)


def test_quartic_coefficients_at_unit_speed():
    # c=1 collapses the quartic to u^2(7u^2 + 42u + 78) + 40u
    assert quartic_coeffs(1.0) == pytest.approx([7.0, 42.0, 78.0, 40.0, 0.0])


def test_quartic_root_at_unit_speed_is_rest_state():
    # u=0 is the (double, with the constant term) rest-state root at c=1
    coeffs = quartic_coeffs(1.0)
    assert np.polyval(coeffs, 0.0) == 0.0


def test_crest_satisfies_both_identities():
    for delta in (0.1, 0.3, 0.5, 0.55, 0.6, 0.62, 0.626):
        crest = solve_crest(delta)
        c, u, eta = crest.c, crest.u0, crest.eta0
        # first crest identity: eta = -(cu + u^2/2)
        assert eta == pytest.approx(-(c * u + 0.5 * u * u), abs=1e-12)
        *_, I1, I2 = profile_ode._Curve(delta, eta).columns(np.zeros(1))
        assert max(abs(float(I1[0])), abs(float(I2[0]))) <= 1e-12
        # the quartic itself
        res = np.polyval(quartic_coeffs(c), u)
        assert abs(res) <= 1e-9
        # admissible branch: positive denominator, depressed fluid moving backward
        assert crest_denominator(crest) > 0.0
        assert -1.0 < u < 0.0
        assert 0.0 < eta < 1.0


def test_crest_state_holds_python_floats():
    crest = solve_crest(np.float64(0.6))
    values = (crest.delta, crest.c, crest.eta0, crest.u0)
    assert all(type(v) is float for v in values)


# the last five lie within 1e-12 of delta_c, the float delta_c included,
# where the root is nearly double: a float F fixes it only to about 1e-10
@pytest.mark.parametrize("delta", [
    1e-4, 1e-3, 0.3, 0.6, 0.62, 0.625, 0.626, 0.6263, 0.6263349,
    0.6263349306142261, 0.626334930724, 0.6263349307245, 0.6263349307245623,
    0.6263349307245629])
def test_crest_matches_decimal_quartic_root(delta):
    # correctly rounded: within half a unit in the last place, compared
    # exactly
    eta0 = solve_crest(delta).eta0
    exact = decimal_crest_eta0(delta)
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        assert 2 * abs(decimal.Decimal(eta0) - exact) <= decimal.Decimal(
            math.ulp(eta0))


# at 40 digits the crest Newton ends on its F <= 0 exit after one step for
# each delta here but 1e-8, which takes two
@pytest.mark.parametrize("delta", [1e-8, 1e-20, 1e-79, 1e-100, 1.5e-154])
def test_tiny_delta_has_a_crest(delta):
    crest = solve_crest(delta)
    assert crest.eta0 / ((4.0 / 3.0) * delta * delta) == pytest.approx(1.0, rel=1e-15)
    assert crest.u0 == pytest.approx(-crest.eta0, rel=1e-15)
    # the KdV curvature, though w0 = eta0 W0 underflows below 1e-77
    kappa0 = crest_curvature(crest)
    assert abs(kappa0 / (-(8.0 / 3.0) * delta * delta) - 1.0) <= (
        2 * np.finfo(float).eps)


@pytest.mark.parametrize("delta", [1.4e-154, 1e-200, 5e-324])
def test_delta_with_subnormal_square_raises_value_error(delta):
    assert delta * delta < sys.float_info.min
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        solve_crest(delta)


def test_check_dx_accepts_its_minimum():
    assert check_dx(DX_MIN) == DX_MIN


def test_no_root_beyond_critical_shallowness():
    for delta in (0.6264, 0.63, 0.65, 0.7, 1.0):
        with pytest.raises(NoSolitaryRoot):
            solve_crest(delta)


def test_error_message_names_the_critical_value():
    # the last float solve_crest solves, to every digit
    with pytest.raises(NoSolitaryRoot,
                       match=re.escape(repr(solve_critical().delta_c))):
        solve_crest(0.7)


def test_crest_newton_settles_within_31_steps(monkeypatch):
    # CREST_MAX_ITER's comment as a gate: at the last float of the branch,
    # next to the double root, Newton from t = 0 takes exactly 31 steps
    delta = solve_critical().delta_c
    monkeypatch.setattr(crest_init, "CREST_MAX_ITER", 31)
    assert solve_crest(delta).eta0 == pytest.approx(0.687926, abs=1e-6)
    monkeypatch.setattr(crest_init, "CREST_MAX_ITER", 30)
    with pytest.raises(NoSolitaryRoot) as exc:
        solve_crest(delta)
    assert str(exc.value) == ("crest Newton did not settle in 30 steps at "
                              "delta=0.6263349307245629")


def test_wave_height_monotone_in_delta():
    heights = [solve_crest(d).eta0 for d in np.linspace(0.05, 0.62, 15)]
    assert all(b > a for a, b in zip(heights, heights[1:]))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.02, max_value=0.626))
def test_crest_admissible_across_range(delta):
    crest = solve_crest(delta)
    scale = max(abs(c) for c in quartic_coeffs(crest.c))
    assert abs(np.polyval(quartic_coeffs(crest.c), crest.u0)) <= 1e-9 * scale
    assert 1.0 + crest.eta0 > 0.0
    assert crest.c + crest.u0 > 0.0
