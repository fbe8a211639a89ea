import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikwave import (DenominatorVanished, IntegratorConfig, crest_curvature,
                    denominator, extreme_profile, identity_residuals,
                    integrate_half, reconstruct_potentials, rhs, solve_crest,
                    solve_solitary)
from ikwave import profile_ode
from ikwave.cli import run
from ikwave.crest_init import CrestState
from ikwave.output import profile_csv_text
from ikwave.solitary_profile import assemble_profile


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(tail_eps=0.0)
    cfg = IntegratorConfig()
    assert cfg.rel_tol == 1e-10 and cfg.abs_tol == 1e-12
    assert cfg.tail_eps == 1e-9
    assert profile_ode.D_MIN == 1e-13 and profile_ode.X_SPAN == 30.0


def test_rhs_raises_on_vanishing_denominator():
    # the degenerate crest state of the extreme wave
    state = (0.687926333843714, -0.797196341205457, 0.0)
    c = 1.261530296963828
    delta = 0.626334930724562
    assert abs(denominator(state, c, delta)) < 1e-10
    with pytest.raises(DenominatorVanished):
        rhs(state, c, delta)


def test_identities_vanish_at_solved_crest():
    crest = solve_crest(0.55)
    I1, I2 = identity_residuals((crest.eta0, crest.u0, 0.0), crest.c, crest.delta)
    assert abs(I1) <= 1e-12
    assert abs(I2) <= 1e-11


def test_scalar_kernel_calls_return_python_floats():
    state = (np.float64(0.3), np.float64(-0.2), np.float64(0.01))
    values = (denominator(state, 1.2, 0.5),
              *identity_residuals(state, 1.2, 0.5),
              *reconstruct_potentials(state, 1.2),
              *rhs(state, 1.2, 0.5),
              crest_curvature(solve_crest(0.55)))
    assert all(type(v) is float for v in values)


def test_profile_fields_are_the_kernel_on_its_samples(profile_cache):
    p = profile_cache(0.55)
    state = (p.eta, p.u, p.phi1)
    assert np.array_equal(p.d, denominator(state, p.c, p.delta))
    I1, I2 = identity_residuals(state, p.c, p.delta)
    assert np.array_equal(p.I1, I1) and np.array_equal(p.I2, I2)
    phi0p, phi1p = reconstruct_potentials(state, p.c)
    assert np.array_equal(p.phi0_prime, phi0p)
    assert np.array_equal(p.phi1_prime, phi1p)


def test_scalar_kernel_calls_match_array_entries(profile_cache):
    p = profile_cache(0.45)
    state = (p.eta, p.u, p.phi1)
    arrays = (denominator(state, p.c, p.delta),
              *identity_residuals(state, p.c, p.delta),
              *reconstruct_potentials(state, p.c))
    for i, sample in enumerate(zip(p.eta.tolist(), p.u.tolist(),
                                   p.phi1.tolist())):
        scalars = (denominator(sample, p.c, p.delta),
                   *identity_residuals(sample, p.c, p.delta),
                   *reconstruct_potentials(sample, p.c))
        assert scalars == tuple(a[i] for a in arrays), i


def test_potential_reconstruction_recovers_velocity():
    # u = phi0' + H^2 phi1' is an algebraic identity of the reconstruction
    rng = np.random.default_rng(7)
    for _ in range(50):
        eta, u, c = rng.uniform(-0.5, 0.9), rng.uniform(-1, 1), rng.uniform(0.9, 1.4)
        phi0p, phi1p = reconstruct_potentials((eta, u, 0.1), c)
        H = 1.0 + eta
        assert phi0p + H * H * phi1p == pytest.approx(u, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.4, 0.9), st.floats(-0.9, 0.4), st.floats(-0.3, 0.3),
       st.floats(1.0, 1.3), st.floats(0.2, 0.7))
def test_vector_field_mirror_equivariance(eta, u, phi1, c, delta):
    # flipping phi1 flips (eta', u') and preserves phi1': the symmetry that
    # makes mirrored half-profiles exact solutions
    d = denominator((eta, u, phi1), c, delta)
    if abs(d) < 1e-6:
        return
    a = rhs((eta, u, phi1), c, delta)
    b = rhs((eta, u, -phi1), c, delta)
    assert b[0] == pytest.approx(-a[0], rel=1e-12, abs=1e-300)
    assert b[1] == pytest.approx(-a[1], rel=1e-12, abs=1e-300)
    assert b[2] == pytest.approx(a[2], rel=1e-12, abs=1e-300)


def test_half_trajectory_conserves_identities():
    half = integrate_half(solve_crest(0.45))
    p = assemble_profile(half.delta, half.c, half.x, half.eta, half.u,
                         half.phi1, kappa0=None, stop=half.stop,
                         interpolant=half.interpolant)
    assert np.max(np.abs(p.I1)) <= 1e-8
    assert np.max(np.abs(p.I2)) <= 1e-8
    assert half.stop in ("tail", "floor")
    assert np.all(np.diff(half.x) > 0.0)
    assert np.all(p.d > 0.0)
    # surface decays monotonically from the crest on the stored samples
    assert np.all(np.diff(half.eta) < 0.0)
    assert half.eta[-1] < 1e-5


def test_achievable_tail_threshold_reached():
    cfg = IntegratorConfig(tail_eps=2e-6)
    half = integrate_half(solve_crest(0.3), cfg)
    assert half.stop == "tail"
    norm = np.sqrt(half.eta[-1] ** 2 + half.u[-1] ** 2 + half.phi1[-1] ** 2)
    assert norm <= 2e-6 * 1.01


def test_x_max_stop_sets_warning(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(profile_ode, "X_SPAN", 2.0)
    half = integrate_half(solve_crest(0.45))
    assert half.stop == "x_max"
    assert half.x[-1] == pytest.approx(2.0)
    assert run(["solve", "--delta", "0.45",
                "--out", str(tmp_path / "wave.csv")]) == 0
    captured = capsys.readouterr()
    assert "stop = x_max" in captured.out
    assert "warning: trajectory truncated" in captured.err


def test_floor_stop_truncates_at_norm_minimum():
    half = integrate_half(solve_crest(0.6))
    if half.stop != "floor":
        pytest.skip("tail threshold reached directly")
    norms = np.sqrt(half.eta ** 2 + half.u ** 2 + half.phi1 ** 2)
    assert np.argmin(norms) == len(norms) - 1


def test_dense_interpolant_matches_samples():
    half = integrate_half(solve_crest(0.5))
    mid = 0.5 * (half.x[10] + half.x[11])
    eta_mid = half.interpolant(mid)[0]
    assert half.eta[11] < eta_mid < half.eta[10]


def test_crest_curvature_against_reference():
    # -kappa(0) column of the crest sweep
    for delta, neg_kappa in [(0.6, 2.34087), (0.62, 4.85676), (0.625, 10.4536)]:
        crest = solve_crest(delta)
        assert -crest_curvature(crest) == pytest.approx(neg_kappa, rel=1e-4)


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
