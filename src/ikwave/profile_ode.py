"""Reduced first-order system for symmetric solitary-wave profiles.

State (eta, u, phi1) with H = 1 + eta, v = c + u, w = c*eta + H*u:

    eta'  =  (6Hw + 10H^2 v) phi1 / (delta^2 d),
    u'    = -(18w(2Hv - w) + 10H^3(1 + 4 delta^-2 H phi1^2)) phi1 / (delta^2 H d),
    phi1' =  (3/(2H^3)) w,

    d = 6Hv^2 - 3vw - H^2 (1 + 4 delta^-2 H phi1^2).

Two identities hold along every solution and act as exact first integrals:

    I1 = cu + eta + u^2/2 + 2 delta^-2 H^2 phi1^2,
    I2 = eta^2 - Hu^2 + 2uw - (6/(5H)) w^2 + (4/3) delta^-2 H^3 phi1^2.

The surface potentials are recovered from the 2x2 solve

    (phi0', phi1')^T = (1/((2/3)H^3)) (-H^2(c eta + (1/3)Hu), c eta + Hu)^T.

A solitary wave lies on the curve I1 = I2 = 0 (crest_init), where u is a
closed form in eta and so is phi1: with W = w/eta, W0 its crest value and
m = cu + eta + u^2/2, both roots of m are factored out,

    -m = (3/(2H^2)) eta^2 (eta0 - eta) K,
    K  = 1 + (W + W0) A / (5B),
    A  = (8/5) W0^2 + 3 + 2 gamma - eta - eta0,   B = (8/5) eta (W + W0) + 2c.

Putting eta = eta0 exp(-z^2), E = -expm1(-z^2)/z^2 (E(0) = 1) and
R = sqrt(0.75 eta0 E K), I1 = 0 gives phi1 = -delta eta z R / H^2, and eta'
gives the one quantity left to integrate,

    dx/dz = 2 delta H^2 d / ((6Hw + 10H^2 v) R),

smooth and positive on [0, Z_END] for every delta below the critical value.
At the critical value K and d vanish together at the crest; K is clamped at 0
and dx/dz is 0 where R = 0, so the corner crest of the extreme wave needs no
special start.
"""

import math
from dataclasses import dataclass

import numpy as np

from .crest_init import CrestState, curve_w, phase_speed, speed_excess
from .errors import DenominatorVanished, StepSizeUnderflow

# |d| at or below which the reduced system counts as degenerate
D_MIN = 1e-13
# RK45 relative and absolute tolerances of the x(z) quadrature
REL_TOL = 1e-10
ABS_TOL = 1e-12
# each half profile ends where eta/eta0 = TAIL_REL, at z = Z_END
TAIL_REL = 1e-5
Z_END = math.sqrt(math.log(1.0 / TAIL_REL))
# Newton sweeps that invert x(z) stop after a step of at most Z_TOL, which
# leaves an error of order Z_TOL^2 by their quadratic convergence
Z_TOL = 1e-10
NEWTON_MAX_SWEEPS = 50


def _unpack(state):
    """(eta, u, phi1) as Python floats, or as float arrays for array input."""
    eta, u, phi1 = state
    if np.ndim(eta) == 0:
        return float(eta), float(u), float(phi1)
    return (np.asarray(eta, dtype=float), np.asarray(u, dtype=float),
            np.asarray(phi1, dtype=float))


def _terms(eta, u, phi1, c, delta):
    """H, v, w and the denominator d at a state."""
    H = 1.0 + eta
    v = c + u
    w = c * eta + H * u
    q = 4.0 * H * phi1 * phi1 / (delta * delta)
    return H, v, w, 6.0 * H * v * v - 3.0 * v * w - H * H * (1.0 + q)


def denominator(state, c, delta):
    """Denominator d of the reduced system; vanishes at the extreme crest.

    Scalars or arrays.
    """
    return _terms(*_unpack(state), c, delta)[-1]


def identity_residuals(state, c, delta):
    """(I1, I2); both vanish on exact solutions.

    Scalars or arrays.
    """
    eta, u, phi1 = _unpack(state)
    H = 1.0 + eta
    w = c * eta + H * u
    dd = delta * delta
    I1 = c * u + eta + 0.5 * u ** 2 + 2.0 / dd * H ** 2 * phi1 ** 2
    I2 = (eta ** 2 - H * u ** 2 + 2.0 * u * w - 6.0 / (5.0 * H) * w ** 2
          + 4.0 / (3.0 * dd) * (H * H * H) * phi1 ** 2)
    return I1, I2


def reconstruct_potentials(state, c):
    """Surface potential derivatives (phi0', phi1') from the 2x2 linear solve.

    Scalars or arrays.
    """
    eta, u, _ = _unpack(state)
    H = 1.0 + eta
    inv = 1.5 / (H * H * H)
    return inv * (-H * H * (c * eta + H * u / 3.0)), inv * (c * eta + H * u)


def crest_curvature(crest):
    """Curvature kappa(0) = eta''(0) at a subcritical crest, analytically.

    eta' is the prefactor (6Hw + 10H^2 v)/(delta^2 d) times phi1 and
    phi1(0) = 0, so eta''(0) is that prefactor at the crest times
    phi1'(0) = 1.5w/H^3; no finite differencing involved.  Raises
    DenominatorVanished for a crest with d(0) <= D_MIN, which solve_crest
    never returns.
    """
    delta = crest.delta
    H, v, w, d0 = _terms(crest.eta0, crest.u0, 0.0, crest.c, delta)
    if d0 <= D_MIN:
        raise DenominatorVanished(
            f"curvature diverges: crest denominator {d0!r} at delta={delta!r}"
        )
    prefactor = (6.0 * H * w + 10.0 * H * H * v) / (delta * delta * d0)
    return prefactor * (1.5 / H ** 3 * w)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call.

    Loading scipy.integrate costs about half a second, so only the commands
    that integrate pay it.  integrate_from looks this name up on every call.
    """
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def _ratio(num, den, at_zero):
    """num/den, and at_zero where den == 0; Python floats or arrays."""
    if isinstance(den, float):
        return num / den if den else at_zero
    return np.divide(num, den, out=np.full_like(den, at_zero),
                     where=den != 0.0)


class _Curve:
    """The closed forms of the module docstring for one crest (delta, eta0)."""

    def __init__(self, delta, eta0):
        self.delta, self.eta0 = delta, eta0
        self.c = phase_speed(delta)
        self.gamma = speed_excess(delta)
        self.w0 = curve_w(eta0, self.c, self.gamma)

    def at(self, z, lib):
        """(eta, u, phi1, dx/dz) at z >= 0; Python floats with lib=math,
        arrays with lib=np."""
        delta, c, gamma, eta0, w0 = (self.delta, self.c, self.gamma,
                                     self.eta0, self.w0)
        z2 = z * z
        eta = eta0 * lib.exp(-z2)
        H = 1.0 + eta
        W = curve_w(eta, c, gamma, lib.sqrt)
        u = eta * (W - c) / H
        A = 1.6 * w0 * w0 + 3.0 + 2.0 * gamma - eta - eta0
        B = 1.6 * eta * (W + w0) + 2.0 * c
        K = 1.0 + (W + w0) * A / (5.0 * B)
        # K < 0 only by rounding, at the corner crest of the extreme wave
        K = max(K, 0.0) if lib is math else np.maximum(K, 0.0)
        R = lib.sqrt(0.75 * eta0 * _ratio(-lib.expm1(-z2), z2, 1.0) * K)
        phi1 = -delta * eta * z * R / (H * H)
        _, v, w, d = _terms(eta, u, phi1, c, delta)
        slope = _ratio(2.0 * delta * H * H * d,
                       (6.0 * H * w + 10.0 * H * H * v) * R, 0.0)
        return eta, u, phi1, slope


class CurveInterpolant:
    """(eta, u, phi1) anywhere on [0, x_end] of a half profile.

    x(z) is the RK45 quartic of the accepted step that holds z, read from one
    table stacked from scipy's dense output: step i starts at z_i with x_i,
    has length h_i and coefficients q_i0..q_i3, and with s = (z - z_i)/h_i

        x(z) = x_i + h_i s (q_i0 + s (q_i1 + s (q_i2 + s q_i3))).

    x is inverted to z by Newton sweeps on x(z), started from linear
    interpolation between the accepted steps.  Each point leaves the sweeps
    after its own last step, so its value does not depend on the other
    points of the call.
    """

    def __init__(self, curve, sol):
        steps = sol.sol.interpolants
        self._curve, self._z, self._x = curve, sol.t, sol.y[0]
        self._z_old = np.array([step.t_old for step in steps])
        self._h = np.array([step.h for step in steps])
        self._x_old = np.array([step.y_old[0] for step in steps])
        self._q = np.array([step.Q[0] for step in steps]).T

    def _x_of_z(self, z):
        # the step whose [z_i, z_i + h_i] holds z, as scipy's OdeSolution picks it
        i = np.maximum(np.searchsorted(self._z_old, z) - 1, 0)
        h = self._h[i]
        s = (z - self._z_old[i]) / h
        q0, q1, q2, q3 = self._q[:, i]
        return self._x_old[i] + h * s * (q0 + s * (q1 + s * (q2 + s * q3)))

    def along_z(self, z):
        """(x, eta) at the given z, with no inversion."""
        return self._x_of_z(z), self._curve.at(z, np)[0]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        z = np.interp(flat, self._x, self._z)
        todo = np.arange(z.size)
        for _ in range(NEWTON_MAX_SWEEPS):
            zt = z[todo]
            step = _ratio(self._x_of_z(zt) - flat[todo],
                          self._curve.at(zt, np)[3], 0.0)
            z[todo] = zt - step
            todo = todo[np.abs(step) > Z_TOL]
            if not todo.size:
                break
        return tuple(a.reshape(x.shape) for a in self._curve.at(z, np)[:3])


@dataclass
class HalfProfile:
    """Accepted-step samples of a half profile on [0, x_end]."""

    delta: float
    c: float
    x: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    phi1: np.ndarray
    stop: str          # always "tail": eta/eta0 = TAIL_REL at x_end
    interpolant: CurveInterpolant


def integrate_from(delta, eta0):
    """Half profile from the crest height eta0 at shallowness delta.

    One RK45 quadrature of x(z) over [0, Z_END]; eta, u and phi1 are the
    closed forms at each accepted step.  Raises StepSizeUnderflow when the
    integrator cannot proceed.
    """
    curve = _Curve(delta, eta0)

    def slope(z, x):
        return (curve.at(float(z), math)[3],)

    sol = solve_ivp(slope, (0.0, Z_END), [0.0], method="RK45",
                    rtol=REL_TOL, atol=ABS_TOL, dense_output=True)
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    z, x = sol.t, sol.y[0]
    eta, u, phi1, _ = curve.at(z, np)
    return HalfProfile(
        delta=delta, c=curve.c, x=x, eta=eta, u=u, phi1=phi1, stop="tail",
        interpolant=CurveInterpolant(curve, sol),
    )


def integrate_half(crest):
    """Half profile from a subcritical crest; see integrate_from."""
    if not isinstance(crest, CrestState):
        raise TypeError("integrate_half expects a CrestState")
    return integrate_from(crest.delta, crest.eta0)
