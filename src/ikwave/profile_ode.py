"""Reduced first-order system for symmetric solitary-wave profiles.

State (eta, u, phi1) with H = 1 + eta, v = c + u, w = c*eta + H*u:

    eta'  =  (6Hw + 10H^2 v) phi1 / (delta^2 d),
    u'    = -(18w(2Hv - w) + 10H^3(1 + 4 delta^-2 H phi1^2)) phi1 / (delta^2 H d),
    phi1' =  (3/(2H^3)) w,

    d = 6Hv^2 - 3vw - H^2 (1 + 4 delta^-2 H phi1^2).

Two identities vanish on every solitary wave:

    I1 = cu + eta + u^2/2 + 2 delta^-2 H^2 phi1^2,
    I2 = eta^2 - Hu^2 + 2uw - (6/(5H)) w^2 + (4/3) delta^-2 H^3 phi1^2.

Along the field dI1/dx = 0 identically, but

    dI2/dx = 4 phi1 H (5c + 8w) I1 / (delta^2 d),

so I1 is a first integral, and I2 is one only on I1 = 0, where every
solitary wave lies.

The surface potentials are recovered from the 2x2 solve

    (phi0', phi1')^T = (1/((2/3)H^3)) (-H^2(c eta + (1/3)Hu), c eta + Hu)^T.

On the curve below w = c eta + Hu equals eta W, with W = curve_w(eta) of
order delta^2.  The sum c eta + Hu cancels to a relative error of about
eps/delta^2, so the phi1' column is formed as 1.5 eta W/H^3; d and I2 keep
w as written, where the cancelled digits are below their rounding.

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

x(z) is integrated on adaptive Gauss-Legendre panels (solve_ivp).  A
panel is accepted on the Legendre coefficients of the interpolant of dx/dz
through its nodes; its x(z) is the antiderivative of that interpolant,
kept as a Chebyshev series and accurate to rounding.  The quadrature sees
dx/dz only.  The samples of a half profile are x at z = 0, every panel node
and Z_END.  Every profile column after x (eta, u, phi1, phi0', phi1', d, I1
and I2) is evaluated at given x in one way: Newton sweeps invert x(z),
started from the cubic Hermite interpolant of z(x) through the samples, and
one pass of the closed forms gives the columns at that z (HalfProfile).
Only numpy is needed.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, legendre

from .crest_init import CrestState, _terms, curve_w, phase_speed, speed_excess
from .errors import StepSizeUnderflow

# each half profile ends where eta/eta0 = TAIL_REL, at z = Z_END
TAIL_REL = 1e-5
Z_END = math.sqrt(math.log(1.0 / TAIL_REL))
# x(z) is integrated on Gauss-Legendre panels of PANEL_NODES nodes.  A panel
# of width h is accepted once h times its last two Legendre coefficients is
# at most PANEL_TOL times the one-panel integral over [0, Z_END], and halved
# otherwise; a panel PANEL_MAX_DEPTH halvings below [0, Z_END] that still
# fails raises StepSizeUnderflow
PANEL_NODES = 16
PANEL_TOL = 1e-14
PANEL_MAX_DEPTH = 30
# Newton sweeps that invert x(z) stop after a step of at most Z_TOL, which
# leaves an error of order Z_TOL^2 by their quadratic convergence
Z_TOL = 1e-10
NEWTON_MAX_SWEEPS = 50


@dataclass
class Panels:
    """The accepted panels of solve_ivp, sorted by z, as one table of
    x(z); the closed forms at the nodes are not kept.

    Panel i covers [a_i, a_i + h_i].  With s = 2(z - a_i)/h_i - 1 and G_i
    the antiderivative from s = -1, as a Chebyshev series, of the
    interpolant of dx/dz through the panel's nodes,

        x(z) = x_i + (h_i/2) (G_i(s) - G_i(-1)).

    G_i(-1) is 0 but for rounding; subtracting the value that the same
    Clenshaw sum gives there makes x exactly x_i at z = a_i.
    """

    t: np.ndarray        # z at 0, at every node and at the end
    nfev: int            # evaluations of dx/dz
    start: np.ndarray    # a_i
    width: np.ndarray    # h_i
    x_start: np.ndarray  # x_i = x(a_i)
    coef: np.ndarray     # G_i as column i, row k the degree-k terms


# the nodes on [-1, 1], and the map from the values of dx/dz at them to the
# Legendre coefficients of its interpolant, by Gauss quadrature
_NODES, _WEIGHTS = legendre.leggauss(PANEL_NODES)
_TO_COEF = legendre.legvander(_NODES, PANEL_NODES - 1) * (
    _WEIGHTS[:, None] * (np.arange(PANEL_NODES) + 0.5))
# the map from those values to the Chebyshev coefficients of the
# interpolant's antiderivative from -1, row k giving degree k: the inverse
# Vandermonde matrix, then chebint
_TO_TABLE = chebyshev.chebint(
    np.linalg.inv(chebyshev.chebvander(_NODES, PANEL_NODES - 1)), lbnd=-1.0)


def solve_ivp(fun, z_end):
    """x(z) = integral of dx/dz from 0 to z on [0, z_end], as Panels.

    fun maps an array of z to dx/dz there, an array of its shape.  Panels
    are halved level by level, with one call of fun on the nodes of every
    open panel per level, until each passes the PANEL_TOL test of the
    module constants.  Raises StepSizeUnderflow when dx/dz is not finite,
    or when a panel PANEL_MAX_DEPTH halvings deep still fails.

    The name and the t and nfev fields are those of the scipy routine this
    replaced, because the benchmark harness wraps this name and reads those
    fields; ROADMAP item 1 moves that seam to integrate_from and renames
    them.
    """
    open_start, width = np.zeros(1), z_end
    done = []
    nfev = 0
    for depth in range(PANEL_MAX_DEPTH + 1):
        z = open_start[:, None] + (0.5 * width) * (_NODES + 1.0)
        slope = fun(z)
        coef = slope @ _TO_COEF
        nfev += z.size
        if not np.isfinite(coef).all():
            raise StepSizeUnderflow(
                f"dx/dz is not finite on a panel of width {width!r}")
        if depth == 0:
            # each panel's integral is its width times its coefficient c_0
            tol = PANEL_TOL * width * abs(coef[0, 0])
        ok = width * (abs(coef[:, -2]) + abs(coef[:, -1])) <= tol
        done.append((open_start[ok], np.full(ok.sum(), width), coef[ok, 0],
                     z[ok], slope[ok]))
        open_start = open_start[~ok]
        if not open_start.size:
            break
        if depth == PANEL_MAX_DEPTH:
            raise StepSizeUnderflow(
                f"x(z) unresolved on a panel of width {width!r} at "
                f"z = {open_start.min()!r}")
        width *= 0.5
        open_start = np.concatenate([open_start, open_start + width])
    order = np.argsort(np.concatenate([level[0] for level in done]))
    start, width, c0, nodes, slope = (np.concatenate(parts)[order]
                                      for parts in zip(*done))
    return Panels(
        t=np.concatenate([[0.0], nodes.ravel(), [z_end]]), nfev=nfev,
        start=start, width=width,
        x_start=np.concatenate([[0.0], np.cumsum(width * c0)[:-1]]),
        coef=_TO_TABLE @ slope.T)


def _ratio(num, den, at_zero):
    """num/den for arrays, and at_zero where den == 0."""
    return np.divide(num, den, out=np.full_like(den, at_zero),
                     where=den != 0.0)


class _Curve:
    """The closed forms of the module docstring for one crest (delta, eta0)."""

    def __init__(self, delta, eta0):
        self.delta, self.eta0 = delta, eta0
        self.c = phase_speed(delta)
        self.gamma = speed_excess(delta)
        self.W0 = curve_w(eta0, self.c, self.gamma)

    def eta(self, z):
        """eta = eta0 exp(-z^2) at an array of z >= 0."""
        return self.eta0 * np.exp(-(z * z))

    def _closed_forms(self, z):
        """(eta, u, phi1, H, W, w, d, dx/dz) at an array of z >= 0."""
        delta, c, gamma, eta0, W0 = (self.delta, self.c, self.gamma,
                                     self.eta0, self.W0)
        z2 = z * z
        eta = self.eta(z)
        H = 1.0 + eta
        W = curve_w(eta, c, gamma, np.sqrt)
        u = eta * (W - c) / H
        A = 1.6 * W0 * W0 + 3.0 + 2.0 * gamma - eta - eta0
        B = 1.6 * eta * (W + W0) + 2.0 * c
        # K < 0 only by rounding, at the corner crest of the extreme wave
        K = np.maximum(1.0 + (W + W0) * A / (5.0 * B), 0.0)
        R = np.sqrt(0.75 * eta0 * _ratio(-np.expm1(-z2), z2, 1.0) * K)
        phi1 = -delta * eta * z * R / (H * H)
        _, v, w, d = _terms(eta, u, phi1, c, delta)
        return eta, u, phi1, H, W, w, d, _ratio(
            2.0 * delta * H * H * d, (6.0 * H * w + 10.0 * H * H * v) * R, 0.0)

    def at(self, z):
        """dx/dz at an array of z >= 0, all that x(z) and its inversion
        need."""
        return self._closed_forms(z)[-1]

    def columns(self, z):
        """The eight profile columns after x, (eta, u, phi1, phi0', phi1',
        d, I1, I2), at an array of z >= 0, from one pass of the closed
        forms."""
        eta, u, phi1, H, W, w, d, _ = self._closed_forms(z)
        c, dd = self.c, self.delta * self.delta
        H3 = H * H * H
        I1 = c * u + eta + 0.5 * u ** 2 + 2.0 / dd * H ** 2 * phi1 ** 2
        I2 = (eta ** 2 - H * u ** 2 + 2.0 * u * w - 6.0 / (5.0 * H) * w ** 2
              + 4.0 / (3.0 * dd) * H3 * phi1 ** 2)
        inv = 1.5 / H3
        return (eta, u, phi1, inv * (-H * H * (c * eta + H * u / 3.0)),
                inv * (eta * W), d, I1, I2)


def _check_range(name, values, end):
    """Raise ValueError unless every one of values lies in [0, end]."""
    values = np.ravel(np.asarray(values, dtype=float))
    outside = ~((values >= 0.0) & (values <= end))
    if outside.any():
        raise ValueError(f"{name} must lie in [0, {float(end)!r}]; "
                         f"got {float(values[outside][0])!r}")


class HalfProfile:
    """A half profile on [0, x_end], evaluated anywhere on it.

    x holds the samples, x(z) at z = 0, every panel node and Z_END.
    Calling it gives the eight profile columns after x (eta, u, phi1,
    phi0_prime, phi1_prime, d, I1, I2) at any x in [0, x_end], its samples
    included, and along_z gives (x, eta) at any z in [0, Z_END].

    x(z) is read from the Panels table: the panel that holds z, then one
    Chebyshev series of its antiderivative, summed by Clenshaw's recurrence
    one gathered coefficient row at a time.  x is inverted to z by Newton
    sweeps on x(z), started from the cubic Hermite interpolant of z(x)
    through the samples, with slopes dz/dx = 1/(dx/dz).  On the interval
    [0, x_1] of the corner crest, where dx/dz = 0 at z = 0 and x ~ z^2, the
    start is z_1 sqrt(x/x_1) instead.  The start is the sample's z exactly
    at every sample x.  Each point leaves the sweeps after its own last
    step, so its value does not depend on the other points of the call.
    An x outside [0, x_end], a z outside [0, Z_END] or a NaN raises
    ValueError: the panel table covers that range only.
    """

    def __init__(self, curve, panels):
        self._curve, self._z = curve, panels.t
        self.delta, self.c = curve.delta, curve.c
        # always "tail": eta/eta0 = TAIL_REL at x_end.  The benchmark
        # harness reads it; ROADMAP item 1 drops it
        self.stop = "tail"
        self._start, self._half_width = panels.start, 0.5 * panels.width
        self._x_start, self._coef = panels.x_start, panels.coef
        self._g_start = self._clenshaw(np.arange(len(self._start)), -1.0)
        self.x = self._x_of_z(self._z)
        slope = curve.at(self._z)
        # z(x) on [x_j, x_j+1] is z_j + t (c1 + t (c2 + t c3)), t in [0, 1];
        # dx/dz is 0 only at z = 0, at the corner crest, where x ~ z^2: that
        # interval takes sqrt(t) for t and c1 = z_j+1 - z_j, c2 = c3 = 0
        dz, dx = np.diff(self._z), np.diff(self.x)
        self._corner = slope[:-1] == 0.0
        a = np.where(self._corner, dz, _ratio(dx, slope[:-1], 0.0))
        b = np.where(self._corner, dz, dx / slope[1:])
        self._dx, self._cubic = dx, (a, 3.0 * dz - 2.0 * a - b,
                                     a + b - 2.0 * dz)

    def _clenshaw(self, i, s):
        """G_i(s), for panel indices i and s in [-1, 1]."""
        coef = self._coef
        y = s + s
        b2, b1 = 0.0, coef[-1][i]
        for row in coef[-2:0:-1]:
            b2, b1 = b1, row[i] + y * b1 - b2
        return coef[0][i] + s * b1 - b2

    def _x_of_z(self, z):
        i = np.maximum(np.searchsorted(self._start, z, side="right") - 1, 0)
        s = (z - self._start[i]) / self._half_width[i] - 1.0
        return self._x_start[i] + self._half_width[i] * (
            self._clenshaw(i, s) - self._g_start[i])

    def _z_start(self, x):
        """The Hermite start of the Newton sweeps at x."""
        j = np.minimum(np.searchsorted(self.x, x, side="right") - 1,
                       len(self.x) - 2)
        t = (x - self.x[j]) / self._dx[j]
        t = np.where(self._corner[j], np.sqrt(t), t)
        c1, c2, c3 = (c[j] for c in self._cubic)
        z = self._z[j] + t * (c1 + t * (c2 + t * c3))
        # at t = 1, z_j + (z_j+1 - z_j) need not be z_j+1
        return np.where(x == self.x[j + 1], self._z[j + 1], z)

    def along_z(self, z):
        """(x, eta) at the given z, with no inversion."""
        _check_range("z", z, self._z[-1])
        return self._x_of_z(z), self._curve.eta(z)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        _check_range("x", flat, self.x[-1])
        z = self._z_start(flat)
        todo = np.arange(z.size)
        for _ in range(NEWTON_MAX_SWEEPS):
            zt = z[todo]
            step = _ratio(self._x_of_z(zt) - flat[todo], self._curve.at(zt),
                          0.0)
            z[todo] = zt - step
            todo = todo[np.abs(step) > Z_TOL]
            if not todo.size:
                break
        return tuple(a.reshape(x.shape) for a in self._curve.columns(z))


def integrate_from(delta, eta0):
    """Half profile from the crest height eta0 at shallowness delta.

    One panel quadrature of x(z) over [0, Z_END] (solve_ivp), then one pass
    of dx/dz at z = 0, at every panel node and at Z_END for the slopes of
    the Hermite start.
    Raises StepSizeUnderflow when the quadrature cannot resolve x(z).
    """
    curve = _Curve(delta, eta0)
    return HalfProfile(curve, solve_ivp(curve.at, Z_END))


def integrate_half(crest):
    """Half profile from a subcritical crest; see integrate_from."""
    if not isinstance(crest, CrestState):
        raise TypeError("integrate_half expects a CrestState")
    return integrate_from(crest.delta, crest.eta0)
