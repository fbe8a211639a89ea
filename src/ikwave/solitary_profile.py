"""Full symmetric solitary-wave profiles and their diagnostics.

A half trajectory from the crest is extended to the whole line by the exact
symmetry eta(-x) = eta(x), u(-x) = u(x), phi1(-x) = -phi1(x): the left half
is a bitwise reflection of the stored right-half samples, so the symmetry
holds to the last bit by construction.  The classical long-wave soliton

    eta_kdv(x) = (4/3) delta^2 sech^2 x

serves as the small-amplitude reference; its sup-norm distance from the
computed profile scales like delta^4.

The crest values (solve_crest, crest_curvature) and the crest table
(diagnostics_table, TableRow) come from crest_init, which needs no numpy.
They stay module attributes here too, because solve_solitary and the
benchmark harness (perfbench) look them up here at call time.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crest_init import (DX_MIN, TableRow,  # noqa: F401 (re-exported)
                         check_dx, crest_curvature, diagnostics_table,
                         solve_crest)
from .profile_ode import (Z_END, CurveInterpolant, denominator,
                          identity_residuals, integrate_half,
                          reconstruct_potentials)


@dataclass
class WaveProfile:
    """Symmetric profile samples on a strictly increasing grid about x = 0."""

    delta: float
    c: float
    x: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    phi1: np.ndarray
    phi0_prime: np.ndarray
    phi1_prime: np.ndarray
    d: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    eta_max: float
    kappa0: Optional[float]  # None for the extreme wave (corner crest)
    interpolant: CurveInterpolant  # (eta, u, phi1) at any x in [0, x_end]


def assemble_profile(delta, c, x, eta, u, phi1, *, kappa0, interpolant):
    """Mirror right-half samples (x[0] = 0) into a full WaveProfile."""
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    u = np.asarray(u, dtype=float)
    phi1 = np.asarray(phi1, dtype=float)
    if x[0] != 0.0:
        raise ValueError("half grid must start at x = 0")

    state = (eta, u, phi1)
    phi0p, phi1p = reconstruct_potentials(state, c)
    d = denominator(state, c, delta)
    I1, I2 = identity_residuals(state, c, delta)

    def even(a):
        return np.concatenate([a[:0:-1], a])

    def odd(a):
        return np.concatenate([-a[:0:-1], a])

    return WaveProfile(
        delta=delta, c=c,
        x=odd(x), eta=even(eta), u=even(u), phi1=odd(phi1),
        phi0_prime=even(phi0p), phi1_prime=even(phi1p),
        d=even(d), I1=even(I1), I2=even(I2),
        eta_max=float(eta[0]), kappa0=kappa0, interpolant=interpolant,
    )


def solve_solitary(delta, dx=None):
    """Solve the full solitary profile at shallowness delta < delta_c.

    Without dx the samples are those of the half profile, mirrored: the
    crest, the panel nodes of x(z) and the end of the tail.  With dx given,
    they are replaced by a uniform grid of that spacing evaluated through
    the profile's interpolant (the final partial cell is dropped).  Raises
    ValueError for a delta that solve_crest rejects and for a dx that
    check_dx rejects.
    """
    dx = None if dx is None else check_dx(dx)
    crest = solve_crest(delta)
    half = integrate_half(crest)
    x, eta, u, phi1 = half.x, half.eta, half.u, half.phi1
    if dx is not None:
        n = int(np.floor(x[-1] / dx))
        # n dx can round past x_end by an ulp, as 35 * 0.01 > 0.35 does
        xs = np.arange(n + 1) * dx
        xs = xs[xs <= x[-1]]
        eta, u, phi1 = half.interpolant(xs)
        x = xs
    return assemble_profile(
        delta, crest.c, x, eta, u, phi1,
        kappa0=crest_curvature(crest), interpolant=half.interpolant,
    )


def kdv_profile(delta, grid):
    """Classical soliton (4/3) delta^2 sech^2 x on the given grid."""
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    grid = np.asarray(grid, dtype=float)
    return (4.0 / 3.0) * delta * delta / np.cosh(grid) ** 2


def compare_kdv(profile):
    """sup_x |eta(x) - eta_kdv(x)| for a computed profile.

    Evaluated on the union of the profile's sample grid and an auxiliary
    grid of 4097 points uniform in the curve parameter z over the whole half
    profile, with the soliton always evaluated analytically, so no
    resampling of the reference is involved.
    """
    right = profile.x >= 0.0
    xs = profile.x[right]
    err = float(np.max(np.abs(profile.eta[right] - kdv_profile(profile.delta, xs))))
    aux, eta_aux = profile.interpolant.along_z(np.linspace(0.0, Z_END, 4097))
    err_aux = float(np.max(np.abs(eta_aux - kdv_profile(profile.delta, aux))))
    return max(err, err_aux)


@dataclass
class DimensionalProfile:
    """Profile mapped back to laboratory variables for depth h, gravity g."""

    depth: float
    gravity: float
    delta: float
    c: float            # dimensional phase speed c*sqrt(gh)
    amplitude: float    # h * eta_max
    x: np.ndarray
    eta: np.ndarray
    u: np.ndarray


def dimensionalize(profile, depth, gravity):
    """Scale to x* = (h/delta) x, eta* = h eta, (c*, u*) = (c, u) sqrt(gh).

    The surface slope transforms as d(eta*)/d(x*) = delta * d(eta)/dx, which
    is why the dimensional crest slope of the extreme wave carries a factor
    delta_c.
    """
    if not (0.0 < depth < np.inf and 0.0 < gravity < np.inf):
        raise ValueError(f"depth and gravity must be positive and finite, "
                         f"got {depth!r} and {gravity!r}")
    speed = float(np.sqrt(gravity * depth))
    return DimensionalProfile(
        depth=depth, gravity=gravity, delta=profile.delta,
        c=profile.c * speed, amplitude=depth * profile.eta_max,
        x=(depth / profile.delta) * profile.x,
        eta=depth * profile.eta,
        u=speed * profile.u,
    )
