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

from .crest_init import (TableRow,  # noqa: F401 (re-exported)
                         check_delta, check_dx, check_positive,
                         crest_curvature, diagnostics_table, solve_crest)
from .output import ODD_COLUMNS, PROFILE_COLUMNS
from .profile_ode import Z_END, HalfProfile, derived_columns, integrate_half


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
    # the half profile it mirrors: (eta, u, phi1) at any x in [0, x_end]
    interpolant: HalfProfile


def assemble_profile(half, x=None, *, kappa0):
    """Mirror a HalfProfile into a full WaveProfile.

    With no x the half profile's own samples are mirrored; with a half grid
    x, the half profile's values there.  Raises ValueError unless x is 1-D,
    not empty, starts at 0 and increases strictly.
    """
    if x is None:
        x, state = half.x, (half.eta, half.u, half.phi1)
    else:
        x = np.asarray(x, dtype=float)
        if not (x.ndim == 1 and x.size and x[0] == 0.0
                and (np.diff(x) > 0.0).all()):
            raise ValueError("half grid must be 1-D, start at x = 0 and "
                             "increase strictly")
        state = half(x)
    delta, c = half.delta, half.c
    eta, u, phi1 = state
    right = (x, eta, u, phi1, *derived_columns(state, c, delta))
    # the left half repeats the right, negated in the columns odd in x
    columns = {name: np.concatenate([(-a if name in ODD_COLUMNS else a)[:0:-1],
                                     a])
               for name, a in zip(PROFILE_COLUMNS, right)}
    return WaveProfile(delta=delta, c=c, **columns, eta_max=float(eta[0]),
                       kappa0=kappa0, interpolant=half)


def solve_solitary(delta, dx=None):
    """Solve the full solitary profile at shallowness delta < delta_c.

    Without dx the samples are those of the half profile, mirrored: the
    crest, the panel nodes of x(z) and the end of the tail.  With dx given,
    they are replaced by a uniform grid of that spacing evaluated through
    the half profile (the final partial cell is dropped).  Raises
    ValueError for a delta that solve_crest rejects and for a dx that
    check_dx rejects.
    """
    dx = None if dx is None else check_dx(dx)
    crest = solve_crest(delta)
    half = integrate_half(crest)
    x = None
    if dx is not None:
        n = int(np.floor(half.x[-1] / dx))
        # n dx can round past x_end by an ulp, as 35 * 0.01 > 0.35 does
        x = np.arange(n + 1) * dx
        x = x[x <= half.x[-1]]
    return assemble_profile(half, x, kappa0=crest_curvature(crest))


def kdv_profile(delta, grid):
    """Classical soliton (4/3) delta^2 sech^2 x on the given grid."""
    delta = check_delta(delta)
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
    delta_c.  Raises ValueError when a scaled value is not finite.
    """
    depth = check_positive(depth, "depth")
    gravity = check_positive(gravity, "gravity")
    speed = float(np.sqrt(gravity * depth))
    # an overflow shows as inf, or inf * 0 = nan, in x, in eta (which holds
    # the amplitude) or in u (which holds speed, and so c, at its crest)
    with np.errstate(over="ignore", invalid="ignore"):
        dp = DimensionalProfile(
            depth=depth, gravity=gravity, delta=profile.delta,
            c=profile.c * speed, amplitude=depth * profile.eta_max,
            x=(depth / profile.delta) * profile.x,
            eta=depth * profile.eta,
            u=speed * profile.u,
        )
    if not all(np.isfinite(a).all() for a in (dp.x, dp.eta, dp.u)):
        raise ValueError(f"depth {depth!r} and gravity {gravity!r} scale the "
                         "profile past the largest float")
    return dp
