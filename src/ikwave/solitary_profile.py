"""Full symmetric solitary-wave profiles and their diagnostics.

A half profile from the crest, evaluated on a half grid, is extended to
the whole line by the exact symmetry eta(-x) = eta(x),
u(-x) = u(x), phi1(-x) = -phi1(x) (phi1 and x are the columns odd in x):
the left half is a bitwise reflection of the right-half samples, so the
symmetry holds to the last bit by construction.  The crest curvature kappa0
is worked out from the half profile too: None at the corner crest of the
extreme wave, crest_curvature of its crest otherwise.  The classical
long-wave soliton

    eta_kdv(x) = (4/3) delta^2 sech^2 x

serves as the small-amplitude reference; its sup-norm distance from the
computed profile scales like delta^4.

The crest values (solve_crest, crest_curvature) and the crest table
(diagnostics_table, TableRow) come from crest_init, which needs no numpy.
They stay module attributes here too, because solve_solitary,
assemble_profile and the benchmark harness (perfbench) look them up here at
call time.
"""

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crest_init import (TableRow,  # noqa: F401 (re-exported)
                         check_delta, check_dx, check_positive,
                         crest_curvature, crest_on_curve, diagnostics_table,
                         solve_crest)
from .output import ODD_COLUMNS, PROFILE_COLUMNS
from .profile_ode import Z_END, HalfProfile, integrate_half


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
    # the half profile it mirrors: every column after x at any x in
    # [0, x_end]
    interpolant: HalfProfile


def assemble_profile(half, x=None):
    """Mirror a HalfProfile into a full WaveProfile.

    The half profile is evaluated on the half grid x, its own samples
    half.x when x is None (at_samples, with no inversion), and mirrored.
    The crest height is its value at x = 0.  kappa0 is None at a corner
    crest, where dx/dz vanishes at the crest, and otherwise crest_curvature
    of the crest on the curve at that height.  Raises ValueError unless x
    is 1-D, not empty, starts at 0 and increases strictly.
    """
    x = half.x if x is None else np.asarray(x, dtype=float)
    if not (x.ndim == 1 and x.size and x[0] == 0.0
            and (np.diff(x) > 0.0).all()):
        raise ValueError("half grid must be 1-D, start at x = 0 and "
                         "increase strictly")
    right = (x, *(half.at_samples() if x is half.x else half(x)))
    delta, eta0 = half.delta, float(right[1][0])
    kappa0 = (None if half._corner[0]
              else crest_curvature(crest_on_curve(delta, eta0)))
    # the left half repeats the right, negated in the columns odd in x
    columns = {name: np.concatenate([(-a if name in ODD_COLUMNS else a)[:0:-1],
                                     a])
               for name, a in zip(PROFILE_COLUMNS, right)}
    return WaveProfile(delta=delta, c=half.c, **columns, eta_max=eta0,
                       kappa0=kappa0, interpolant=half)


def _underflows(*pairs):
    """True when, in any (values, reference) pair, a value is below the
    smallest normal float, and so short of digits, where its reference is
    not 0."""
    tiny = sys.float_info.min
    return not all(((np.abs(a) >= tiny) | (b == 0.0)).all()
                   for a, b in pairs)


def solve_solitary(delta, dx=None):
    """Solve the full solitary profile at shallowness delta < delta_c.

    Without dx the samples are those of the half profile, mirrored: the
    crest, the panel nodes of x(z) and the end of the tail.  With dx given,
    they are replaced by a uniform grid of that spacing evaluated through
    the half profile (the final partial cell is dropped).  Raises
    ValueError for a delta that solve_crest rejects, for a dx that
    check_dx rejects, and for a delta so small (below about 1e-75) that a
    sample of eta, u, phi1 off the crest, phi0', phi1' or d falls below
    the smallest normal float.
    """
    dx = None if dx is None else check_dx(dx)
    half = integrate_half(solve_crest(delta))
    x = None
    if dx is not None:
        n = int(np.floor(half.x[-1] / dx))
        # n dx can round past x_end by an ulp, as 35 * 0.01 > 0.35 does
        x = np.arange(n + 1) * dx
        x = x[x <= half.x[-1]]
    p = assemble_profile(half, x)
    # phi1 is 0 at the crest alone; no other value of these columns is 0
    if _underflows((p.eta, 1.0), (p.u, 1.0), (p.phi1, p.x),
                   (p.phi0_prime, 1.0), (p.phi1_prime, 1.0), (p.d, 1.0)):
        raise ValueError(f"delta {delta!r} is too small: its profile falls "
                         "below the smallest float")
    return p


def kdv_profile(delta, grid):
    """Classical soliton (4/3) delta^2 sech^2 x on the given grid; 0 where
    cosh x, or its square, overflows."""
    delta = check_delta(delta)
    grid = np.asarray(grid, dtype=float)
    with np.errstate(over="ignore"):
        return (4.0 / 3.0) * delta * delta / np.cosh(grid) ** 2


def compare_kdv(profile):
    """sup_x |eta(x) - eta_kdv(x)| for a computed profile.

    Evaluated on one grid of 4097 points uniform in the curve parameter z
    over the whole half profile, through profile.interpolant, so the value
    is a property of the wave and not of its samples: it is the same for
    every dx.  The soliton is always evaluated analytically, so no
    resampling of the reference is involved.  For delta <= 0.1 the sup sits
    at the crest, z = 0, so by the crest height's series
    eta0 = (4/3) delta^2 + (8/15) delta^4 + (16/75) delta^6 + ...,
    compare_kdv/delta^4 = (eta0 - (4/3) delta^2)/delta^4
    -> 8/15 + (16/75) delta^2.
    """
    x, eta = profile.interpolant.along_z(np.linspace(0.0, Z_END, 4097))
    return float(np.max(np.abs(eta - kdv_profile(profile.delta, x))))


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
    delta_c.  Raises ValueError when a scaled value is not finite, and when
    one underflows: a scaled x, eta or u whose unscaled value is not 0, or
    the amplitude or the phase speed, is below the smallest normal float.
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
    scaled = f"depth {depth!r} and gravity {gravity!r} scale the profile"
    if not all(np.isfinite(a).all() for a in (dp.x, dp.eta, dp.u)):
        raise ValueError(f"{scaled} past the largest float")
    if _underflows((dp.x, profile.x), (dp.eta, profile.eta),
                   (dp.u, profile.u), (dp.amplitude, 1.0), (dp.c, 1.0)):
        raise ValueError(f"{scaled} below the smallest float")
    return dp
