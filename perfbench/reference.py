"""Accuracy probes and the independent tail-in reference they compare with.

The reference shoots inward from the rest state toward the crest (the
connecting-orbit method of Beyn, IMA J. Numer. Anal. 10, 1990): start at
1e-12 along the eigenvector of the rest state whose mode decays like
exp(-lambda x) on x > 0, integrate the reversed system with DOP853 (rtol
1e-12, atol 1e-30) and stop at phi1 = 0, which is the crest.  Errors across
the connection decay on this path, so the reference tail is accurate where
the solver's outward shot from the crest is not.  The model equations are
written out here on purpose, independently of ikwave.

The probes use fixed deltas that do not depend on the seed, and run outside
the timed loop.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

import ikwave.crest_init as ci
import ikwave.extreme_wave as ew
import ikwave.solitary_profile as sp

from .workloads import SWEEP_DX

PROBE_DELTAS = (0.1, 0.3, 0.55, 0.62, 0.626)
KDV_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)
TAIL_REL_TOL = 1e-6
REF_START = 1e-12


class TailReference:
    """eta_ref(x) on [0, x_end] for one subcritical delta, crest at x = 0."""

    def __init__(self, delta):
        c = 1.0 + (2.0 / 3.0) * delta * delta
        dd = delta * delta

        def reversed_rhs(s, y):
            eta, u, phi1 = y
            H = 1.0 + eta
            v = c + u
            w = c * eta + H * u
            q = 4.0 * H * phi1 * phi1 / dd
            d = 6.0 * H * v * v - 3.0 * v * w - H * H * (1.0 + q)
            return (-(6.0 * H * w + 10.0 * H * H * v) * phi1 / (dd * d),
                    (18.0 * w * (2.0 * H * v - w) + 10.0 * H ** 3 * (1.0 + q))
                    * phi1 / (dd * H * d),
                    -1.5 / H ** 3 * w)

        # Jacobian at rest: eta' = a phi1, u' = b phi1, phi1' = 1.5 (c eta + u)
        a = 10.0 * c / (dd * (6.0 * c * c - 1.0))
        b = -10.0 / (dd * (6.0 * c * c - 1.0))
        self.lam = math.sqrt(1.5 * (c * a + b))
        # decaying mode on x > 0 has phi1 < 0 and eta > 0
        v = np.array([a / self.lam, b / self.lam, -1.0])
        y0 = REF_START * v / np.linalg.norm(v)

        def crest(s, y):
            return y[2]
        crest.terminal = True
        crest.direction = 1

        sol = solve_ivp(reversed_rhs, (0.0, 200.0), y0, method="DOP853",
                        rtol=1e-12, atol=1e-30, events=crest,
                        dense_output=True)
        if sol.status != 1:
            raise RuntimeError(f"tail-in reference missed the crest at "
                               f"delta={delta!r}: {sol.message}")
        self.x_end = float(sol.t_events[0][0])
        self.crest = sol.y_events[0][0]
        self._sol = sol.sol

    def eta(self, x):
        return self._sol(self.x_end - np.asarray(x, dtype=float))[0]


def _identity_share(profile):
    return max(float(np.max(np.abs(profile.I1))),
               float(np.max(np.abs(profile.I2)))) / profile.eta_max


def accuracy_probes():
    """Seed-independent accuracy figures of the solve_sweep product.

    identity_max: largest max(|I1|, |I2|)/eta_max over the probes and the
    extreme wave.  ref_err_max: largest sup|eta - eta_ref|/eta_max over the
    probes, on the resampled dx grid the sweep writes.  tail_ok_x: smallest,
    over the probes, largest x up to which the pointwise relative error
    against eta_ref stays at or below 1e-6.  kdv_ratio_spread: max/min of
    compare_kdv/delta^4 over KDV_DELTAS.
    """
    identity, ref_err, tail_ok = [], [], []
    detail = {"crest_ref_diff": {}, "rel_err_x6": {}, "tail_ok_x": {},
              "ref_err": {}}
    for delta in PROBE_DELTAS:
        profile = sp.solve_solitary(delta, dx=SWEEP_DX)
        ref = TailReference(delta)
        identity.append(_identity_share(profile))
        right = profile.x >= 0.0
        x, eta = profile.x[right], profile.eta[right]
        covered = x <= ref.x_end
        x, eta = x[covered], eta[covered]
        eta_ref = ref.eta(x)
        ref_err.append(float(np.max(np.abs(eta - eta_ref))) / profile.eta_max)
        rel = np.abs(eta - eta_ref) / np.abs(eta_ref)
        bad = np.flatnonzero(rel > TAIL_REL_TOL)
        tail_ok.append(float(x[bad[0] - 1] if len(bad) else x[-1]))
        key = repr(delta)
        detail["crest_ref_diff"][key] = abs(float(ref.crest[0])
                                            - ci.solve_crest(delta).eta0)
        detail["rel_err_x6"][key] = float(rel[np.argmin(np.abs(x - 6.0))])
        detail["tail_ok_x"][key] = tail_ok[-1]
        detail["ref_err"][key] = ref_err[-1]
    extreme = ew.extreme_profile(ew.solve_critical())
    detail["identity_extreme"] = _identity_share(extreme)
    identity.append(detail["identity_extreme"])
    ratios = [sp.compare_kdv(sp.solve_solitary(d)) / d ** 4 for d in KDV_DELTAS]
    detail["kdv_ratio"] = dict(zip(map(repr, KDV_DELTAS), ratios))
    metrics = {
        "identity_max": max(identity),
        "ref_err_max": max(ref_err),
        "tail_ok_x": min(tail_ok),
        "kdv_ratio_spread": max(ratios) / min(ratios),
    }
    return metrics, detail
