"""Command-line front end.

Exit codes: 0 success, 1 solver failure (no crest root beyond the critical
shallowness, integrator step underflow, ...), 2 usage error.  All numeric
output carries 12 significant digits.  An absolute --out path is used as
given; a relative one lands in $IK_OUT_DIR, else the working directory.
Reruns with the same flags are byte-identical.

numpy is loaded only by the commands that compute a profile or an array:
solve, compare-kdv, extreme, dimensional, checks and reproduce-paper.
critical, crest and table need only crest values, which crest_init computes
with the standard library, and params prints the exact constants of
model_params, so neither they nor a usage error load numpy.  solve,
compare-kdv and dimensional solve the crest first, so a delta beyond the
critical shallowness fails with NoSolitaryRoot before numpy is imported.
No command loads scipy.
"""

import argparse
import math
import sys

from .crest_init import (DX_MIN, check_delta, crest_curvature,
                         crest_denominator, diagnostics_table, solve_crest,
                         solve_critical)
from .errors import IkwaveError
from .output import (fmt, gnuplot_script, mirrored_csv_text, profile_csv_text,
                     resolve_out_path, write_text)

# compare-kdv's sup_error_over_delta4 is resolved down to this delta
KDV_RESOLVED_DELTA = 1e-4

PROFILE_DELTAS = (0.3, 0.45, 0.55, 0.6, 0.62, 0.62633493)
ZOOM_DELTAS = (0.6, 0.62, 0.625, 0.626, 0.62633493)
TABLE_DELTAS = (0.6, 0.62, 0.625, 0.626, 0.6263, 0.62633, 0.626334,
                0.6263349, 0.62633493)
# each crest zoom holds x = i * ZOOM_DX, |i| < ZOOM_SAMPLES, so |x| <= 1
ZOOM_DX = 0.002
ZOOM_SAMPLES = 501


def _positive(text):
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if v <= 0.0 or not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return v


def _delta(text):
    v = _positive(text)
    try:
        return check_delta(v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _step(text):
    v = _positive(text)
    if v < DX_MIN:
        raise argparse.ArgumentTypeError(f"must be at least {DX_MIN!r}: {text!r}")
    return v


def _delta_list(text):
    vals = tuple(_delta(t) for t in text.split(",") if t)
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _exponent_list(text):
    try:
        vals = tuple(int(t) for t in text.split(",") if t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad exponent list: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty exponent list")
    from .model_params import ExponentSet
    try:
        ExponentSet(vals)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return vals


def _kv(name, value):
    print(f"{name} = {fmt(value)}")


def _vec(name, values):
    print(f"{name} = [" + ", ".join(fmt(v) for v in values) + "]")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ikwave",
        description="Solitary-wave solver for a depth-expanded water-wave "
                    "model (single quadratic expansion term).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="model matrices and scalar constants")
    p.add_argument("--p", type=_exponent_list, default=(2,),
                   help="comma-separated expansion exponents (default 2)")
    p.add_argument("--exact", action="store_true",
                   help="print exact rational values")

    p = sub.add_parser("crest", help="crest state at a given shallowness")
    p.add_argument("--delta", type=_delta, required=True)

    p = sub.add_parser("solve", help="solve a full solitary profile to CSV")
    p.add_argument("--delta", type=_delta, required=True)
    p.add_argument("--out", default=None, help="CSV path")
    p.add_argument("--dx", type=_step, default=None,
                   help="uniform resampling step")
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a plot script next to the CSV")

    p = sub.add_parser("table", help="crest diagnostics over a delta sweep")
    p.add_argument("--deltas", type=_delta_list,
                   default=TABLE_DELTAS,
                   help="comma-separated shallowness values")

    p = sub.add_parser("compare-kdv",
                       help="sup-norm distance from the classical soliton")
    p.add_argument("--delta", type=_delta, required=True)

    sub.add_parser("critical", help="critical point of extreme form")

    p = sub.add_parser("extreme", help="extreme-wave profile to CSV")
    p.add_argument("--out", default=None, help="CSV path")
    p.add_argument("--gnuplot", action="store_true")

    p = sub.add_parser("dimensional",
                       help="profile in laboratory variables")
    p.add_argument("--delta", type=_delta, required=True)
    p.add_argument("--depth", type=_positive, required=True)
    p.add_argument("--gravity", type=_positive, required=True)
    p.add_argument("--out", default=None, help="CSV path")

    p = sub.add_parser("checks", help="analytic verification suite")
    p.add_argument("--p", type=_exponent_list, default=(2,))

    p = sub.add_parser("reproduce-paper",
                       help="write the full reference output set "
                            "(profiles, extreme wave, crest table, manifest)")
    p.add_argument("--out", default=None, help="output directory")

    return ap


def cmd_params(args):
    from .model_params import check_positivity, exact_params
    # fmt rounds each Fraction to the nearest double, as build_params does
    gamma, gamma_vec, k1, k2, k3 = exact_params(args.p)
    _vec("p", args.p)
    _kv("gamma", gamma)
    _vec("gamma_vec", gamma_vec)
    _kv("kappa1", k1)
    _kv("kappa2", k2)
    _kv("kappa3", k3)
    report = check_positivity(args.p)
    _kv("min_eig_A1", report["min_eig_A1"])
    _kv("min_eig_A0_centered", report["min_eig_A0_centered"])
    if args.exact:
        print(f"exact gamma = {gamma}")
        print("exact gamma_vec = [" + ", ".join(str(g) for g in gamma_vec) + "]")
        print(f"exact kappa1 = {k1}")
        print(f"exact kappa2 = {k2}")
        print(f"exact kappa3 = {k3}")
    return 0


def cmd_crest(args):
    crest = solve_crest(args.delta)
    _kv("delta", crest.delta)
    _kv("c", crest.c)
    _kv("eta0", crest.eta0)
    _kv("u0", crest.u0)
    _kv("d0", crest_denominator(crest))
    _kv("kappa0", crest_curvature(crest))
    return 0


def _default_name(stem, delta):
    return f"{stem}_delta{delta!r}.csv"


def _solitary(delta, dx=None):
    """solve_solitary(delta, dx), after a standard-library crest solve, so
    that a delta beyond the critical value fails before numpy is imported."""
    solve_crest(delta)
    from .solitary_profile import solve_solitary
    return solve_solitary(delta, dx=dx)


def _wrote_profile(path, gnuplot):
    """Report the profile CSV at path and, with --gnuplot, write and report
    a plot script for it next to it."""
    print(f"wrote {path}")
    if gnuplot:
        gp = path.with_suffix(".gp")
        write_text(gp, gnuplot_script(path.name))
        print(f"wrote {gp}")


def cmd_solve(args):
    profile = _solitary(args.delta, dx=args.dx)
    path = resolve_out_path(args.out or _default_name("profile", args.delta))
    write_text(path, profile_csv_text(profile))
    _kv("delta", profile.delta)
    _kv("c", profile.c)
    _kv("eta_max", profile.eta_max)
    _kv("kappa0", profile.kappa0)
    _kv("samples", len(profile.x))
    _kv("max_abs_I1", abs(profile.I1).max())
    _kv("max_abs_I2", abs(profile.I2).max())
    _wrote_profile(path, args.gnuplot)
    return 0


def cmd_table(args):
    rows = diagnostics_table(args.deltas)
    print("delta,eta0,neg_kappa0,d0")
    failed = 0
    for r in rows:
        if r.error is not None:
            failed += 1
            print(f"{fmt(r.delta)},error,error,error  # {r.error}")
        else:
            print(f"{fmt(r.delta)},{fmt(r.eta0)},{fmt(r.neg_kappa0)},{fmt(r.d0)}")
    return 1 if failed else 0


def cmd_compare_kdv(args):
    profile = _solitary(args.delta)
    from .solitary_profile import compare_kdv
    err = compare_kdv(profile)
    _kv("delta", args.delta)
    _kv("eta_max", profile.eta_max)
    _kv("kdv_max", (4.0 / 3.0) * args.delta ** 2)
    _kv("sup_error", err)
    # delta^4 underflows for delta below about 1e-77; delta^2 cannot
    _kv("sup_error_over_delta4", err / args.delta ** 2 / args.delta ** 2)
    if args.delta < KDV_RESOLVED_DELTA:
        # sup_error ~ (8/15) delta^4 sinks below the rounding of eta ~ delta^2
        print(f"note: below delta = {KDV_RESOLVED_DELTA:g}, "
              "sup_error_over_delta4 is below the quadrature's resolution "
              "and is rounding noise", file=sys.stderr)
    return 0


def cmd_critical(args):
    cp = solve_critical()
    _kv("delta_c", cp.delta_c)
    _kv("eta_c0", cp.eta_c0)
    _kv("u_c0", cp.u_c0)
    _kv("c_c", cp.c_c)
    _kv("v_c0", cp.v_c0)
    _kv("slope_nondim", cp.slope_nondim)
    _kv("slope_dim", cp.slope_dim)
    _kv("theta_deg", cp.theta_deg)
    return 0


def cmd_extreme(args):
    from .extreme_wave import extreme_profile
    cp = solve_critical()
    profile = extreme_profile(cp)
    path = resolve_out_path(args.out or "extreme_profile.csv")
    write_text(path, profile_csv_text(profile))
    _kv("delta_c", cp.delta_c)
    _kv("eta_max", profile.eta_max)
    _kv("slope_dim", cp.slope_dim)
    _kv("theta_deg", cp.theta_deg)
    _kv("samples", len(profile.x))
    _wrote_profile(path, args.gnuplot)
    return 0


def cmd_dimensional(args):
    profile = _solitary(args.delta)
    from .solitary_profile import dimensionalize
    dp = dimensionalize(profile, args.depth, args.gravity)
    path = resolve_out_path(args.out or _default_name("dimensional", args.delta))
    # scaling by positive constants keeps the profile's bitwise mirror
    write_text(path, mirrored_csv_text(("x", "eta", "u"), (dp.x, dp.eta, dp.u)))
    _kv("delta", dp.delta)
    _kv("depth", dp.depth)
    _kv("gravity", dp.gravity)
    _kv("amplitude", dp.amplitude)
    _kv("phase_speed", dp.c)
    print(f"wrote {path}")
    return 0


def cmd_checks(args):
    import numpy as np

    from .model_params import build_params
    from .solitary_profile import kdv_profile
    from .theory_checks import (first_order_family, fundamental_checks,
                                q_eval, q_positivity, verify_kdv_solution)
    grid = np.linspace(-10.0, 10.0, 2001)
    params = build_params(args.p)
    lines = []

    def check(name, value, ok):
        lines.append((name, value, ok))

    check("kdv_residual", verify_kdv_solution(params.gamma, grid),
          lambda v: v <= 1e-12)
    fc = fundamental_checks(grid)
    check("ode_residual_u1", fc["ode_residual_u1"], lambda v: v <= 1e-10)
    check("ode_residual_u2", fc["ode_residual_u2"], lambda v: v <= 1e-10)
    check("wronskian_dev", fc["wronskian_dev"], lambda v: v <= 1e-12)
    check("decay_exponent_u1", fc["decay_exponent_u1"],
          lambda v: abs(v + 2.0) <= 0.04)
    check("growth_exponent_u2", fc["growth_exponent_u2"],
          lambda v: abs(v - 2.0) <= 0.04)
    qmin = q_positivity(args.p)
    check("q_min", qmin, lambda v: v > 0.0)
    if params.p.p == (2,):
        check("q_constant_dev", abs(q_eval(params, 0.0) - 4.0 / 9.0),
              lambda v: v <= 1e-14)
        c, eta, _, _ = first_order_family(0.1, 2.0 * params.gamma, grid)
        check("family_kdv_dev",
              float(np.max(np.abs(eta - kdv_profile(0.1, grid)))),
              lambda v: v <= 1e-15)
    failed = 0
    for name, value, ok in lines:
        good = ok(value)
        failed += 0 if good else 1
        print(f"{'PASS' if good else 'FAIL'} {name} = {fmt(value)}")
    return 1 if failed else 0


def _profile_csv_with_kdv(delta):
    from .solitary_profile import kdv_profile, solve_solitary
    profile = solve_solitary(delta, dx=0.01)
    eta_kdv = kdv_profile(delta, profile.x)
    return profile_csv_text(profile, extra=(("eta_kdv", eta_kdv),))


def _zoom_csv(delta):
    """The profile at delta near its crest, resampled on |x| <= 1 only."""
    from .solitary_profile import assemble_profile, solve_solitary
    profile = solve_solitary(delta)
    x = [i * ZOOM_DX for i in range(ZOOM_SAMPLES)]
    zoom = assemble_profile(delta, profile.c, x, *profile.interpolant(x),
                            kappa0=profile.kappa0,
                            interpolant=profile.interpolant)
    return profile_csv_text(zoom)


def reproduce_outputs(out_dir):
    """Write the deterministic reference output set; returns the manifest."""
    import json

    from .extreme_wave import extreme_profile
    entries = []
    for delta in PROFILE_DELTAS:
        name = _default_name("profile", delta)
        write_text(out_dir / name, _profile_csv_with_kdv(delta))
        entries.append({
            "file": name,
            "description": "surface elevation, velocity, and diagnostics at "
                           f"delta={delta!r} on a uniform grid, with the "
                           "classical-soliton reference column eta_kdv",
        })
    for delta in ZOOM_DELTAS:
        name = _default_name("crest_zoom", delta)
        write_text(out_dir / name, _zoom_csv(delta))
        entries.append({
            "file": name,
            "description": "near-crest samples (|x| <= 1) at "
                           f"delta={delta!r} resolving the sharpening crest",
        })
    profile = extreme_profile(solve_critical())
    write_text(out_dir / "extreme_profile.csv", profile_csv_text(profile))
    entries.append({
        "file": "extreme_profile.csv",
        "description": "surface elevation and velocity of the extreme wave "
                       "with its corner crest at x=0",
    })
    rows = diagnostics_table(TABLE_DELTAS)
    table = ["delta,eta0,neg_kappa0,d0"]
    for r in rows:
        table.append(f"{r.delta!r},{r.eta0!r},{r.neg_kappa0!r},{r.d0!r}")
    write_text(out_dir / "crest_table.csv", "\n".join(table) + "\n")
    entries.append({
        "file": "crest_table.csv",
        "description": "wave height, crest curvature, and crest denominator "
                       "over the shallowness sweep up to the critical value",
    })
    manifest = {"files": entries}
    write_text(out_dir / "manifest.json",
               json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def cmd_reproduce(args):
    out_dir = resolve_out_path(args.out or "reference_output")
    manifest = reproduce_outputs(out_dir)
    for entry in manifest["files"]:
        print(f"wrote {out_dir / entry['file']}")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


_DISPATCH = {
    "params": cmd_params,
    "crest": cmd_crest,
    "solve": cmd_solve,
    "table": cmd_table,
    "compare-kdv": cmd_compare_kdv,
    "critical": cmd_critical,
    "extreme": cmd_extreme,
    "dimensional": cmd_dimensional,
    "checks": cmd_checks,
    "reproduce-paper": cmd_reproduce,
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except IkwaveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
