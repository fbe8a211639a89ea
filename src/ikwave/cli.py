"""Command-line front end.

Exit codes: 0 success, 1 solver failure (no crest root beyond the critical
shallowness, integrator step underflow, ...) or an OSError such as a stdout
that was closed early or is full, 2 usage error.  A usage error that the
parser finds is two lines on stderr: the command's usage
("usage: ikwave solve ...", wrapped on a narrow terminal) and then
"ikwave solve: error: ...", which for a rejected value names it
("argument --delta: ...").  Scales that overflow or underflow in
dimensional, a delta so small (below about 1e-75) that its profile
underflows in solve, compare-kdv or dimensional, and an --out ending in .gp
(in any case) with --gnuplot in solve or extreme, whose plot script would
overwrite the CSV, are one line, "ikwave <command>: error: ...", raised
before anything is solved or written.  An exit 1 error is one line,
"error: <type>: <message>", except a closed pipe, which prints nothing.
Arguments are checked by the library's own checks (check_delta, check_dx,
check_positive, check_exponents, solve_solitary's for a profile that
underflows, and dimensionalize's for scales that overflow or underflow),
whose message a usage error carries.  All numeric output carries 12
significant digits.  An absolute --out path is used as given; a relative
one lands in $IK_OUT_DIR, else the working directory.  Reruns with the same
flags are byte-identical.

numpy is loaded only by the commands that compute a profile: solve,
compare-kdv, extreme, dimensional and reproduce-paper.  critical, crest and
table need only crest values, which crest_init computes with the standard
library; params prints the exact constants of model_params, and checks runs
theory_checks, whose exact proofs need only the standard library, so neither
they nor a usage error that the parser finds load numpy.  solve, compare-kdv
and dimensional solve the crest first, so a delta beyond the critical
shallowness fails with NoSolitaryRoot before numpy is imported.  No command
loads scipy.  main() sets OPENBLAS_NUM_THREADS=1 unless it is already set,
since no BLAS call here is large enough to use a thread pool; set it in the
environment to override.
"""

import argparse
import os
import sys
from functools import partial

from .crest_init import (TableRow, check_delta, check_dx, check_positive,
                         crest_curvature, crest_denominator,
                         diagnostics_table, solve_crest, solve_critical)
from .errors import IkwaveError
from .output import (PROFILE_COLUMNS, fmt, gnuplot_script, mirrored_csv_text,
                     profile_arrays, profile_csv_text, resolve_out_path,
                     write_text)

# compare-kdv's sup_error_over_delta4 is 8/15 + KDV_DELTA2_TERM delta^2 + ...
# for delta <= 0.1, where the sup sits at the crest: the crest series
# eta0 = (4/3) delta^2 + (8/15) delta^4 + (16/75) delta^6 + ..., the smallest
# root of F (crest_init), less (4/3) delta^2.  The rounding of
# eta ~ (4/3) delta^2 moves it by about 2 eps/delta^2, which exceeds the
# delta^2 term below KDV_RESOLVED_DELTA (about 2.1e-4)
KDV_DELTA2_TERM = 16 / 75
KDV_RESOLVED_DELTA = (2.0 * sys.float_info.epsilon / KDV_DELTA2_TERM) ** 0.25

PROFILE_DELTAS = (0.3, 0.45, 0.55, 0.6, 0.62, 0.62633493)
ZOOM_DELTAS = (0.6, 0.62, 0.625, 0.626, 0.62633493)
TABLE_DELTAS = (0.6, 0.62, 0.625, 0.626, 0.6263, 0.62633, 0.626334,
                0.6263349, 0.62633493)
# each crest zoom holds x = i * ZOOM_DX, |i| < ZOOM_SAMPLES, so |x| <= 1
ZOOM_DX = 0.002
ZOOM_SAMPLES = 501
# --gnuplot writes its plot script to the CSV's path with this suffix
PLOT_SUFFIX = ".gp"


class _UsageError(Exception):
    """A value that the library rejected after parsing; run() prints it as
    one line and returns 2."""


def _checked(check):
    """check as an argparse type: its ValueError becomes a usage error."""
    def parse(text):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _listed(check):
    """check on each item of a comma-separated list; ValueError if none."""
    def parse(text):
        vals = tuple(check(t) for t in text.split(",") if t)
        if not vals:
            raise ValueError("empty list")
        return vals
    return parse


def _exponents(text):
    """The exponents of a comma-separated list, checked by check_exponents."""
    p = _listed(int)(text)
    from .model_params import check_exponents
    return check_exponents(p)


def _kv(name, value, number=fmt):
    """Print name = value, a list or tuple as [v1, v2, ...]."""
    if isinstance(value, (list, tuple)):
        print(f"{name} = [" + ", ".join(map(number, value)) + "]")
    else:
        print(f"{name} = {number(value)}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ikwave",
        description="Solitary-wave solver for a depth-expanded water-wave "
                    "model (single quadratic expansion term).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p = command("params", cmd_params, "model matrices and scalar constants")
    p.add_argument("--p", type=_checked(_exponents), default=(2,),
                   help="comma-separated expansion exponents (default 2)")
    p.add_argument("--exact", action="store_true",
                   help="print exact rational values")

    p = command("crest", cmd_crest, "crest state at a given shallowness")
    p.add_argument("--delta", type=_checked(check_delta), required=True)

    p = command("solve", cmd_solve, "solve a full solitary profile to CSV")
    p.add_argument("--delta", type=_checked(check_delta), required=True)
    p.add_argument("--out", default=None, help="CSV path")
    p.add_argument("--dx", type=_checked(check_dx), default=None,
                   help="uniform resampling step")
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a plot script next to the CSV")

    p = command("table", cmd_table, "crest diagnostics over a delta sweep")
    p.add_argument("--deltas", type=_checked(_listed(check_delta)),
                   default=TABLE_DELTAS,
                   help="comma-separated shallowness values")

    p = command("compare-kdv", cmd_compare_kdv,
                "sup-norm distance from the classical soliton")
    p.add_argument("--delta", type=_checked(check_delta), required=True)

    command("critical", cmd_critical, "critical point of extreme form")

    p = command("extreme", cmd_extreme, "extreme-wave profile to CSV")
    p.add_argument("--out", default=None, help="CSV path")
    p.add_argument("--gnuplot", action="store_true")

    p = command("dimensional", cmd_dimensional,
                "profile in laboratory variables")
    p.add_argument("--delta", type=_checked(check_delta), required=True)
    for name in ("depth", "gravity"):
        p.add_argument(f"--{name}", required=True,
                       type=_checked(partial(check_positive, name=name)))
    p.add_argument("--out", default=None, help="CSV path")

    p = command("checks", cmd_checks, "analytic verification suite")
    p.add_argument("--p", type=_checked(_exponents), default=(2,))

    p = command("reproduce-paper", cmd_reproduce,
                "write the full reference output set "
                "(profiles, extreme wave, crest table, manifest)")
    p.add_argument("--out", default=None, help="output directory")

    return ap


def cmd_params(args):
    from .model_params import check_positivity, exact_params
    exact = dict(zip(("gamma", "gamma_vec", "kappa1", "kappa2", "kappa3"),
                     exact_params(args.p)))
    _kv("p", args.p)
    # fmt rounds each Fraction to the nearest double, as float() does
    for name, value in (*exact.items(), *check_positivity(args.p).items()):
        _kv(name, value)
    if args.exact:
        for name, value in exact.items():
            _kv(f"exact {name}", value, str)
    return 0


def cmd_crest(args):
    crest = solve_crest(args.delta)
    for name, value in crest._asdict().items():
        _kv(name, value)
    _kv("d0", crest_denominator(crest))
    _kv("kappa0", crest_curvature(crest))
    return 0


def _default_name(stem, delta):
    return f"{stem}_delta{delta!r}.csv"


def _solitary(delta, dx=None):
    """solve_solitary(delta, dx), after a standard-library crest solve, so
    that a delta beyond the critical value fails before numpy is imported.
    A delta whose profile underflows is a usage error."""
    solve_crest(delta)
    from .solitary_profile import solve_solitary
    try:
        return solve_solitary(delta, dx=dx)
    except ValueError as exc:
        raise _UsageError(exc) from None


def _profile_path(args, default):
    """The resolved path of a profile CSV, --out or default.  With
    --gnuplot, a path whose suffix is .gp in any case is a usage error,
    since the plot script next to it would overwrite it."""
    path = resolve_out_path(args.out or default)
    if args.gnuplot and path.suffix.lower() == PLOT_SUFFIX:
        raise _UsageError(f"--out {args.out} ends in {PLOT_SUFFIX}, where "
                          "--gnuplot would overwrite it with the plot script")
    return path


def _wrote_profile(path, gnuplot):
    """Report the profile CSV at path and, with --gnuplot, write and report
    a plot script for it next to it."""
    print(f"wrote {path}")
    if gnuplot:
        gp = path.with_suffix(PLOT_SUFFIX)
        write_text(gp, gnuplot_script(path.name))
        print(f"wrote {gp}")


def cmd_solve(args):
    path = _profile_path(args, _default_name("profile", args.delta))
    profile = _solitary(args.delta, dx=args.dx)
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


def _table_lines(rows, number):
    """The crest table as CSV lines, headed by TableRow's value fields."""
    *columns, _ = TableRow._fields
    lines = [",".join(columns)]
    for r in rows:
        if r.error is None:
            lines.append(",".join(map(number, r[:-1])))
        else:
            lines.append(number(r.delta) + ",error" * (len(columns) - 1)
                         + f"  # {r.error}")
    return lines


def cmd_table(args):
    rows = diagnostics_table(args.deltas)
    print(*_table_lines(rows, fmt), sep="\n")
    return 1 if any(r.error is not None for r in rows) else 0


def cmd_compare_kdv(args):
    profile = _solitary(args.delta)
    from .solitary_profile import compare_kdv, kdv_profile
    err = compare_kdv(profile)
    _kv("delta", args.delta)
    _kv("eta_max", profile.eta_max)
    _kv("kdv_max", kdv_profile(args.delta, 0.0))
    _kv("sup_error", err)
    # delta^4 underflows for delta below about 1e-77; delta^2 cannot
    _kv("sup_error_over_delta4", err / args.delta ** 2 / args.delta ** 2)
    if args.delta < KDV_RESOLVED_DELTA:
        rounding = 2.0 * sys.float_info.epsilon / args.delta ** 2
        print(f"note: below delta = {KDV_RESOLVED_DELTA:.2g}, rounding of "
              "eta ~ (4/3) delta^2 moves sup_error_over_delta4 by about "
              f"2 eps/delta^2 = {rounding:.2g}, more than its delta^2 term; "
              "only its limit 8/15 is resolved", file=sys.stderr)
    return 0


def cmd_critical(args):
    for name, value in solve_critical()._asdict().items():
        _kv(name, value)
    return 0


def cmd_extreme(args):
    path = _profile_path(args, "extreme_profile.csv")
    from .extreme_wave import extreme_profile
    cp = solve_critical()
    profile = extreme_profile(cp)
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
    try:
        dp = dimensionalize(profile, args.depth, args.gravity)
    except ValueError as exc:
        raise _UsageError(exc) from None
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
    from .model_params import exact_params
    from .theory_checks import (fundamental_checks, q_positivity,
                                verify_kdv_solution)
    proved = {"kdv_residual": verify_kdv_solution(exact_params(args.p)[0]),
              **fundamental_checks()}
    # each residual is exactly 0, and each tail rate exactly -2 or 2
    rates = {"decay_exponent_u1": -2, "growth_exponent_u2": 2}
    lines = [(name, value, value == rates.get(name, 0))
             for name, value in proved.items()]
    q_min = q_positivity(args.p)
    lines.append(("q_min", q_min, q_min > 0.0))
    if args.p == (2,):
        # q_min is the exact q(0) = 4/9 correctly rounded, as 4.0 / 9.0 is
        q_dev = abs(q_min - 4.0 / 9.0)
        lines.append(("q_constant_dev", q_dev, q_dev == 0.0))
    for name, value, good in lines:
        print(f"{'PASS' if good else 'FAIL'} {name} = {fmt(value)}")
    return 0 if all(good for *_, good in lines) else 1


def _profile_csv_with_kdv(delta):
    from .solitary_profile import kdv_profile, solve_solitary
    profile = solve_solitary(delta, dx=0.01)
    eta_kdv = kdv_profile(delta, profile.x)
    return mirrored_csv_text((*PROFILE_COLUMNS, "eta_kdv"),
                             [*profile_arrays(profile), eta_kdv])


def _zoom_csv(delta):
    """The profile at delta near its crest, resampled on |x| <= 1 only."""
    from .solitary_profile import assemble_profile, integrate_half
    crest = solve_crest(delta)
    zoom = assemble_profile(integrate_half(crest),
                            [i * ZOOM_DX for i in range(ZOOM_SAMPLES)],
                            kappa0=crest_curvature(crest))
    return profile_csv_text(zoom)


def reproduce_outputs(out_dir):
    """Write the deterministic reference output set; returns the manifest."""
    import json

    from .extreme_wave import extreme_profile
    entries = []

    def write(name, text, description):
        write_text(out_dir / name, text)
        entries.append({"file": name, "description": description})

    for delta in PROFILE_DELTAS:
        write(_default_name("profile", delta), _profile_csv_with_kdv(delta),
              "surface elevation, velocity, and diagnostics at "
              f"delta={delta!r} on a uniform grid, with the "
              "classical-soliton reference column eta_kdv")
    for delta in ZOOM_DELTAS:
        write(_default_name("crest_zoom", delta), _zoom_csv(delta),
              "near-crest samples (|x| <= 1) at "
              f"delta={delta!r} resolving the sharpening crest")
    write("extreme_profile.csv",
          profile_csv_text(extreme_profile(solve_critical())),
          "surface elevation and velocity of the extreme wave "
          "with its corner crest at x=0")
    table = _table_lines(diagnostics_table(TABLE_DELTAS), repr)
    write("crest_table.csv", "\n".join(table) + "\n",
          "wave height, crest curvature, and crest denominator "
          "over the shallowness sweep up to the critical value")
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


def run(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except IkwaveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"ikwave {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main():
    # the largest BLAS call here is a 16 x 16 product, so OpenBLAS's worker
    # threads only cost start-up time; a value the user set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # so that a failing stdout fails here, not at exit
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # Python's SIGPIPE recipe: the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
