import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from ikwave.cli import run
from ikwave.crest_init import DX_MIN
from ikwave.solitary_profile import solve_solitary


@pytest.fixture
def out_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("IK_OUT_DIR", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("argv, argument", [
    ([], "required: command"),
    (["no-such-command"], "argument command:"),
    (["solve"], "required: --delta"),
    (["solve", "--delta", "-0.5"], "argument --delta:"),
    (["solve", "--delta", "abc"], "argument --delta:"),
    # delta^2 below the smallest normal float would make the crest height 0
    (["solve", "--delta", "1e-200"], "argument --delta:"),
    (["crest", "--delta", "1e-155"], "argument --delta:"),
    (["dimensional", "--delta", "0.3", "--depth", "0", "--gravity", "9.81"],
     "argument --depth:"),
    (["params", "--p", str(2 ** 1024)], "argument --p:"),
    (["checks", "--p", f"1,{2 ** 1024}"], "argument --p:"),
    # an empty item is an error, wherever it stands in the list
    (["table", "--deltas", "0.3,,0.4"], "argument --deltas:"),
    (["table", "--deltas", "0.3,"], "argument --deltas:"),
    (["table", "--deltas", ","], "argument --deltas:"),
    (["params", "--p", "2,,3"], "argument --p:"),
    (["checks", "--p", ",2"], "argument --p:"),
])
def test_usage_errors_name_their_argument(argv, argument, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert argument in err
    assert "Traceback" not in err


# solve_solitary and --dx check dx with the one function, check_dx
@pytest.mark.parametrize("dx", [0.0, -0.1, -1.0, math.nan, math.inf, 5e-5,
                                math.nextafter(DX_MIN, 0.0)])
def test_library_and_cli_reject_the_same_dx(dx, out_dir, capsys):
    with pytest.raises(ValueError):
        solve_solitary(0.3, dx=dx)
    assert run(["solve", "--delta", "0.3", "--dx", repr(dx)]) == 2
    assert "argument --dx: " in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("dx", ["1e-320", "1e-9", "5e-5"])
def test_solve_rejects_dx_below_minimum(dx, out_dir, capsys):
    assert run(["solve", "--delta", "0.3", "--dx", dx]) == 2
    err = capsys.readouterr().err
    assert "argument --dx: must be at least 0.0001" in err
    assert list(out_dir.iterdir()) == []


COMMANDS = ["params", "crest", "solve", "table", "compare-kdv", "critical",
            "extreme", "dimensional", "checks", "reproduce-paper"]


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    # each command has a row of its own in the command table
    for command in COMMANDS:
        assert re.search(rf"^    {command}( |$)", out, re.M), command


def test_solver_failure_exits_1(capsys):
    for args in (["solve"], ["compare-kdv"],
                 ["dimensional", "--depth", "2", "--gravity", "9.81"]):
        assert run([*args, "--delta", "0.7"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        # one line that names delta_c to every digit
        assert err == ("error: NoSolitaryRoot: the crest polynomial has no "
                       "root at delta=0.7; solitary waves exist only for "
                       "delta <= 0.6263349307245629\n")


def test_critical_output(capsys):
    assert run(["critical"]) == 0
    out = capsys.readouterr().out
    assert "delta_c = 0.626334930725" in out
    assert "theta_deg = 152.57860144" in out
    assert "slope_dim = 0.243971566685" in out


# params --p 2 --exact as printed from numpy's float solve and eigvalsh;
# rounding the exact values must not change a byte of it
PARAMS_2_EXACT = """\
p = [2]
gamma = 0.333333333333
gamma_vec = [0.5]
kappa1 = 0.166666666667
kappa2 = 0.5
kappa3 = 1
min_eig_A1 = 1.33333333333
min_eig_A0_centered = 0.0888888888889
exact gamma = 1/3
exact gamma_vec = [1/2]
exact kappa1 = 1/6
exact kappa2 = 1/2
exact kappa3 = 1
"""


def test_params_exact(capsys):
    assert run(["params", "--p", "2", "--exact"]) == 0
    assert capsys.readouterr().out == PARAMS_2_EXACT
    # exact zeros print as 0, not as the rounding noise of a float solve
    assert run(["params", "--p", "1,2,3"]) == 0
    assert "gamma_vec = [0, 0.5, 0]\n" in capsys.readouterr().out
    assert run(["params", "--p", "1,2,3", "--exact"]) == 0
    assert "exact gamma_vec = [0, 1/2, 0]\n" in capsys.readouterr().out


def test_params_usage_error(capsys):
    # unparsable, empty or with an empty item, and parsable but rejected
    # by check_exponents
    for p in ["2,x", "", "2,", "2,1", "2,2", "0"]:
        assert run(["params", "--p", p]) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_error_shapes_on_stderr(capsys, monkeypatch):
    # wide enough that the parser prints each usage on one line
    monkeypatch.setenv("COLUMNS", "200")
    # the parser's usage errors: the usage line, then the error line
    assert run(["params", "--p", "2,2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage: ikwave params [-h] [--p P] [--exact]",
        "ikwave params: error: argument --p: "
        "exponents must be strictly increasing"]
    assert run(["solve", "--delta", "abc"]) == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: ikwave solve [-h] --delta DELTA ")
    assert error == ("ikwave solve: error: argument --delta: "
                     "could not convert string to float: 'abc'")
    # scales that overflow: one line, in the parser's form
    assert run(["dimensional", "--delta", "0.3", "--depth", "1e308",
                "--gravity", "9.81"]) == 2
    [error] = capsys.readouterr().err.splitlines()
    assert error.startswith("ikwave dimensional: error: depth 1e+308 ")
    # a solver failure: one line, exit 1
    assert run(["solve", "--delta", "0.7"]) == 1
    [error] = capsys.readouterr().err.splitlines()
    assert error.startswith("error: NoSolitaryRoot: ")


def test_crest_prints_block(capsys):
    assert run(["crest", "--delta", "0.6"]) == 0
    out = capsys.readouterr().out
    assert "eta0 = 0.581258121604" in out
    assert "d0 = 1.55721530971" in out


def test_crest_curvature_keeps_its_digits_for_small_delta(capsys):
    # the KdV value -(8/3) delta^2; c eta + H u cancels to 0 here
    assert run(["crest", "--delta", "1e-8"]) == 0
    assert "kappa0 = -2.66666666667e-16" in capsys.readouterr().out.splitlines()
    assert run(["table", "--deltas", "1e-8"]) == 0
    assert capsys.readouterr().out == (
        "delta,eta0,neg_kappa0,d0\n"
        "1e-08,1.33333333333e-16,2.66666666667e-16,5\n")


def test_last_crest_of_the_branch_has_finite_curvature(capsys):
    # 0.6263349307245629 is the largest float below the critical value
    assert run(["crest", "--delta", "0.6263349307245629"]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.splitlines())
    # correctly rounded, where the crest root is nearly double
    assert values["eta0"] == "0.687926330883"
    assert np.isfinite(float(values["kappa0"]))
    assert run(["table", "--deltas", "0.6263349307245629"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert np.isfinite(float(out[1].split(",")[2]))


@pytest.mark.parametrize("deltas", ["0,0.5", "-0.1", "nan", "inf", "0.6,x",
                                    "0.6,1e-200"])
def test_table_rejects_bad_deltas(deltas, capsys):
    assert run(["table", "--deltas", deltas]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_table_reports_bad_rows(capsys):
    assert run(["table", "--deltas", "0.6,0.7"]) == 1
    out = capsys.readouterr().out
    assert "error" in out
    assert "0.581258" in out  # good row still present


def test_solve_writes_csv(out_dir, capsys):
    assert run(["solve", "--delta", "0.3", "--dx", "0.05"]) == 0
    path = out_dir / "profile_delta0.3.csv"
    assert path.exists()
    header, first = path.read_text().splitlines()[:2]
    assert header.startswith("x,eta,u")
    assert len(first.split(",")) == 9


def test_solve_gnuplot_flag(out_dir, capsys):
    # solve and extreme share the plot-script tail
    for command in (["solve", "--delta", "0.3"], ["extreme"]):
        name = command[0]
        assert run(command + ["--out", f"{name}.csv", "--gnuplot"]) == 0
        assert (out_dir / f"{name}.csv").exists()
        script = (out_dir / f"{name}.gp").read_text()
        assert f"'{name}.csv'" in script
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"wrote {out_dir / name}.csv", f"wrote {out_dir / name}.gp"]


@pytest.mark.parametrize("out", ["p.gp", "P.GP"])
@pytest.mark.parametrize("command", [["solve", "--delta", "0.3"],
                                     ["extreme"]])
def test_gnuplot_onto_the_csv_is_a_usage_error(command, out, out_dir,
                                               capsys):
    # the plot script takes the CSV's name with suffix .gp
    assert run(command + ["--out", out, "--gnuplot"]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"ikwave {command[0]}: error: --out ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert list(out_dir.iterdir()) == []


def test_solve_rerun_is_byte_identical(out_dir):
    assert run(["solve", "--delta", "0.45", "--out", "a.csv"]) == 0
    first = (out_dir / "a.csv").read_bytes()
    assert run(["solve", "--delta", "0.45", "--out", "a.csv"]) == 0
    assert (out_dir / "a.csv").read_bytes() == first


def test_compare_kdv_output(capsys):
    assert run(["compare-kdv", "--delta", "0.2"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("sup_error_over_delta4")][0]
    assert 0.3 <= float(line.split("=")[1]) <= 1.0


@pytest.mark.parametrize("delta, noted", [("1e-5", True), ("1e-3", False)])
def test_compare_kdv_notes_unresolved_ratio(delta, noted, capsys):
    assert run(["compare-kdv", "--delta", delta]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == f"delta = {float(delta):.12g}"
    assert len(out.splitlines()) == 5
    assert ("moves sup_error_over_delta4 by about 2 eps/delta^2 = 4.4e-06, "
            "more than its delta^2 term" in err) is noted


def test_extreme_writes_csv(out_dir, capsys):
    assert run(["extreme", "--out", "ew.csv"]) == 0
    data = np.genfromtxt(out_dir / "ew.csv", delimiter=",", names=True)
    assert float(np.max(data["eta"])) == pytest.approx(0.687926, abs=1e-6)
    out = capsys.readouterr().out
    assert "theta_deg = 152.57860144" in out


def test_dimensional_writes_csv(out_dir, capsys):
    assert run(["dimensional", "--delta", "0.3", "--depth", "2",
                "--gravity", "9.81", "--out", "dim.csv"]) == 0
    header = (out_dir / "dim.csv").read_text().splitlines()[0]
    assert header == "x,eta,u"
    out = capsys.readouterr().out
    assert "amplitude = " in out


# the six proved lines print exact values, the same on every platform
PROVED = """\
PASS kdv_residual = 0
PASS ode_residual_u1 = 0
PASS ode_residual_u2 = 0
PASS wronskian_dev = 0
PASS decay_exponent_u1 = -2
PASS growth_exponent_u2 = 2
"""


def test_checks_pass(capsys):
    assert run(["checks"]) == 0
    assert capsys.readouterr().out == PROVED + (
        "PASS q_min = 0.444444444444\n"
        "PASS q_constant_dev = 0\n")


def test_checks_builds_q_once(monkeypatch):
    # q_constant_dev comes from the q_min that q_positivity returned
    from ikwave import theory_checks
    calls = []
    build = theory_checks.q_coefficients
    monkeypatch.setattr(theory_checks, "q_coefficients",
                        lambda p: calls.append(p) or build(p))
    assert run(["checks"]) == 0
    assert calls == [(2,)]


def test_checks_two_term_set(capsys):
    assert run(["checks", "--p", "1,2"]) == 0
    assert capsys.readouterr().out == PROVED + "PASS q_min = 0.111111111111\n"
    assert run(["checks", "--p", "1,2,3"]) == 0
    assert (capsys.readouterr().out
            == PROVED + "PASS q_min = 0.00555555555556\n")


# a closed form with one factor S = sech^2 x too many fails its proofs
@pytest.mark.parametrize("which, failed", [
    (0, ["ode_residual_u1", "wronskian_dev", "decay_exponent_u1"]),
    (1, ["ode_residual_u2", "wronskian_dev", "growth_exponent_u2"]),
], ids=["u1", "u2"])
def test_corrupted_closed_form_fails_checks(which, failed, monkeypatch,
                                            capsys):
    from ikwave import theory_checks
    pair = list(theory_checks._exact_pair())
    n, k = pair[which]
    pair[which] = (n * theory_checks._variables()[2], k)
    monkeypatch.setattr(theory_checks, "_exact_pair", lambda: pair)
    assert run(["checks"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert [line.split()[1] for line in lines
            if not line.startswith("PASS ")] == failed


def test_reproduce_outputs(out_dir, capsys):
    assert run(["reproduce-paper", "--out", "ref"]) == 0
    ref = out_dir / "ref"
    manifest = json.loads((ref / "manifest.json").read_text())
    names = [e["file"] for e in manifest["files"]]
    profiles = [n for n in names if n.startswith("profile_delta")]
    assert len(profiles) == 6
    for name in names:
        assert (ref / name).exists()
    # comparison column present in every full profile file
    for name in profiles:
        assert (ref / name).read_text().splitlines()[0].endswith("eta_kdv")
    data = np.genfromtxt(ref / "extreme_profile.csv", delimiter=",", names=True)
    assert float(np.max(data["eta"])) == pytest.approx(0.687926, abs=1e-6)
    table = (ref / "crest_table.csv").read_text().splitlines()
    assert len(table) == 10
    for line in table[1:]:
        for field in line.split(","):
            float(field)
    # a rerun into a fresh directory writes the same files, byte for byte
    assert run(["reproduce-paper", "--out", "again"]) == 0
    again = out_dir / "again"
    files = sorted(path.name for path in ref.iterdir())
    assert sorted(path.name for path in again.iterdir()) == files
    for name in files:
        assert (again / name).read_bytes() == (ref / name).read_bytes(), name


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ikwave", "critical"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "delta_c = 0.626334930725" in proc.stdout


@pytest.mark.parametrize("args", [["critical"], ["table"],
                                  ["params", "--p", "2", "--exact"],
                                  ["crest", "--delta", "0.3"]])
def test_closed_stdout_exits_1_without_traceback(args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ikwave", *args],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


# a full stdout, and an output path that cannot be created, are one line
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [["critical"], ["checks"]])
def test_full_stdout_exits_1_with_one_line(args):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "ikwave", *args],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: OSError: ")
    assert proc.stderr.count("\n") == 1


def test_unwritable_out_path_exits_1_with_one_line(tmp_path):
    (tmp_path / "file").write_text("")
    proc = subprocess.run([sys.executable, "-m", "ikwave", "solve", "--delta",
                           "0.3", "--out", str(tmp_path / "file" / "x.csv")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: FileExistsError: ")
    assert proc.stderr.count("\n") == 1


# dimensionalize and --depth/--gravity check with the one check_positive
@pytest.mark.parametrize("name", ["depth", "gravity"])
def test_library_and_cli_reject_the_same_scale(name, profile_cache, out_dir,
                                               capsys):
    from ikwave import dimensionalize
    scales = {"depth": 2.0, "gravity": 9.81, name: 0.0}
    with pytest.raises(ValueError) as exc:
        dimensionalize(profile_cache(0.3), **scales)
    assert run(["dimensional", "--delta", "0.3",
                "--depth", repr(scales["depth"]),
                "--gravity", repr(scales["gravity"])]) == 2
    assert f"argument --{name}: {exc.value}" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


# scales whose product with the profile overflows are a usage error too:
# (h/delta) x overflows, and inf * 0 at the crest is nan; sqrt(gh) overflows
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("depth, gravity", [("1e308", "9.81"),
                                            ("1e300", "1e300")])
def test_dimensional_overflow_is_a_usage_error(depth, gravity, out_dir,
                                               capsys):
    assert run(["dimensional", "--delta", "0.3", "--depth", depth,
                "--gravity", gravity]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"ikwave dimensional: error: depth {float(depth)!r} and "
                   f"gravity {float(gravity)!r} scale the profile past the "
                   "largest float\n")
    assert list(out_dir.iterdir()) == []


# and so are scales that underflow it: x, eta and u would lose digits as
# subnormals, and the amplitude or the phase speed would be 0
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("depth, gravity", [("1e-310", "9.81"),
                                            ("1e-320", "9.81"),
                                            ("5e-324", "9.81"),
                                            ("1e-300", "1e-300")])
def test_dimensional_underflow_is_a_usage_error(depth, gravity, out_dir,
                                                capsys):
    assert run(["dimensional", "--delta", "0.3", "--depth", depth,
                "--gravity", gravity]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"ikwave dimensional: error: depth {float(depth)!r} and "
                   f"gravity {float(gravity)!r} scale the profile below the "
                   "smallest float\n")
    assert list(out_dir.iterdir()) == []


# a delta whose profile leaves the normal range is a usage error of one
# line in each command that solves a profile; crest and table still print.
# phi1, of order delta^4, goes first: at 1e-76 some samples are subnormal,
# at 1e-90 every phi1 is 0
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", ["1e-76", "1e-90"])
@pytest.mark.parametrize("args", [["solve"], ["solve", "--dx", "0.01"],
                                  ["compare-kdv"],
                                  ["dimensional", "--depth", "2",
                                   "--gravity", "9.81"]],
                         ids=lambda args: " ".join(args))
def test_profile_underflow_is_a_usage_error(args, delta, out_dir, capsys):
    assert run([args[0], "--delta", delta, *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"ikwave {args[0]}: error: delta {float(delta)!r} is too "
                   "small: its profile falls below the smallest float\n")
    assert list(out_dir.iterdir()) == []
    assert run(["crest", "--delta", delta]) == 0
    assert run(["table", "--deltas", delta]) == 0
