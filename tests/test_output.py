import dataclasses
import math

import numpy as np
import pytest

from ikwave import dimensionalize, extreme_profile, solve_solitary
from ikwave.cli import _profile_csv_with_kdv, _zoom_csv
from ikwave.output import (ODD_COLUMNS, PROFILE_COLUMNS, fmt, gnuplot_script,
                           mirrored_csv_text, profile_arrays, profile_csv_text,
                           resolve_out_path, write_text)
from ikwave.solitary_profile import kdv_profile
from oracles import DELTA_C

NEAR_CRITICAL = DELTA_C - 1e-10


def test_fmt_has_at_least_nine_significant_digits():
    assert fmt(1.0 / 3.0) == "0.333333333333"
    assert fmt(0.62633493) == "0.62633493"
    assert fmt(13840.0) == "13840"
    assert len(fmt(np.pi).replace("0.", "").replace(".", "")) >= 9


def _per_element_csv(columns, arrays):
    """CSV text as first written: repr(float(v)) of each element in turn."""
    arrays = [list(a) for a in arrays]
    lines = [",".join(columns)]
    for i in range(len(arrays[0])):
        lines.append(",".join(repr(float(a[i])) for a in arrays))
    return "\n".join(lines) + "\n"


def test_csv_bytes_equal_the_per_element_formula():
    text = profile_csv_text(solve_solitary(0.3, dx=0.01))
    # phi1 at the crest is -0.0 on the mirrored grid
    crest = next(line for line in text.splitlines() if line.startswith("0.0,"))
    assert crest.split(",")[PROFILE_COLUMNS.index("phi1")] == "-0.0"
    # lists, tuples and ints are columns too
    mixed = ((-3, 0, 3), [math.inf, -0.0, math.inf],
             np.array([1e-17, 0.1, 1e-17]))
    assert mirrored_csv_text(("x", "a", "b"), mixed) == _per_element_csv(
        ("x", "a", "b"), mixed)


@pytest.mark.parametrize("dx", [None, 0.01])
@pytest.mark.parametrize("delta", [1e-4, 0.3, 0.626, NEAR_CRITICAL])
def test_profile_csv_bytes_equal_the_per_element_formula(delta, dx):
    profile = solve_solitary(delta, dx=dx)
    assert profile_csv_text(profile) == _per_element_csv(
        PROFILE_COLUMNS, profile_arrays(profile))


def test_mirrored_csvs_of_the_cli_equal_the_per_element_formula(
        critical_point):
    extreme = extreme_profile(critical_point)
    assert profile_csv_text(extreme) == _per_element_csv(
        PROFILE_COLUMNS, profile_arrays(extreme))
    # reproduce-paper's profiles carry the even eta_kdv column
    profile = solve_solitary(0.55, dx=0.01)
    columns = PROFILE_COLUMNS + ("eta_kdv",)
    arrays = profile_arrays(profile) + [kdv_profile(0.55, profile.x)]
    assert _profile_csv_with_kdv(0.55) == _per_element_csv(columns, arrays)
    # its crest zooms keep |x| <= 1, a symmetric mask
    zoom = solve_solitary(0.626, dx=0.002)
    mask = np.abs(zoom.x) <= 1.0 + 1e-12
    assert _zoom_csv(0.626) == _per_element_csv(
        PROFILE_COLUMNS, [a[mask] for a in profile_arrays(zoom)])
    # the dimensional CSV scales the mirrored arrays by positive constants
    dp = dimensionalize(solve_solitary(0.4), 2.0, 9.81)
    arrays = (dp.x, dp.eta, dp.u)
    assert mirrored_csv_text(("x", "eta", "u"), arrays) == _per_element_csv(
        ("x", "eta", "u"), arrays)


def _mirror(columns, right_halves):
    """Full columns from right halves (crest first), as assemble_profile
    mirrors them."""
    return [np.concatenate([(-a if name in ODD_COLUMNS else a)[:0:-1], a])
            for name, a in zip(columns, map(np.asarray, right_halves))]


def test_csv_round_trips_doubles():
    columns = ("x", "y")
    arrays = _mirror(columns, ([0.0, 1e-17, 0.1, 1.0 / 3.0, 2.5e8],
                               [1.0, 2.0, 1.0 / 3.0, 1e-300, 4.0]))
    text = mirrored_csv_text(columns, arrays)
    lines = text.splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 10
    assert text.endswith("\n")
    for line, x, y in zip(lines[1:], *arrays, strict=True):
        sx, sy = line.split(",")
        assert float(sx) == x
        assert float(sy) == y


def test_mirrored_csv_negates_special_values_like_repr():
    nan, inf, tiny = math.nan, math.inf, 5e-324
    columns = ("x", "phi1", "eta", "u")
    arrays = _mirror(columns, (
        [0.0, tiny, 1.0 / 3.0, 2.5e8, inf, nan],
        [-0.0, 0.0, -tiny, nan, -inf, 1e-17],
        [nan, inf, -inf, -0.0, 0.0, tiny],
        [-tiny, -0.0, 0.0, nan, inf, -inf],
    ))
    text = mirrored_csv_text(columns, arrays)
    assert text == _per_element_csv(columns, arrays)
    lines = text.splitlines()
    assert lines[1] == "nan,-1e-17,5e-324,-inf"
    assert lines[3] == "-250000000.0,nan,-0.0,nan"
    assert lines[5] == "-5e-324,-0.0,inf,-0.0"


def test_mirrored_csv_rejects_what_is_not_a_mirror(profile_cache):
    profile = profile_cache(0.3)
    k = len(profile.x) // 4
    broken = dataclasses.replace(profile, phi1=profile.phi1.copy())
    broken.phi1[k] = -broken.phi1[k]
    with pytest.raises(ValueError, match="phi1"):
        profile_csv_text(broken)
    arrays = profile_arrays(profile)
    with pytest.raises(ValueError, match="odd length"):
        mirrored_csv_text(PROFILE_COLUMNS, [a[:-1] for a in arrays])
    with pytest.raises(ValueError, match="x = 0"):
        mirrored_csv_text(PROFILE_COLUMNS, [a[2:] for a in arrays])
    # 0.0 == -0.0, but the two print differently
    with pytest.raises(ValueError, match="phi1"):
        mirrored_csv_text(("x", "phi1"), ([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="x"):
        mirrored_csv_text(("eta",), ([1.0],))


def test_csv_rejects_ragged_columns():
    for arrays in (([-1.0, 0.0, 1.0], [1.0]), (np.zeros(3), np.zeros(2)),
                   (np.zeros((3, 2)), np.zeros((3, 2)))):
        with pytest.raises(ValueError, match="1-D and of equal length"):
            mirrored_csv_text(("x", "b"), arrays)


def test_profile_csv_columns(profile_cache):
    text = profile_csv_text(profile_cache(0.3))
    header = text.splitlines()[0]
    assert header == "x,eta,u,phi1,phi0_prime,phi1_prime,d,I1,I2"


def test_out_dir_resolution(monkeypatch, tmp_path):
    # unset or empty, $IK_OUT_DIR leaves a relative name in the cwd
    monkeypatch.delenv("IK_OUT_DIR", raising=False)
    assert str(resolve_out_path("a.csv")) == "a.csv"
    monkeypatch.setenv("IK_OUT_DIR", "")
    assert str(resolve_out_path("a.csv")) == "a.csv"
    monkeypatch.setenv("IK_OUT_DIR", str(tmp_path))
    assert resolve_out_path("a.csv") == tmp_path / "a.csv"
    assert resolve_out_path(tmp_path / "b.csv") == tmp_path / "b.csv"


def test_write_text_creates_parents(tmp_path):
    target = tmp_path / "deep" / "dir" / "f.txt"
    write_text(target, "hello\n")
    assert target.read_text() == "hello\n"


def test_gnuplot_script_references_columns():
    script = gnuplot_script("prof.csv")
    assert script.splitlines()[-1] == (
        "plot 'prof.csv' using 1:2 with lines, 'prof.csv' using 1:3 with lines")
    assert "set datafile separator ','" in script
    assert PROFILE_COLUMNS[:3] == ("x", "eta", "u")
