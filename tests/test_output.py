import math

import numpy as np
import pytest

from ikwave import solve_solitary
from ikwave.output import (PROFILE_COLUMNS, csv_text, fmt, gnuplot_script,
                           profile_arrays, profile_csv_text, resolve_out_dir,
                           resolve_out_path, write_text)


def test_fmt_has_at_least_nine_significant_digits():
    assert fmt(1.0 / 3.0) == "0.333333333333"
    assert fmt(0.62633493) == "0.62633493"
    assert fmt(13840.0) == "13840"
    assert len(fmt(np.pi).replace("0.", "").replace(".", "")) >= 9


def test_csv_round_trips_doubles(tmp_path):
    xs = np.array([0.1, 1.0 / 3.0, 1e-17, -2.5e8])
    ys = np.array([1.0, 2.0, 3.0, 4.0])
    text = csv_text(("x", "y"), (xs, ys))
    lines = text.splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 5
    assert text.endswith("\n")
    for line, x, y in zip(lines[1:], xs, ys):
        sx, sy = line.split(",")
        assert float(sx) == x
        assert float(sy) == y


def _per_element_csv(columns, arrays):
    """csv_text as first written: repr(float(v)) of each element in turn."""
    arrays = [list(a) for a in arrays]
    lines = [",".join(columns)]
    for i in range(len(arrays[0])):
        lines.append(",".join(repr(float(a[i])) for a in arrays))
    return "\n".join(lines) + "\n"


def test_csv_bytes_equal_the_per_element_formula():
    profile = solve_solitary(0.3, dx=0.01)
    arrays = profile_arrays(profile)
    text = csv_text(PROFILE_COLUMNS, arrays)
    assert text == _per_element_csv(PROFILE_COLUMNS, arrays)
    # phi1 at the crest is -0.0 on the mirrored grid
    crest = next(line for line in text.splitlines() if line.startswith("0.0,"))
    assert crest.split(",")[PROFILE_COLUMNS.index("phi1")] == "-0.0"
    odd = ([math.nan, math.inf, -math.inf, -0.0, 5e-324, 3],
           np.array([1.0, -2.5e8, 1e-17, 0.1, 1.0 / 3.0, 2.0]),
           (7, 8, 9, 10, 11, 12))
    assert csv_text(("a", "b", "c"), odd) == _per_element_csv(("a", "b", "c"), odd)


def test_csv_rejects_ragged_columns():
    with pytest.raises(ValueError):
        csv_text(("a", "b"), ([1.0, 2.0], [1.0]))
    with pytest.raises(ValueError):
        csv_text(("a", "b"), (np.zeros(3), np.zeros(2)))
    with pytest.raises(ValueError):
        csv_text(("a", "b"), (np.zeros((3, 2)), np.zeros((3, 2))))


def test_profile_csv_columns(profile_cache):
    text = profile_csv_text(profile_cache(0.3))
    header = text.splitlines()[0]
    assert header == "x,eta,u,phi1,phi0_prime,phi1_prime,d,I1,I2"
    # a ragged extra column must be rejected
    with pytest.raises(ValueError):
        profile_csv_text(profile_cache(0.3), extra=(("zeros", np.zeros(1)),))


def test_out_dir_resolution(monkeypatch, tmp_path):
    monkeypatch.delenv("IK_OUT_DIR", raising=False)
    assert str(resolve_out_dir()) == "."
    monkeypatch.setenv("IK_OUT_DIR", str(tmp_path))
    assert resolve_out_dir() == tmp_path
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
