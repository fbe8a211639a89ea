"""CSV, plot-script, and number formatting for the command-line layer.

Data files use '.' decimals, '\\n' line endings, a header row, and Python's
shortest round-trip float repr, so a rerun with identical flags is
byte-identical and a reader recovers the exact doubles.  Plot scripts are
plain text for an external gnuplot; nothing here executes them.

Profiles are even in x, and assemble_profile mirrors them bitwise, so the
rows left of the crest repeat the rows right of it with x and phi1 negated.
mirrored_csv_text formats the right half only and writes each left-half
row from those strings; the bytes are those of csv_text on the same arrays.

numpy is imported by the functions that take arrays, so that fmt and the
path helpers serve the commands that never load it.
"""

import os
from pathlib import Path

PROFILE_COLUMNS = ("x", "eta", "u", "phi1", "phi0_prime", "phi1_prime",
                   "d", "I1", "I2")
# columns that change sign under x -> -x; every other column is even
ODD_COLUMNS = ("x", "phi1")


def fmt(x):
    """Fixed display format with 12 significant digits (CLI output)."""
    return format(float(x), ".12g")


def resolve_out_dir():
    """Output directory: $IK_OUT_DIR, else cwd."""
    env = os.environ.get("IK_OUT_DIR")
    return Path(env) if env else Path(".")


def resolve_out_path(name):
    """Join a (possibly relative) file name onto the output directory."""
    name = Path(name)
    if name.is_absolute():
        return name
    return resolve_out_dir() / name


def _float_columns(arrays):
    import numpy as np
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("columns must be 1-D and of equal length")
    return arrays


def _reprs(a):
    # tolist() yields Python floats, so no numpy scalar is made per value
    return list(map(repr, a.tolist()))


def _join(columns, string_columns):
    lines = [",".join(columns)]
    lines.extend(map(",".join, zip(*string_columns)))
    return "\n".join(lines) + "\n"


def csv_text(columns, arrays):
    """CSV text for named columns of equal-length arrays."""
    return _join(columns, [_reprs(a) for a in _float_columns(arrays)])


def _negated(strings):
    """repr(-v) from repr(v); repr(-nan) is 'nan' too."""
    return [s[1:] if s[0] == "-" else s if s == "nan" else "-" + s
            for s in strings]


def mirrored_csv_text(columns, arrays):
    """csv_text of columns mirrored about their middle row, where x = 0.

    The left half must be the bitwise mirror of the right half, as
    assemble_profile makes it: reversed, and negated in ODD_COLUMNS.  Only
    the right half is formatted.  Raises ValueError, before formatting
    anything, unless the columns include x, have odd length with x = 0 in
    the middle, and are mirrored.  The comparison is bitwise because 0.0 and
    -0.0 compare equal yet print differently.
    """
    arrays = _float_columns(arrays)
    n, odd_length = divmod(len(arrays[0]), 2)
    if "x" not in columns or not odd_length:
        raise ValueError("mirrored columns need x and an odd length")
    if arrays[list(columns).index("x")][n] != 0.0:
        raise ValueError("the middle row of mirrored columns must be x = 0")
    odd = [name in ODD_COLUMNS for name in columns]
    for name, negate, a in zip(columns, odd, arrays):
        right = -a[n + 1:] if negate else a[n + 1:]
        if a[:n][::-1].tobytes() != right.tobytes():
            raise ValueError(f"column {name!r} is not mirrored about x = 0")
    string_columns = []
    for negate, a in zip(odd, arrays):
        right = _reprs(a[n:])
        left = _negated(right) if negate else right
        string_columns.append(left[:0:-1] + right)
    return _join(columns, string_columns)


def profile_arrays(profile):
    """The profile's arrays in PROFILE_COLUMNS order."""
    return [getattr(profile, name) for name in PROFILE_COLUMNS]


def profile_csv_text(profile, extra=()):
    """Standard profile CSV; extra is a sequence of (name, array) columns,
    each even in x."""
    cols = list(PROFILE_COLUMNS)
    arrays = profile_arrays(profile)
    for name, a in extra:
        cols.append(name)
        arrays.append(a)
    return mirrored_csv_text(cols, arrays)


def write_text(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(text)
    return path


def gnuplot_script(csv_name):
    """gnuplot commands plotting eta and u of a profile CSV against x."""
    plots = ", ".join(
        f"'{csv_name}' using 1:{PROFILE_COLUMNS.index(y) + 1} with lines"
        for y in ("eta", "u")
    )
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'x'",
        "set grid",
        f"plot {plots}",
    ]
    return "\n".join(lines) + "\n"
