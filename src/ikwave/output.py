"""CSV, plot-script, and number formatting for the command-line layer.

Data files use '.' decimals, '\\n' line endings, a header row, and Python's
shortest round-trip float repr, so a rerun with identical flags is
byte-identical and a reader recovers the exact doubles.  Plot scripts are
plain text for an external gnuplot; nothing here executes them.
"""

import os
from pathlib import Path

import numpy as np

PROFILE_COLUMNS = ("x", "eta", "u", "phi1", "phi0_prime", "phi1_prime",
                   "d", "I1", "I2")


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


def csv_text(columns, arrays):
    """CSV text for named columns of equal-length arrays."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("columns must be 1-D and of equal length")
    # tolist() yields Python floats, so no numpy scalar is made per value
    rows = zip(*(a.tolist() for a in arrays))
    lines = [",".join(columns)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def profile_arrays(profile):
    """The profile's arrays in PROFILE_COLUMNS order."""
    return [getattr(profile, name) for name in PROFILE_COLUMNS]


def profile_csv_text(profile, extra=()):
    """Standard profile CSV; extra is a sequence of (name, array) columns."""
    cols = list(PROFILE_COLUMNS)
    arrays = profile_arrays(profile)
    for name, a in extra:
        cols.append(name)
        arrays.append(a)
    return csv_text(cols, arrays)


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
