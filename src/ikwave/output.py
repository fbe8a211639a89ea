"""CSV, plot-script, and number formatting for the command-line layer.

Data files use '.' decimals, '\\n' line endings, a header row, and Python's
shortest round-trip float repr, so a rerun with identical flags is
byte-identical and a reader recovers the exact doubles.  Plot scripts are
plain text for an external gnuplot; nothing here executes them.
"""

import os
from pathlib import Path

PROFILE_COLUMNS = ("x", "eta", "u", "phi1", "phi0_prime", "phi1_prime",
                   "d", "I1", "I2")


def fmt(x):
    """Fixed display format with 12 significant digits (CLI output)."""
    return format(float(x), ".12g")


def resolve_out_dir(explicit=None):
    """Output directory: explicit argument, else $IK_OUT_DIR, else cwd."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("IK_OUT_DIR")
    return Path(env) if env else Path(".")


def resolve_out_path(name, out_dir=None):
    """Join a (possibly relative) file name onto the output directory."""
    name = Path(name)
    if name.is_absolute():
        return name
    return resolve_out_dir(out_dir) / name


def csv_text(columns, arrays):
    """CSV text for named columns of equal-length arrays."""
    arrays = [list(a) for a in arrays]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("columns differ in length")
    lines = [",".join(columns)]
    for i in range(n):
        lines.append(",".join(repr(float(a[i])) for a in arrays))
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


def gnuplot_script(csv_name, ycolumns=("eta",), columns=PROFILE_COLUMNS,
                  title=None, xlabel="x"):
    """gnuplot commands plotting named CSV columns against the first column."""
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{xlabel}'",
        "set grid",
    ]
    if title:
        lines.append(f"set title '{title}'")
    for y in ycolumns:
        if y not in columns:
            raise ValueError(f"unknown column {y!r}")
    plots = ", ".join(
        f"'{csv_name}' using 1:{columns.index(y) + 1} with lines"
        for y in ycolumns
    )
    lines.append(f"plot {plots}")
    return "\n".join(lines) + "\n"
