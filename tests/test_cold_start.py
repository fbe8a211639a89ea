"""What a fresh process loads: numpy only for profiles, and never scipy.

`import ikwave` resolves its exports lazily and loads neither.  The commands
that need only crest values (critical, crest, table), params, checks and
usage errors load no numpy, nor dataclasses or json; a delta beyond the
critical value loads no numpy either.  No command loads scipy, and the
commands that integrate run with scipy made unimportable, as do the
oracles and the test modules themselves.  The commands run with one OS
thread: cli.main sets OPENBLAS_NUM_THREADS=1 unless the user set it, while
`import ikwave` and cli.run leave the environment alone.

Each case runs in a fresh interpreter, since the test process itself has
long imported numpy.  The command runs through runpy, as
`python -m ikwave` would, and the script then reports the exit code and
which of numpy, scipy, dataclasses and json were loaded.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ikwave

# the directory of the ikwave this process imported, put first on each
# fresh interpreter's path so that both test the same package: the
# checkout's src/ under PYTHONPATH=src, the installed one otherwise
IKWAVE_HOME = Path(ikwave.__file__).resolve().parent.parent

LOADED = ('print(*sorted({"numpy", "scipy", "dataclasses", "json"}'
          ' & set(sys.modules)))')
ARRAY = {"numpy", "scipy"}

RUN = """
import runpy, sys
sys.argv = ["ikwave", *sys.argv[1:]]
try:
    runpy.run_module("ikwave", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, end=" ")
"""
SCRIPT = RUN + LOADED
# the exit code, the BLAS thread setting and the process's OS thread count
TASKS = "/proc/self/task"
THREADS = RUN + (f'import os; print(os.environ["OPENBLAS_NUM_THREADS"], '
                 f'len(os.listdir("{TASKS}")) if os.path.isdir("{TASKS}") '
                 f'else "")')


def _fresh(code, args, tmp_path, **blas):
    """The last stdout line of code run in a fresh interpreter, split, with
    OPENBLAS_NUM_THREADS set only as blas gives it."""
    path = [str(IKWAVE_HOME), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, IK_OUT_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(path))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(blas)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _command(args, tmp_path):
    """(exit code, the set of LOADED's modules loaded) of one command."""
    code, *loaded = _fresh(SCRIPT, args, tmp_path)
    return int(code), set(loaded)


def test_fresh_interpreter_imports_the_tested_ikwave(tmp_path):
    code = ("import pathlib, ikwave; "
            "print(pathlib.Path(ikwave.__file__).resolve())")
    assert _fresh(code, [], tmp_path) == [
        str(Path(ikwave.__file__).resolve())]


def test_import_does_not_load_numpy(tmp_path):
    assert _fresh("import sys, ikwave; " + LOADED, [], tmp_path) == []


# the crest layer's commands, usage errors, and params and checks, which
# print exact constants and run on math and fractions
STDLIB_ONLY = [
    (["critical"], 0),
    (["crest", "--delta", "0.3"], 0),
    (["table"], 0),
    (["solve", "--delta", "abc"], 2),
    (["bogus"], 2),
    (["solve", "--dx", "0.01"], 2),
    (["dimensional", "--delta", "0.3", "--depth", "0", "--gravity", "9.81"],
     2),
    (["params"], 0),
    (["checks"], 0),
    (["checks", "--p", "1,2,3"], 0),
    (["params", "--p", "2", "--exact"], 0),
    (["params", "--p", "1,2,3"], 0),
]
# beyond delta_c the crest solve fails first
CREST_ONLY = STDLIB_ONLY + [
    (["solve", "--delta", "0.7"], 1),
    (["compare-kdv", "--delta", "0.7"], 1),
    (["dimensional", "--delta", "0.7", "--depth", "2", "--gravity", "9.81"],
     1),
]


@pytest.mark.parametrize("args, exit_code", CREST_ONLY,
                         ids=[" ".join(args) for args, _ in CREST_ONLY])
def test_crest_only_command_does_not_load_numpy(args, exit_code, tmp_path):
    code, loaded = _command(args, tmp_path)
    assert (code, loaded & ARRAY) == (exit_code, set())
    if (args, exit_code) in STDLIB_ONLY:
        assert loaded == set()


# the commands that run no crest Newton load neither decimal nor fractions:
# the bisection model_params shares is crest_init's, so critical never
# imports model_params, whose fractions imports decimal
NO_DECIMAL = [
    (["critical"], 0),
    (["bogus"], 2),
    (["solve", "--delta", "abc"], 2),
    (["solve", "--dx", "0.01"], 2),
    (["dimensional", "--delta", "0.3", "--depth", "0", "--gravity", "9.81"],
     2),
]
NO_DECIMAL_LOADED = ('print(*sorted({"numpy", "decimal", "fractions"}'
                     ' & set(sys.modules)))')


@pytest.mark.parametrize("args, exit_code", NO_DECIMAL,
                         ids=[" ".join(args) for args, _ in NO_DECIMAL])
def test_crestless_command_does_not_load_numpy_decimal_or_fractions(
        args, exit_code, tmp_path):
    assert _fresh(RUN + NO_DECIMAL_LOADED, args, tmp_path) == [str(exit_code)]


INTEGRATING = [
    ["solve", "--delta", "0.3"],
    ["compare-kdv", "--delta", "0.3"],
    ["extreme"],
    ["dimensional", "--delta", "0.3", "--depth", "2", "--gravity", "9.81"],
    ["reproduce-paper"],
]


@pytest.mark.parametrize("args", INTEGRATING,
                         ids=[" ".join(args) for args in INTEGRATING])
def test_integrating_command_needs_no_scipy(args, tmp_path):
    code, loaded = _command(args, tmp_path)
    assert (code, loaded & ARRAY) == (0, {"numpy"})
    # a None entry makes every import of scipy raise ImportError
    blocked = 'import sys\nsys.modules["scipy"] = None\n' + SCRIPT
    assert _fresh(blocked, args, tmp_path)[0] == "0"


def test_tests_need_no_scipy(tmp_path):
    # oracles.py and every test module import with scipy made unimportable
    tests = Path(__file__).resolve().parent
    modules = ["oracles", *sorted(p.stem for p in tests.glob("test_*.py"))]
    code = ('import importlib, sys\nsys.modules["scipy"] = None\n'
            f'sys.path.insert(0, {str(tests)!r})\n'
            f'for name in {modules!r}:\n'
            '    importlib.import_module(name)\n'
            'print("imported")')
    assert _fresh(code, [], tmp_path) == ["imported"]


@pytest.mark.skipif(not os.path.isdir(TASKS), reason=f"needs {TASKS}")
@pytest.mark.parametrize("args", INTEGRATING,
                         ids=[" ".join(args) for args in INTEGRATING])
def test_integrating_command_runs_one_thread(args, tmp_path):
    # numpy's OpenBLAS would start a worker thread per core
    assert _fresh(THREADS, args, tmp_path) == ["0", "1", "1"]


def test_user_blas_thread_setting_is_kept(tmp_path):
    args = ["solve", "--delta", "0.3"]
    assert _fresh(THREADS, args, tmp_path,
                  OPENBLAS_NUM_THREADS="2")[:2] == ["0", "2"]


def test_import_and_run_leave_the_environment_alone(tmp_path):
    code = ("import os; before = dict(os.environ)\n"
            "import ikwave, ikwave.cli\n"
            "code = ikwave.cli.run(['solve', '--delta', '0.3'])\n"
            "print(code, dict(os.environ) == before)")
    assert _fresh(code, [], tmp_path) == ["0", "True"]


@pytest.mark.parametrize("name", ikwave.__all__)
def test_export_resolves_to_its_defining_module(name):
    module = importlib.import_module(f"ikwave.{ikwave._EXPORTS[name]}")
    value = getattr(ikwave, name)
    assert value is getattr(module, name)
    # the table names the module that defines the name, not a re-export
    assert getattr(value, "__module__", module.__name__) == module.__name__
    assert name in dir(ikwave)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(ikwave, "no_such_name")
