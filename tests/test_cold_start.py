"""Commands that do not integrate never load scipy.

Each case runs in a fresh interpreter, since the test process itself has
long imported scipy.  The command runs through runpy, as `python -m ikwave`
would, and the script then reports the exit code and whether scipy was
loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import runpy, sys
sys.argv = ["ikwave", *sys.argv[1:]]
try:
    runpy.run_module("ikwave", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, "scipy" in sys.modules)
"""


def _fresh(code, args, tmp_path):
    env = dict(os.environ, IK_OUT_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_does_not_load_scipy(tmp_path):
    code = "import sys, ikwave; print('scipy' in sys.modules)"
    assert _fresh(code, [], tmp_path) == "False"


NO_INTEGRATION = [
    (["critical"], 0),
    (["crest", "--delta", "0.3"], 0),
    (["table"], 0),
    (["params"], 0),
    (["checks"], 0),
    (["solve", "--delta", "0.7"], 1),
    (["solve", "--delta", "abc"], 2),
]


@pytest.mark.parametrize("args, exit_code", NO_INTEGRATION,
                         ids=[" ".join(args) for args, _ in NO_INTEGRATION])
def test_command_without_integration_does_not_load_scipy(args, exit_code,
                                                         tmp_path):
    assert _fresh(SCRIPT, args, tmp_path) == f"{exit_code} False"


def test_solve_loads_scipy(tmp_path):
    assert _fresh(SCRIPT, ["solve", "--delta", "0.3"], tmp_path) == "0 True"
