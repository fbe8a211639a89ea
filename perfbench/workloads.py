"""Seeded request streams for the three workloads and how each request runs.

Every workload is a closed loop with one client: the next request is sent
only after the previous one completes.  The streams below use only the
standard library, so the program under test sees nothing but the generated
deltas and argument vectors.  Each stream is drawn in blocks with a fixed
composition so that the mix of cheap and costly requests, and the share of
near-critical inputs, is the same in every run whatever the seed.

In-process requests call ikwave through module attributes looked up at call
time (``sp.solve_solitary``, not a name bound at import), so the traced run
can wrap those attributes.
"""

import hashlib
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import ikwave.crest_init as ci
import ikwave.extreme_wave as ew
import ikwave.output as out
import ikwave.solitary_profile as sp

from . import SRC
from .checks import (DELTA_C, IDENTITY_GATE, IDENTITY_GATE_EXTREME,
                     critical_failures, profile_failures, table_failures,
                     wave_failures)

WORKLOADS = ("solve_sweep", "crest_scan", "cli_cold")

DELTA_MIN = 1e-4
SWEEP_DX = 0.01
SWEEP_STRATA = 12        # log-uniform draws per block, one per stratum
SWEEP_NEAR_CRITICAL = 3  # draws at delta_c - 10^-k, k in [3, 10], per block
SCAN_CLUSTERED = 26      # delta_c (1 - 10^-U(1, 9)) per batch
SCAN_SMALL = 3           # log-uniform in [1e-4, 1e-1)
SCAN_BEYOND = 3          # uniform in (delta_c, 0.7): must come back as errors

# (kind, weight) per block of the cold-process mix
CLI_MIX = (("critical", 2), ("crest", 2), ("table", 2), ("params", 2),
           ("checks", 2), ("solve", 2), ("compare-kdv", 2), ("extreme", 2),
           ("dimensional", 2), ("reproduce-paper", 1),
           ("solve-beyond-critical", 1), ("usage-error", 1))
CLI_KINDS = tuple(kind for kind, _ in CLI_MIX)
USAGE_ERRORS = (("solve", "--delta", "abc"), ("crest",),
                ("params", "--p", "x"), ("bogus",), ("solve", "--dx", "0.01"))
CLI_TIMEOUT_S = 60.0


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _stratified_log_uniform(rng, lo, hi, n):
    a, b = math.log10(lo), math.log10(hi)
    draws = [10.0 ** (a + (b - a) * (i + rng.random()) / n) for i in range(n)]
    return [min(d, hi * (1.0 - 1e-15)) for d in draws]


def solve_sweep_requests(seed):
    """('solve', delta) and ('extreme', None) requests, 16 to a block."""
    rng = _rng("solve_sweep", seed)
    while True:
        block = [("extreme", None)]
        block += [("solve", DELTA_C - 10.0 ** -rng.uniform(3.0, 10.0))
                  for _ in range(SWEEP_NEAR_CRITICAL)]
        block += [("solve", d) for d in _stratified_log_uniform(
            rng, DELTA_MIN, DELTA_C, SWEEP_STRATA)]
        rng.shuffle(block)
        yield from block


def crest_scan_requests(seed):
    """('scan', deltas) requests, each a fresh batch of 32 deltas."""
    rng = _rng("crest_scan", seed)
    while True:
        batch = [DELTA_C * (1.0 - 10.0 ** -rng.uniform(1.0, 9.0))
                 for _ in range(SCAN_CLUSTERED)]
        batch += [_log_uniform(rng, DELTA_MIN, 1e-1) for _ in range(SCAN_SMALL)]
        batch += [rng.uniform(DELTA_C, 0.7) for _ in range(SCAN_BEYOND)]
        rng.shuffle(batch)
        yield ("scan", tuple(batch))


def _cli_request(kind, rng):
    """(kind, argv, expected exit code) for one cold-process command."""
    def delta():
        return repr(_log_uniform(rng, DELTA_MIN, DELTA_C))
    if kind == "crest":
        return kind, ("crest", "--delta", delta()), 0
    if kind == "params":
        return kind, ("params", "--p", "2", "--exact"), 0
    if kind == "solve":
        dx = rng.choice(("0.01", "0.02", "0.05"))
        return kind, ("solve", "--delta", delta(), "--dx", dx,
                      "--out", "solve.csv"), 0
    if kind == "compare-kdv":
        return kind, ("compare-kdv", "--delta", delta()), 0
    if kind == "extreme":
        return kind, ("extreme", "--out", "extreme.csv"), 0
    if kind == "dimensional":
        depth = repr(round(rng.uniform(0.5, 5.0), 3))
        return kind, ("dimensional", "--delta", delta(), "--depth", depth,
                      "--gravity", "9.81", "--out", "dimensional.csv"), 0
    if kind == "reproduce-paper":
        return kind, ("reproduce-paper", "--out", "reference_output"), 0
    if kind == "solve-beyond-critical":
        return kind, ("solve", "--delta", "0.7"), 1
    if kind == "usage-error":
        return kind, rng.choice(USAGE_ERRORS), 2
    return kind, (kind,), 0  # critical, table, checks


def cli_cold_requests(seed):
    """('cli', kind, argv, expected exit code) requests, 21 to a block."""
    rng = _rng("cli_cold", seed)
    while True:
        block = [kind for kind, weight in CLI_MIX for _ in range(weight)]
        rng.shuffle(block)
        for kind in block:
            yield ("cli",) + _cli_request(kind, rng)


REQUESTS = {"solve_sweep": solve_sweep_requests,
            "crest_scan": crest_scan_requests,
            "cli_cold": cli_cold_requests}


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else p.encode())
    return h.hexdigest()


class InProcess:
    """Runs solve_sweep and crest_scan requests inside this interpreter."""

    def __init__(self, workdir):
        self.csv_path = Path(workdir) / "profile.csv"
        self.extreme_eta0 = ew.solve_critical().eta_c0

    def execute(self, req):
        kind, arg = req
        if kind == "scan":
            rows = sp.diagnostics_table(arg)
            cp = ew.solve_critical()
            return rows, cp, ew.crest_slope(cp)
        if kind == "solve":
            profile = sp.solve_solitary(arg, dx=SWEEP_DX)
            kdv = sp.compare_kdv(profile)
        else:
            profile = ew.extreme_profile(ew.solve_critical())
            kdv = None
        text = out.profile_csv_text(profile)
        out.write_text(self.csv_path, text)
        return profile, kdv, text

    def verify(self, req, result):
        """(names of failed checks, digest of the request's output)."""
        kind, arg = req
        if kind == "scan":
            rows, cp, slope = result
            failed = table_failures(arg, rows) + critical_failures(cp.delta_c)
            return failed, _digest(repr(rows), repr(cp), repr(slope))
        profile, kdv, text = result
        if kind == "solve":
            failed = wave_failures(profile, ci.solve_crest(arg).eta0,
                                   IDENTITY_GATE)
        else:
            failed = wave_failures(profile, self.extreme_eta0,
                                   IDENTITY_GATE_EXTREME)
        return failed, _digest(text, repr(kdv))


def child_env(workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["IK_OUT_DIR"] = str(workdir)
    return env


class ColdProcess:
    """Runs each cli_cold request as a fresh ``python -m ikwave`` child."""

    def __init__(self, workdir, importtime=False):
        self.workdir = Path(workdir)
        self.env = child_env(workdir)
        self.flags = ("-X", "importtime") if importtime else ()
        self.extreme_eta0 = ew.solve_critical().eta_c0

    def execute(self, req):
        try:
            return subprocess.run(
                [sys.executable, *self.flags, "-m", "ikwave", *req[2]],
                cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None

    def verify(self, req, proc):
        """(names of failed checks, digest of stdout and written files);
        empties the working directory for the next request."""
        _, kind, argv, expected = req
        try:
            if proc is None:
                return ["raised"], ""
            files = sorted(p for p in self.workdir.rglob("*") if p.is_file())
            digest = _digest(proc.stdout, *(p.read_bytes() for p in files))
            if proc.returncode != expected:
                return ["exit_code"], digest
            try:
                return self._content_failures(kind, argv, proc), digest
            except (OSError, ValueError, IndexError):
                return ["output"], digest
        finally:
            for p in self.workdir.iterdir():
                shutil.rmtree(p) if p.is_dir() else p.unlink()

    def _csv_failures(self, path, eta0, gate):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
        return profile_failures(data[0], data[1], data[2], eta0, gate,
                                phi1=data[3], I1=data[7], I2=data[8])

    def _content_failures(self, kind, argv, proc):
        text, err = proc.stdout, proc.stderr
        value = dict(re.findall(r"^(\w+) = (\S+)$", text, re.M))
        if kind == "solve":
            eta0 = ci.solve_crest(float(argv[2])).eta0
            return self._csv_failures(self.workdir / "solve.csv", eta0,
                                      IDENTITY_GATE)
        if kind == "extreme":
            return self._csv_failures(self.workdir / "extreme.csv",
                                      self.extreme_eta0,
                                      IDENTITY_GATE_EXTREME)
        if kind == "dimensional":
            depth = float(argv[4])
            eta0 = depth * ci.solve_crest(float(argv[2])).eta0
            data = np.loadtxt(self.workdir / "dimensional.csv", delimiter=",",
                              skiprows=1, ndmin=2).T
            return profile_failures(data[0], data[1], data[2], eta0, None)
        if kind == "reproduce-paper":
            return self._reproduce_failures(self.workdir / "reference_output")
        if kind == "critical":
            return critical_failures(float(value.get("delta_c", "nan")))
        if kind == "crest":
            eta0 = ci.solve_crest(float(argv[2])).eta0
            ok = value.get("eta0") == out.fmt(eta0)
        elif kind == "table":
            lines = text.splitlines()
            ok = (lines[:1] == ["delta,eta0,neg_kappa0,d0"] and len(lines) == 10
                  and "error" not in text)
        elif kind == "params":
            ok = "exact gamma = " in text
        elif kind == "checks":
            ok = text.startswith("PASS") and "FAIL" not in text
        elif kind == "compare-kdv":
            ok = "sup_error_over_delta4" in value
        elif kind == "solve-beyond-critical":
            ok = "error: NoSolitaryRoot" in err
        else:  # usage-error
            ok = "usage:" in err
        return [] if ok else ["output"]

    def _reproduce_failures(self, out_dir):
        # imported here so that the in-process set-up does not load the CLI
        import ikwave.cli as cli
        failed = set()
        for delta in cli.PROFILE_DELTAS:
            failed.update(self._csv_failures(
                out_dir / f"profile_delta{delta!r}.csv",
                ci.solve_crest(delta).eta0, IDENTITY_GATE))
        for delta in cli.ZOOM_DELTAS:
            failed.update(self._csv_failures(
                out_dir / f"crest_zoom_delta{delta!r}.csv",
                ci.solve_crest(delta).eta0, IDENTITY_GATE))
        failed.update(self._csv_failures(out_dir / "extreme_profile.csv",
                                         self.extreme_eta0,
                                         IDENTITY_GATE_EXTREME))
        return sorted(failed)
