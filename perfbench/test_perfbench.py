"""Self-tests of the benchmark harness.

    python -m pytest perfbench
"""

import itertools
import json
import subprocess
import sys

import pytest

from perfbench import ROOT, SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import ikwave.crest_init as ci  # noqa: E402
import ikwave.solitary_profile as sp  # noqa: E402
from perfbench import run, speed  # noqa: E402
from perfbench.checks import (DELTA_C, IDENTITY_GATE, table_failures,  # noqa: E402
                              wave_failures)
from perfbench.tracing import WRAPPED, Span, Tracer, self_times  # noqa: E402
from perfbench.workloads import (REQUESTS, WORKLOADS, ColdProcess,  # noqa: E402
                                 InProcess)


def first(workload, seed, n=50):
    return list(itertools.islice(REQUESTS[workload](seed), n))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    assert first(workload, 7) == first(workload, 7)
    assert first(workload, 7) != first(workload, 8)


def test_solve_sweep_mix_and_range():
    reqs = first("solve_sweep", 3, 160)
    deltas = [d for kind, d in reqs if kind == "solve"]
    assert sum(kind == "extreme" for kind, _ in reqs) == 10
    assert all(1e-4 <= d < DELTA_C for d in deltas)
    assert len(set(deltas)) == len(deltas)


def test_crest_scan_batches_hold_beyond_critical_deltas():
    for _, batch in first("crest_scan", 3, 5):
        assert len(batch) == 32
        assert sum(d > DELTA_C for d in batch) == 3


@pytest.fixture(scope="module")
def profile():
    return sp.solve_solitary(0.3)


def test_clean_profile_passes(profile):
    assert wave_failures(profile, ci.solve_crest(0.3).eta0, IDENTITY_GATE) == []


def test_flipped_mirrored_sample_fails(profile):
    k = len(profile.x) // 4
    broken = sp.WaveProfile(**{**vars(profile), "phi1": profile.phi1.copy()})
    broken.phi1[k] = -broken.phi1[k]
    assert "mirror" in wave_failures(broken, ci.solve_crest(0.3).eta0,
                                     IDENTITY_GATE)


def test_raised_first_integral_fails(profile):
    broken = sp.WaveProfile(**{**vars(profile), "I1": profile.I1.copy()})
    broken.I1[3] = 1e-6
    assert wave_failures(broken, ci.solve_crest(0.3).eta0,
                         IDENTITY_GATE) == ["identity"]


def test_rising_tail_and_wrong_crest_fail(profile):
    eta = profile.eta.copy()
    eta[-1] = eta[-2] * 2.0
    eta[0] = eta[-1]
    broken = sp.WaveProfile(**{**vars(profile), "eta": eta})
    assert wave_failures(broken, ci.solve_crest(0.3).eta0, IDENTITY_GATE) == [
        "monotone"]
    assert "crest_height" in wave_failures(profile, 0.5, IDENTITY_GATE)


def test_known_defect_counts_in_success_rate_but_not_as_failed():
    done = [(("solve", 0.1), 0.01, [], ""),
            (("solve", 0.2), 0.01, ["monotone"], ""),
            (("solve", 0.3), 0.01, ["monotone", "identity"], ""),
            (("solve", 0.4), 0.01, ["mirror"], "")]
    counts, failed_any, failed = run.failure_counts(done)
    assert counts == {"monotone": 2, "identity": 1, "mirror": 1}
    assert (failed_any, failed) == (3, 2)


def test_error_rows_beyond_critical_count_as_correct():
    deltas = (0.3, 0.65, 0.6, DELTA_C * (1.0 - 1e-8), 0.69)
    rows = sp.diagnostics_table(deltas)
    assert table_failures(deltas, rows) == []
    rows[1] = sp.TableRow(0.65, 0.4, 1e9, 0.1)
    assert table_failures(deltas, rows) == ["error_rows"]
    rows = sp.diagnostics_table(deltas)
    rows[0], rows[2] = (sp.TableRow(r.delta, r.eta0, -r.neg_kappa0, r.d0)
                        for r in (rows[0], rows[2]))
    assert table_failures(deltas, rows) == ["kappa_order"]


def completed(code, stdout="", stderr=""):
    return subprocess.CompletedProcess([], code, stdout, stderr)


@pytest.mark.parametrize("kind, argv, code", [
    ("solve-beyond-critical", ("solve", "--delta", "0.7"), 1),
    ("usage-error", ("crest",), 2),
])
def test_expected_cli_failures_count_as_correct(tmp_path, kind, argv, code):
    runner = ColdProcess(tmp_path)
    req = ("cli", kind, argv, code)
    failed, _ = runner.verify(req, runner.execute(req))
    assert failed == []
    assert runner.verify(req, completed(0))[0] == ["exit_code"]
    assert runner.verify(req, completed(code))[0] == ["output"]


def test_trace_leaves_outputs_unchanged_and_unwraps(tmp_path):
    runner = InProcess(tmp_path)
    tracer = Tracer()
    for req in (("solve", 0.55), ("extreme", None),
                ("scan", (0.2, 0.6, 0.65))):
        plain = run.run_one(runner, req)
        traced = run.run_one(runner, req, tracer)
        assert plain[3] == traced[3]
        assert plain[2] == traced[2]
    assert tracer.leftover_wrappers() == []
    for module, attr, fn in tracer.originals:
        assert getattr(module, attr) is fn
    assert {s.name for s in tracer.spans} == {name for _, _, name, _ in WRAPPED}


def test_self_time_subtracts_union_of_children():
    spans = [Span(1, None, "a", 0.0, 10.0, None),
             Span(2, 1, "b", 1.0, 4.0, None),
             Span(3, 1, "b", 3.0, 5.0, None),   # overlaps span 2 (pool)
             Span(4, 1, "c", 8.0, 12.0, None)]  # clipped to the parent
    assert self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 2.0)


def test_tail_keeps_ten_samples_beyond():
    value, pct, windows = run.tail([float(i) for i in range(40)])
    assert (value, windows) == (29.0, 1)
    assert pct == pytest.approx(75.0)
    window = [1.0] * 189 + [2.0] + [3.0] * 10
    value, pct, windows = run.tail(window * 4 + [9.0] * 150)
    assert (value, windows) == (2.0, 4)
    assert pct == pytest.approx(95.0)


def test_speed_factor_is_local_median():
    assert speed.local([1.0, 9.0, 1.0, 1.0, 5.0]) == [1.0] * 5
    assert speed.kernel_factor() > 0.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "crest_scan", "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["checks.trace_hash.fail"]["value"] == 0
