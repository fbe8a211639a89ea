"""Run one ikwave benchmark workload and print its result.

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 50 --trace 0

Workloads (README.md says why each exists): solve_sweep and cli_cold, which
BENCHMARK.json lists, and crest_scan, which it does not.  With --trace 0
the run measures the end-to-end metrics with no instrumentation; times are
scaled by the host-speed factor of perfbench/speed.py.  With --trace 1 it
measures the per-layer metrics: every request runs twice, untraced and with
spans around ikwave's public functions (for cli_cold, under ``-X
importtime``), and the difference is reported as the tracing overhead.
Metric names and units come from BENCHMARK.json at the repository root.

The last line of standard output is the result JSON.  The line before it is
a report with provenance and details, also written to perfbench/out/.
Without ikwave importable from the checkout's src/ directory the run exits
with status 2 and prints no result.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.speed import child_factor, kernel_factor, local  # noqa: E402

SETUP_SAMPLES = 3
PROBE_SAMPLES = 3
TAIL_BEYOND = 10
TAIL_WINDOW = 200
CHILD_TIMEOUT_S = 120.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve_sweep", "crest_scan", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cli_kind(req):
    return req[1] if req[0] == "cli" else None


def run_one(runner, req, tracer=contextlib.nullcontext()):
    """(request, latency s, failed check names, output digest).

    Only execute() is timed, and traced when a tracer is given; the checks
    run afterwards, untraced.
    """
    with tracer:
        start = time.perf_counter()
        try:
            result = runner.execute(req)
        except Exception as exc:  # a request that raises is a failed request
            result = exc
        elapsed = time.perf_counter() - start
    if isinstance(result, Exception):
        failed, digest = ["raised"], repr(result)
    else:
        failed, digest = runner.verify(req, result)
    return req, elapsed, failed, digest


def closed_loop(runner, requests, seconds, factor):
    """One client: send the next request only after the last one is done.

    Returns the run_one records and, per request, the host-speed factor
    measured just before it (perfbench/speed.py).
    """
    done, factors = [], []
    deadline = time.perf_counter() + seconds
    for req in requests:
        if time.perf_counter() >= deadline:
            break
        factors.append(factor())
        done.append(run_one(runner, req))
    return done, factors


def paired_loop(runner, traced_runner, tracer, requests, seconds):
    """Closed loop that runs every request twice, untraced and traced, in
    alternating order, so that drift in machine speed cancels out of the
    overhead and both outputs of one input can be compared."""
    plain, inst = [], []
    deadline = time.perf_counter() + seconds
    for i, req in enumerate(requests):
        if time.perf_counter() >= deadline:
            break
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                inst.append(run_one(traced_runner, req, tracer))
            else:
                plain.append(run_one(runner, req))
    return plain, inst


def tail(latencies):
    """(value, percentile, windows) of the tail latency.

    In each window of TAIL_WINDOW consecutive requests (or in the whole run,
    if it is shorter), take the latency at the highest percentile with at
    least TAIL_BEYOND samples beyond it; report the median over windows, so
    that one burst of interference on a shared host does not set the tail.
    """
    size = min(TAIL_WINDOW, len(latencies))
    k = max(size - TAIL_BEYOND - 1, 0)
    values = [sorted(latencies[i:i + size])[k]
              for i in range(0, len(latencies) - size + 1, size)]
    return statistics.median(values), 100.0 * (k + 1) / size, len(values)


def failure_counts(done):
    """(requests failing each check, requests failing any check, requests
    failing a check outside checks.REPORTED_ONLY)."""
    from perfbench.checks import REPORTED_ONLY
    counts = Counter(name for _, _, failed, _ in done for name in set(failed))
    return (counts, sum(1 for _, _, failed, _ in done if failed),
            sum(1 for _, _, failed, _ in done if set(failed) - REPORTED_ONLY))


def run_child(args, env):
    return subprocess.run(args, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)


def median_wall(args, env, n):
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        run_child(args, env)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def setup_seconds(workload, seed, workdir, env):
    """(scaled, measured) median set-up time over SETUP_SAMPLES fresh
    interpreters, each scaled by a reference child run just before it."""
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload, str(seed), str(workdir)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        factor = child_factor(env)
        if workload == "cli_cold":
            start = time.perf_counter()
            run_child([sys.executable, "-c", "import ikwave"], env)
            seconds = time.perf_counter() - start
        else:
            seconds = float(run_child(probe, env).stdout)
        samples.append((seconds * factor, seconds))
    return tuple(statistics.median(s) for s in zip(*samples))


def import_seconds(env):
    """Median cumulative import seconds of ikwave and of scipy.integrate
    from ``-X importtime``; scipy.integrate counts 0 when importing ikwave
    does not load it."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        err = run_child([sys.executable, "-X", "importtime", "-c",
                         "import ikwave"], env).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        samples.append((cumulative["ikwave"],
                        cumulative.get("scipy.integrate", 0.0)))
    return tuple(statistics.median(s) for s in zip(*samples))


def provenance(seed):
    import numpy
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, stdin=subprocess.DEVNULL,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    # the benchmark may run from a plain copy of the tree, without git
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {"commit": commit, "source_sha256": source.hexdigest(),
            "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform()}


def end_to_end(args, runner, workdir, env, report):
    from perfbench.reference import accuracy_probes
    from perfbench.workloads import REQUESTS
    cold = args.workload == "cli_cold"
    done, factors = closed_loop(
        runner, REQUESTS[args.workload](args.seed), args.seconds,
        (lambda: child_factor(env)) if cold else kernel_factor)
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    measured = [lat for _, lat, _, _ in done]
    latencies = [lat * f for lat, f in zip(measured, local(factors))]
    tail_s, percentile, windows = tail(latencies)
    setup_s, setup_measured = setup_seconds(args.workload, args.seed, workdir,
                                            env)
    counts, failed_any, failed = failure_counts(done)
    accuracy, detail = accuracy_probes()
    deltas = [req[1] for req, _, _, _ in done if req[0] == "solve"]
    report.update(
        samples=len(done), tail_percentile=percentile,
        tail_windows=windows, tail_samples_beyond=TAIL_BEYOND,
        error_rate=failed_any / len(done), failed_gated=failed,
        check_fail=dict(counts), setup_samples=SETUP_SAMPLES,
        solve_repeat_share=(1.0 - len(set(deltas)) / len(deltas)
                            if deltas else None),
        mix=dict(Counter(cli_kind(req) or req[0] for req, _, _, _ in done)),
        accuracy=detail, speed_factor_p50=statistics.median(factors),
        measured={"req_per_s": len(done) / sum(measured),
                  "req_ms_p50": statistics.median(measured) * 1e3,
                  "req_ms_tail": tail(measured)[0] * 1e3,
                  "setup_s": setup_measured})
    metrics = {
        "req_per_s": len(done) / sum(latencies),
        "req_ms_p50": statistics.median(latencies) * 1e3,
        "req_ms_tail": tail_s * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - failed_any / len(done),
        **accuracy,
    }
    return metrics, len(done), failed


def traced(args, make_runner, env, report):
    """Per-layer metrics from a paired untraced and traced run."""
    from perfbench import OUT
    from perfbench.checks import CHECK_NAMES
    from perfbench.tracing import Tracer, layer_metrics
    from perfbench.workloads import CLI_KINDS, REQUESTS
    tracer = Tracer()
    if args.workload == "cli_cold":
        plain, inst = paired_loop(
            make_runner(False), make_runner(True), contextlib.nullcontext(),
            REQUESTS[args.workload](args.seed), args.seconds)
    else:
        runner = make_runner(False)
        plain, inst = paired_loop(runner, runner, tracer,
                                  REQUESTS[args.workload](args.seed),
                                  args.seconds)
    leftovers = tracer.leftover_wrappers()
    # tracing must leave every output bitwise unchanged
    mismatched = [i for i, (a, b) in enumerate(zip(plain, inst)) if a[3] != b[3]]
    for i in mismatched:
        inst[i][2].append("trace_hash")
    done = plain + inst
    counts, failed_any, failed = failure_counts(done)
    if leftovers:
        counts["trace_unwrap"] = len(leftovers)
        failed_any += 1
        failed += 1

    metrics = layer_metrics(tracer.spans)
    import_s, import_scipy_s = import_seconds(env)
    metrics.update({
        "cli.interpreter_s": median_wall([sys.executable, "-c", "pass"], env,
                                         PROBE_SAMPLES),
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
    })
    for kind in CLI_KINDS:
        lat = [lat for req, lat, _, _ in plain if cli_kind(req) == kind]
        metrics[f"cli.{kind}.ms_p50"] = (statistics.median(lat) * 1e3
                                         if lat else 0.0)
    for name in CHECK_NAMES:
        metrics[f"checks.{name}.fail"] = counts.get(name, 0)
    p50_plain = statistics.median(x[1] for x in plain)
    p50_inst = statistics.median(x[1] for x in inst)
    metrics["trace.overhead_ms_p50"] = (p50_inst - p50_plain) * 1e3
    metrics["trace.overhead_share"] = p50_inst / p50_plain - 1.0
    report.update(
        samples_untraced=len(plain), samples_traced=len(inst),
        hash_mismatches=len(mismatched),
        leftover_wrappers=leftovers, spans=len(tracer.spans),
        check_fail=dict(counts), error_rate=failed_any / len(done),
        failed_gated=failed,
        cli_samples={kind: sum(1 for req, *_ in plain if cli_kind(req) == kind)
                     for kind in CLI_KINDS},
        probe_samples=PROBE_SAMPLES)
    if tracer.spans:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s.as_dict()) + "\n")
        report["spans_file"] = path.relative_to(ROOT).as_posix()
    return metrics, len(done), failed


def main(argv=None):
    args = parse_args(argv)
    try:
        import ikwave
    except ImportError as exc:
        print(f"run.py: cannot import ikwave from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(ikwave.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"run.py: ikwave comes from {ikwave.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import OUT
    from perfbench.workloads import REQUESTS, ColdProcess, InProcess, child_env

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    env = child_env(workdir)
    report = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, **provenance(args.seed)}
    try:
        if args.workload == "cli_cold":
            def make_runner(importtime):
                return ColdProcess(workdir, importtime=importtime)
        else:
            def make_runner(_):
                return InProcess(workdir)
            warm = make_runner(False)
            req = next(REQUESTS[args.workload](args.seed))
            warm.verify(req, warm.execute(req))
        if args.trace:
            metrics, attempted, failed = traced(args, make_runner, env, report)
        else:
            metrics, attempted, failed = end_to_end(
                args, make_runner(False), workdir, env, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    report["metrics"] = metrics
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
