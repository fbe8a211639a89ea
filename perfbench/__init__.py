"""Benchmark harness for ikwave: seeded closed-loop workloads, correctness
gates, accuracy probes and a traced per-layer run.  See README.md."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
