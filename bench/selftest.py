"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

For every workload, runs ``bench/run.py --tiny`` with ``--trace 0`` and
``--trace 1`` and checks that

- the last stdout line has exactly the keys correct/attempted/failed/metrics
  and reports a correct run with no failed operation;
- the metrics are exactly the ``end_to_end`` (trace 0) or ``per_layer``
  (trace 1) names of BENCHMARK.json, each with its declared unit and a
  finite value;
- in the span file of the traced run every self time is >= 0 and every
  child span lies inside its parent.

Finally it checks that the benchmark exits nonzero without printing a
result from a directory that holds only BENCHMARK.json and bench/.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
WORKLOADS = ("synth", "audit", "bulk")
SEED = 1
SLACK_S = 1e-9  # clock reads of a parent and its child are separate calls

failures = []


def expect(cond, message):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        failures.append(message)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload, trace, declared):
    proc = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and lines, f"{tag}: exit code {proc.returncode} {proc.stderr[-300:]}")
    if not lines:
        return
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: correct, {result['failed']} of {result['attempted']} failed")
    metrics = result["metrics"]
    expect(set(metrics) == set(declared),
           f"{tag}: metric names match BENCHMARK.json {sorted(set(metrics) ^ set(declared))}")
    bad = [k for k, m in metrics.items()
           if k in declared and (m.get("unit") != declared[k] or not math.isfinite(m["value"]))]
    expect(not bad, f"{tag}: declared units and finite values {bad}")


def check_spans(workload):
    trace = json.loads((WORK / f"trace-{workload}-seed{SEED}.json").read_text())
    for unit in trace["units"]:
        spans = [tuple(s) for s in unit["spans"]]
        expect(bool(spans), f"{workload}: traced unit has spans")
        selfs = self_times(spans)
        expect(all(v >= 0.0 for v in selfs.values()), f"{workload}: self times >= 0")
        by_id = {s[0]: s for s in spans}
        outside = [s for s in spans if s[1] and not (
            by_id[s[1]][4] - SLACK_S <= s[4] and s[5] <= by_id[s[1]][5] + SLACK_S)]
        expect(not outside, f"{workload}: {len(spans)} spans nest inside their parents")


def check_bare_directory():
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("synth", 0, cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"bare directory: exit code {proc.returncode} and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        check_result(workload, 0, end_to_end)
        check_result(workload, 1, per_layer)
        check_spans(workload)
    check_bare_directory()
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
