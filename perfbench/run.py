#!/usr/bin/env python3
"""nevdiff benchmark: fresh-process CLI workloads with a checked report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is one fresh child Python process (perfbench/child.py) that
imports `nevdiff.cli` from ./src and makes the workload's CLI calls one after
another: a closed loop with one client, one child at a time.  Fresh
processes matter because nevdiff keeps lru_caches (the counting index, the
polynomial roots) that a warm repeat would reuse.  Children run until the
next one would end after S seconds.

--trace 0 reports the end-to-end metrics (medians over the children):
wall_s, setup_s, peak_rss_mb.  --trace 1 alternates untraced and traced
children and reports the per-layer table of the traced ones (see
tracing.py), trace.overhead_s (traced minus untraced median wall_s) and
src.lines.  Every time in the result is in seconds of the reference host:
each child also times a fixed calibration kernel (child.calibrate), and its
times are scaled by CAL_REF_S over that kernel's time.  The raw seconds are
printed too.  Every call's exit code and report are checked (check.py)
against the seed-0 reference reports in perfbench/reference, or against the
built-in expectation for other seeds, and each report must be byte-identical
across the run's children.  The last stdout line is one JSON object with
`correct`, `attempted` (CLI calls), `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import check
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
CHILD = os.path.join(BENCH_DIR, "child.py")
RUN_LIMIT_S = 170.0  # every run, however long --seconds is, ends before this

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The calibration kernel's seconds on the reference host (record.json) at its
# usual speed.  That host's speed drifts by up to 2x within minutes, with CPU
# time equal to wall time, and moves a child's calls, its import and the
# kernel alike; scaling by the kernel's time takes most of the drift out.
CAL_REF_S = 0.1
LAYER_UNITS = {"self_s": "s", "index_hit_ratio": "ratio"}


class BenchError(Exception):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(work_dir: str, calls, trace: bool, deadline: float,
              spans_path: Optional[str] = None) -> dict:
    """One fresh process; returns its result line plus the reports it wrote."""
    out_dir = tempfile.mkdtemp(dir=work_dir)
    job = {
        "src": SRC,
        "calls": [[c.id, list(c.argv)] for c in calls],
        "out_dir": out_dir,
        "trace": trace,
        "spans_path": spans_path,
    }
    job_path = os.path.join(out_dir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, job_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a child process overran the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    reports = {}
    for c in calls:
        path = os.path.join(out_dir, c.id + ".txt")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                reports[c.id] = fh.read()
    shutil.rmtree(out_dir)
    result["reports"] = reports
    return result


def at_reference_speed(result: dict) -> Dict[str, float]:
    """A child's scale factor and end-to-end metrics in reference seconds:
    setup_s against the kernel timed right after the import, wall_s against
    the mean of the kernels timed before and after the calls."""
    before, after = result["cal_before_s"], result["cal_after_s"]
    scale = CAL_REF_S / ((before + after) / 2)
    return {
        "scale": scale,
        "wall_s": result["wall_s"] * scale,
        "setup_s": result["setup_s"] * CAL_REF_S / before,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def load_reference(name: str, seed: int) -> Dict[str, str]:
    if seed != 0:
        return {}
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["reports"]


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "nevdiff")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


class Gate:
    """Counts CLI calls and failures across the run's children."""

    def __init__(self, workload: workloads.Workload, reference: Dict[str, str]):
        self.workload = workload
        self.reference = reference
        self.first: Dict[str, Optional[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def add(self, result: dict) -> None:
        for call, code in zip(self.workload.calls, result["exit_codes"]):
            report = result["reports"].get(call.id)
            reason = result.get("errors", {}).get(call.id) or check.check_call(
                call, code, report, self.reference.get(call.id))
            if reason is None and self.first.setdefault(call.id, report) != report:
                reason = "report differs from the run's first child"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.reasons.append(f"{call.id}: {reason}")


def _summary_line(name: str, values: List[float], unit: str) -> str:
    return (f"{name:<34} {statistics.median(values):>14.6g} {unit:<6} median of {len(values)}"
            f"  (min {min(values):.6g}, max {max(values):.6g})")


def layer_unit(metric: str) -> str:
    return LAYER_UNITS.get(metric.rsplit(".", 1)[-1], "count")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "nevdiff", "cli.py")):
        raise BenchError(f"no nevdiff source tree at {SRC}")
    workload = workloads.build(args.workload, args.seed)
    gate = Gate(workload, load_reference(args.workload, args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT_DIR)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    plain: List[dict] = []
    traced: List[dict] = []
    durations: List[float] = []
    try:
        # Untimed: compiles nevdiff's bytecode into the checkout once, as an
        # installed package would have it.
        run_child(work_dir, (), False, deadline)
        while True:
            trace = bool(args.trace) and len(traced) < len(plain)
            t0 = time.monotonic()
            result = run_child(work_dir, workload.calls, trace, deadline,
                               spans_path if trace and not traced else None)
            durations.append(time.monotonic() - t0)
            (traced if trace else plain).append(result)
            gate.add(result)
            need_more = args.trace and not (plain and traced)
            elapsed = time.monotonic() - start
            if not need_more and elapsed + statistics.median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload.name}  seed {workload.seed}  calls/child {len(workload.calls)}"
          f"  children {len(plain)} untraced, {len(traced)} traced")
    metrics: Dict[str, dict] = {}
    plain_ref = [at_reference_speed(r) for r in plain]
    for name, unit in END_TO_END.items():
        values = [r[name] for r in plain_ref]
        print(_summary_line(name, values, unit))
        if not args.trace:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    for name in ("wall_s", "setup_s", "cal_before_s", "cal_after_s"):
        print(_summary_line(f"raw {name}", [r[name] for r in plain], "s"))
    print(f"{'failed_frac':<34} {gate.failed / gate.attempted:>14.6g} {'':<6} "
          f"{gate.failed} of {gate.attempted} calls")
    for reason in gate.reasons[:10]:
        print(f"  failed {reason}", file=sys.stderr)

    if args.trace:
        traced_ref = [at_reference_speed(r) for r in traced]
        names = sorted({k for r in traced for k in r["layers"]})
        for name in names:
            unit = layer_unit(name)
            values = [r["layers"][name] * (ref["scale"] if unit == "s" else 1)
                      for r, ref in zip(traced, traced_ref) if name in r["layers"]]
            print(_summary_line(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        overhead = (statistics.median([r["wall_s"] for r in traced_ref])
                    - statistics.median([r["wall_s"] for r in plain_ref]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["src.lines"] = {"value": src_lines(), "unit": "lines"}
        print(f"{'trace.overhead_s':<34} {overhead:>14.6g} s")
        print(f"{'src.lines':<34} {metrics['src.lines']['value']:>14d} lines")
        absent = sorted({m for r in traced for m in r.get("absent", [])})
        if absent:
            print(f"absent (name no longer exists): {', '.join(absent)}")
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")

    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
