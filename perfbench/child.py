"""One fresh benchmark process: import nevdiff, run a workload's CLI calls.

Usage: python3 perfbench/child.py JOB.json

The job file names the source tree, the argument lists, the report directory
and whether to trace.  The child times the import of `nevdiff.cli` (setup_s)
and the span from the first `cli.main` call to the return of the last one
(wall_s), writes each report with `--out`, and prints one JSON line with the
exit codes, the timings and its peak RSS.  Right after the import and again
after the last call it times a fixed calibration kernel, so that run.py can
take out the host's speed, which drifts while a run goes on.  A call that raises gets exit code
CRASHED and its exception is recorded; the following calls still run.  With
tracing on it wraps each layer's public functions first and adds the
per-layer table.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

CRASHED = -1  # the exit code recorded for a call that raised


def calibrate() -> float:
    """Seconds for a fixed interpreted loop that does no nevdiff work, about
    0.1 s on the reference host.  It tracks the host's speed on every
    workload, the NumPy-heavy ones too, and unlike a NumPy kernel it touches
    none of NumPy's memory or code pages before the calls."""
    t0 = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i % 7
    return time.perf_counter() - t0


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import nevdiff.cli as cli
    setup_s = time.perf_counter() - t0

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"nevdiff imported from {cli.__file__}, not from {src}\n")
        return 1

    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    cal_before_s = calibrate()
    codes = []
    errors = {}
    t_first = time.perf_counter()
    for call_id, argv in job["calls"]:
        try:
            code = cli.main(argv + ["--out", os.path.join(job["out_dir"], call_id + ".txt")])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash fails this call, not the whole run
            code = CRASHED
            where = traceback.extract_tb(exc.__traceback__)[-1]
            errors[call_id] = (f"raised {type(exc).__name__}: {exc}"
                               f" at {os.path.basename(where.filename)}:{where.lineno}")
        codes.append(code)
    wall_s = time.perf_counter() - t_first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_after_s = calibrate()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cal_before_s": cal_before_s,
        "cal_after_s": cal_after_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_codes": codes,
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.missing
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        sys.exit(1)
    sys.exit(main(sys.argv[1]))
