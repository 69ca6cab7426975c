#!/usr/bin/env python3
"""Write the seed-0 reference reports that run.py checks against.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

Runs each workload's seed-0 calls once in a fresh child and stores the
reports in perfbench/reference/<workload>.json.  It refuses to write a
reference for a call whose exit code or classify verdict is not the
built-in expectation.  Regenerate only when a change is meant to alter the
reports, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import time

import check
import run
import workloads


def main() -> int:
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.build(name, 0)
        result = run.run_child(run.OUT_DIR, workload.calls, False, time.monotonic() + 600)
        for call, code in zip(workload.calls, result["exit_codes"]):
            reason = check.check_call(call, code, result["reports"].get(call.id), None)
            if reason is not None:
                print(f"{name} {call.id}: {reason}", file=sys.stderr)
                return 1
        path = os.path.join(run.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": 0, "reports": result["reports"]},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(result['reports'])} reports -> {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
