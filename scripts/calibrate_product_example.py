#!/usr/bin/env python3
"""Oracle run for the separating-product thresholds.

Runs the window report at depths 2 and 3 and records the measured ratios
next to the thresholds frozen into the acceptance suite.  Re-run after any
change to the quadrature; the recorded JSON lives in tests/data and is part
of the repository.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nevdiff import charfn as cf

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "product_example_oracle.json"


def main() -> int:
    record = {"windows": {}, "thresholds": {}}
    for s in (2, 3):
        model, cert = cf.build_example_product(s, 1)
        rows = cf.example_product_report(model, s)
        record["windows"][str(s)] = {
            "levels": [[rk, nk] for rk, nk in model.levels],
            "certificate_rows": [list(row) for row in cert],
            "r": [row.r for row in rows],
            "separation_ratio": [row.separation_ratio for row in rows],
            "smallness_ratio": [row.smallness_ratio for row in rows],
        }
    sep2 = record["windows"]["2"]["separation_ratio"]
    small2 = record["windows"]["2"]["smallness_ratio"]
    sep3 = record["windows"]["3"]["separation_ratio"]
    small3 = record["windows"]["3"]["smallness_ratio"]
    record["measured"] = {
        "min_separation_s2": min(sep2),
        "max_smallness_s2": max(small2),
        "min_separation_s3": min(sep3),
        "max_smallness_s3": max(small3),
    }
    # frozen acceptance thresholds: comfortably inside the measured margins
    record["thresholds"] = {
        "min_separation_s2": 0.95,
        "max_smallness_s2": 0.05,
        "trend": "separation and smallness must strictly improve from s=2 to s=3 at matched window positions",
    }
    OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    print(json.dumps(record["measured"], indent=2, sort_keys=True))
    print("thresholds:", json.dumps(record["thresholds"], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
