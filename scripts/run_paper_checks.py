#!/usr/bin/env python3
"""End-to-end verification run: every CLI workflow on its reference inputs.

Usage: run_paper_checks.py [OUT_DIR]

Writes one report per workflow into OUT_DIR (default ./reports) and prints a
one-line verdict per step, then `sha256 <hex>` over the reports' bytes in
step order, which is the same on every run.  Exit code 0 only if every step
passes its own hard assertions; -h or --help prints the usage line, and any
other flag or a second argument is refused with exit 1.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nevdiff.cli import main as cli_main

BENCH_EQ = "w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1) = (a2*w^2+a1*w+a0)/(w^2+b1*w+b0)"

STEPS = [
    ("classify-benchmark", ["classify", "--eq", BENCH_EQ, "--json"]),
    ("enumerate-14", ["enumerate"]),
    ("reduce-9", ["reduce"]),
    (
        "shift-check-pole",
        ["shift-check", "--model", "rational:{1}/{z-1}", "--c", "1,i,2+i",
         "--r-min", "20", "--r-max", "2000", "--ratio", "1.05"],
    ),
    (
        "shift-check-product",
        ["shift-check", "--model", "product:s=2,n1=1", "--c", "1,i,2+i",
         "--r-min", "20", "--r-max", "200", "--ratio", "1.05"],
    ),
    (
        "logdiff-exp",
        ["logdiff-check", "--model", "exp:z", "--c", "1", "--delta", "0.25",
         "--eps", "1", "--r-min", "10", "--horizon", "10000"],
    ),
    (
        "logdiff-rational",
        ["logdiff-check", "--model", "rational:{z^2-2}", "--c", "1",
         "--delta", "0.25", "--eps", "1", "--r-min", "10", "--horizon", "10000"],
    ),
    (
        "growth-scan-quadratic",
        ["growth-scan", "--growth", "power:2", "--variant", "density",
         "--delta", "0.25", "--horizon", "10000"],
    ),
    (
        "growth-scan-logmeasure",
        ["growth-scan", "--growth", "power:5", "--variant", "logmeasure",
         "--delta", "0.5", "--eps", "1", "--horizon", "10000"],
    ),
    (
        "product-example-s2",
        ["product-example", "--levels", "2", "--min-separation", "0.95",
         "--max-smallness", "0.05"],
    ),
    ("polechain", ["polechain", "--k0", "1", "--steps", "30"]),
    (
        "characteristic-expexp",
        ["characteristic", "--model", "expexp", "--r-min", "3", "--r-max", "5",
         "--ratio", "1.1"],
    ),
]


def main(args: list) -> int:
    if "-h" in args or "--help" in args:
        print("usage: run_paper_checks.py [OUT_DIR]  (default ./reports)")
        return 0
    if len(args) > 1 or (args and args[0].startswith("-")):
        bad = args[1] if len(args) > 1 else args[0]
        print(f"error: unrecognized argument {bad!r}; takes one output directory",
              file=sys.stderr)
        return 1
    out_dir = Path(args[0]) if args else Path("reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    digest = hashlib.sha256()
    for name, argv in STEPS:
        path = out_dir / f"{name}.txt"
        code = cli_main(argv + ["--out", str(path)])
        status = {0: "pass", 1: "error", 2: "reject"}[code]
        print(f"{name:<24} {status}  -> {path}")
        worst = max(worst, code)
        digest.update(path.read_bytes())
    print(f"sha256 {digest.hexdigest()}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
