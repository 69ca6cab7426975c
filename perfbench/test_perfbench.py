"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _argv_lines(name: str, seed: int):
    return [" ".join(c.argv) for c in workloads.build(name, seed).calls]


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        for seed in (0, 1, 12345):
            assert workloads.build(name, seed) == workloads.build(name, seed)
    assert _argv_lines("classify-batch", 1) != _argv_lines("classify-batch", 2)
    assert _argv_lines("shift-product", 1) != _argv_lines("shift-product", 2)


def test_seed_zero_is_the_scaled_tier():
    assert _argv_lines("shift-product", 0) == [
        "shift-check --model product:s=3,n1=1 --c 1,i,2+i --r-min 20 --r-max 2000 --ratio 1.05"
    ]
    tail = "--delta 0.25 --eps 1 --r-min 10 --horizon 1e6 --ratio 1.01"
    assert _argv_lines("logdiff-scan", 0) == [
        f"logdiff-check --model rational:{{z^2-2}} --c 1 {tail}",
        f"logdiff-check --model exp:z --c 1 {tail}",
    ]
    assert _argv_lines("product-window", 0) == [
        "product-example --levels 3",
        "logdiff-check --model product:s=3,n1=1 --c 3 --delta 0.25 --eps 1 --r-min 10"
        " --horizon 40 --ratio 1.05",
    ]


def test_other_seeds_keep_the_grid_size():
    from nevdiff.growth import geometric_grid

    def grid(name, seed):
        (call,) = [c for c in workloads.build(name, seed).calls if "--r-min" in c.argv]
        value = {a: float(call.argv[call.argv.index(a) + 1]) for a in ("--r-min", "--ratio")}
        r_max = call.argv[call.argv.index("--r-max" if "--r-max" in call.argv else "--horizon") + 1]
        return value["--r-min"], geometric_grid(value["--r-min"], float(r_max), value["--ratio"])

    def ring_radii(radii):  # radii whose pole search materialises the ring
        return sum(r * 1.001 >= 32 for r in radii)

    assert ring_radii(grid("product-window", 0)[1]) == 6
    for name in ("shift-product", "product-window"):
        r_min0, radii0 = grid(name, 0)
        for seed in range(1, 20):
            r_min, radii = grid(name, seed)
            assert r_min0 < r_min < r_min0 * 1.05 ** workloads.START_SHIFT
            assert (len(radii), ring_radii(radii)) == (len(radii0), ring_radii(radii0))


def test_builtin_verdicts_match_classify(tmp_path):
    from nevdiff import cli

    for seed in (0, 3):
        calls = workloads.build("classify-batch", seed).calls
        assert {c.verdict for c in calls} == {
            workloads.ADMISSIBLE, workloads.DEGREE_BOUND, workloads.COMMON_FACTOR
        }
        for call in calls[:60]:
            out = tmp_path / f"{seed}-{call.id}.txt"
            code = cli.main(list(call.argv) + ["--out", str(out)])
            assert check.check_call(call, code, out.read_text(), None) is None, call.argv


def _logdiff_result(reports):
    calls = workloads.build("logdiff-scan", 0).calls
    return {"exit_codes": [c.exit_code for c in calls], "reports": dict(reports)}


def _failed_frac(reference, reports):
    gate = run.Gate(workloads.build("logdiff-scan", 0), reference)
    gate.add(_logdiff_result(reports))
    return gate.failed / gate.attempted


def test_corrupted_reference_shows_in_failed_frac():
    reference = run.load_reference("logdiff-scan", 0)
    assert _failed_frac(reference, reference) == 0.0

    table = reference["logdiff-exp"]
    lines = table.splitlines()
    r, lhs, rhs, ok = lines[-2].split(",")

    def corrupt(new_line=None, summary=None):
        out = list(lines)
        if new_line is not None:
            out[-2] = new_line
        if summary is not None:
            out[-1] = json.dumps(summary, sort_keys=True)
        return dict(reference, **{"logdiff-exp": "\n".join(out) + "\n"})

    flipped = corrupt(new_line=f"{r},{lhs},{rhs},{1 - int(ok)}")
    moved = corrupt(new_line=f"{r},{float(lhs) * (1 + 1e-4)!r},{rhs},{ok}")
    within = corrupt(new_line=f"{r},{float(lhs) * (1 + 1e-9)!r},{rhs},{ok}")
    summary = json.loads(lines[-1])
    summary["negative_control"] = not summary["negative_control"]
    flag = corrupt(summary=summary)

    for bad in (flipped, moved, flag):
        assert _failed_frac(bad, reference) == 0.5
    assert _failed_frac(within, reference) == 0.0
    # a report that differs between children of one run fails too
    gate = run.Gate(workloads.build("logdiff-scan", 0), {})
    gate.add(_logdiff_result(reference))
    gate.add(_logdiff_result(within))
    assert (gate.failed, gate.attempted) == (1, 4)


def test_a_call_that_raises_fails_alone(tmp_path, monkeypatch, capsys):
    from nevdiff import cli

    workload = workloads.build("logdiff-scan", 0)
    reference = run.load_reference("logdiff-scan", 0)

    def fake_main(argv):
        if "exp:z" in argv:
            raise ZeroDivisionError("planted")
        with open(argv[argv.index("--out") + 1], "w", encoding="utf-8") as fh:
            fh.write(reference["logdiff-rational"])
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "src": run.SRC, "calls": [[c.id, list(c.argv)] for c in workload.calls],
        "out_dir": str(tmp_path), "trace": False,
    }))
    assert child.main(str(job)) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["exit_codes"] == [0, child.CRASHED]
    result["reports"] = {"logdiff-rational": reference["logdiff-rational"]}
    gate = run.Gate(workload, reference)
    gate.add(result)
    assert (gate.failed, gate.attempted) == (1, 2)
    (reason,) = gate.reasons
    assert reason.startswith("logdiff-exp: raised ZeroDivisionError: planted at test_perfbench.py:")


def test_times_scale_to_the_reference_host():
    slow = {"wall_s": 2.0, "setup_s": 0.2, "peak_rss_mb": 40.0,
            "cal_before_s": 2 * run.CAL_REF_S, "cal_after_s": 6 * run.CAL_REF_S}
    ref = run.at_reference_speed(slow)
    assert ref["scale"] == pytest.approx(0.25)
    assert ref["wall_s"] == pytest.approx(0.5)
    assert ref["setup_s"] == pytest.approx(0.1)  # against the kernel right after the import
    assert ref["peak_rss_mb"] == 40.0


def test_classify_reference_verdicts():
    reference = run.load_reference("classify-batch", 0)
    for call in workloads.build("classify-batch", 0).calls:
        assert check.check_call(call, call.exit_code, reference[call.id], reference[call.id]) is None


def test_tracer_spans_and_absent_names(tmp_path, monkeypatch):
    from nevdiff import charfn, cli

    tracer = tracing.Tracer()
    monkeypatch.delattr(charfn, "counting_N")
    tracer.install()
    try:
        code = cli.main(["classify", "--json", "--eq", workloads.classify_batch(0)[0][0],
                         "--out", str(tmp_path / "r.txt")])
    finally:
        tracer.uninstall()
    assert code in (0, 2)
    table = tracer.summary()
    assert "nevdiff.charfn.counting_N" in tracer.missing
    assert not any(k.startswith("charfn.counting.") for k in table)
    assert table["cli.calls"] == 1 and table["eqparse.calls"] == 2
    total = tracer.ends[0] - tracer.starts[0]
    layer_self = sum(v for k, v in table.items() if k.endswith(".self_s"))
    assert abs(layer_self - total) < 1e-6
    tracer.write_spans(str(tmp_path / "spans.csv"))
    rows = (tmp_path / "spans.csv").read_text().splitlines()
    assert rows[0] == "span,parent,call,name,start_s,end_s" and len(rows) == len(tracer.starts) + 1
    assert cli.main.__name__ == "main"  # uninstall restored the original
