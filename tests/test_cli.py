import json
from pathlib import Path

import pytest

from nevdiff.cli import main

DATA = Path(__file__).parent / "data"

BENCH_EQ = "w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1) = (a2*w^2+a1*w+a0)/(w^2+b1*w+b0)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_admissible(capsys):
    code, out, _ = run(capsys, "classify", "--eq", BENCH_EQ)
    assert code == 0
    assert "pole density bound: 1" in out
    assert "forces N(r,w)" in out


def test_classify_json_matches_text_fields(capsys):
    code, out, _ = run(capsys, "classify", "--eq", BENCH_EQ, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["admissible"] is True
    assert payload["verdict"]["pole_density_bound"] == "1"
    assert payload["profile"]["pole_margin"] == 2
    code2, text_out, _ = run(capsys, "classify", "--eq", BENCH_EQ)
    assert f"pole={payload['profile']['pole_margin']}" in text_out
    assert f"reduced={payload['profile']['reduced_degree']}" in text_out


def test_classify_inadmissible_exit_two(capsys):
    code, out, _ = run(
        capsys, "classify", "--eq", "w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1) = a4*w^4+a0"
    )
    assert code == 2
    assert "admissible: False" in out


def test_classify_malformed_exit_one(capsys):
    code, _, err = run(capsys, "classify", "--eq", "w(z+ = w")
    assert code == 1
    assert "position" in err


def test_classify_common_factor_rejected(capsys):
    code, out, _ = run(
        capsys, "classify", "--eq", "w*w(z+1) = ({1}*w^2-{1})/(w+{1})"
    )
    assert code == 2
    assert "share a factor" in out


def test_classify_file_input(tmp_path, capsys):
    path = tmp_path / "eqs.txt"
    path.write_text(BENCH_EQ + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", "--file", str(path))
    assert code == 0


def test_enumerate_matches_golden(capsys):
    code, out, _ = run(capsys, "enumerate")
    assert code == 0
    assert out.encode() == (DATA / "families_14.txt").read_bytes()


def test_reduce_matches_golden(capsys):
    code, out, _ = run(capsys, "reduce")
    assert code == 0
    assert out.encode() == (DATA / "families_9.txt").read_bytes()


def test_reduce_refused_for_other_poly(capsys):
    code, out, _ = run(capsys, "reduce", "--poly", "w(z+1)*w(z-1)")
    assert code == 2
    assert "refused" in out


def test_enumerate_deterministic(capsys):
    _, out1, _ = run(capsys, "enumerate")
    _, out2, _ = run(capsys, "enumerate")
    assert out1 == out2


def test_dry_run_prints_config(capsys):
    code, out, _ = run(capsys, "shift-check", "--model", "expexp", "--dry-run")
    assert code == 0
    assert "subcommand = shift-check" in out
    assert "r_min = 20.0" in out


def test_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r_min = 30\nratio = 1.5\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "shift-check",
        "--model",
        "expexp",
        "--config",
        str(cfg),
        "--r-min",
        "40",
        "--dry-run",
    )
    assert code == 0
    assert "r_min = 40.0" in out  # flag wins over config
    assert "ratio = 1.5" in out  # config wins over default


def test_shift_check_runs_and_passes(capsys):
    code, out, _ = run(
        capsys,
        "shift-check",
        "--model",
        "rational:{1}/{z-1}",
        "--c",
        "1,i",
        "--r-min",
        "20",
        "--r-max",
        "100",
        "--ratio",
        "1.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,r,check,lhs,main,slack_used,pass"
    assert all(line.endswith(",1") for line in lines[1:])


def test_unknown_model_usage_error(capsys):
    code, _, err = run(capsys, "shift-check", "--model", "nosuch:1")
    assert code == 1
    assert "unknown model spec" in err


def test_growth_scan_negative_control_exit(capsys):
    code, out, _ = run(
        capsys, "growth-scan", "--growth", "exp", "--variant", "density",
        "--delta", "0.25", "--horizon", "1000",
    )
    assert code == 2
    assert '"certified": false' in out


def test_growth_scan_csv_columns(capsys):
    code, out, _ = run(
        capsys, "growth-scan", "--growth", "power:2", "--variant", "density",
        "--delta", "0.25", "--horizon", "1000",
    )
    assert code == 0
    assert out.splitlines()[0] == "r,lhs,rhs,pass"


def test_polechain_table(capsys):
    code, out, _ = run(capsys, "polechain", "--k0", "1", "--steps", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,bound,ceiling,counting_lower"
    assert lines[2].startswith("1,3/2,2,")
    assert lines[8].startswith("7,2187/128,27,")


def test_polechain_past_float_range_is_an_error(capsys):
    code, out, err = run(capsys, "polechain", "--k0", "1", "--steps", "1800")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["shift-check", "--model", "rational:{1}/{z-1}", "--r-min", "nan"], "r_min"),
        (["logdiff-check", "--model", "exp:z", "--ratio", "nan"], "ratio"),
        (["logdiff-check", "--model", "exp:z", "--horizon", "inf"], "horizon"),
    ],
)
def test_non_finite_config_rejected(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {field} must be finite, got {argv[-1]}\n"


def test_characteristic_csv(capsys):
    code, out, _ = run(
        capsys, "characteristic", "--model", "exp:z",
        "--r-min", "10", "--r-max", "20", "--ratio", "1.5",
    )
    assert code == 0
    assert out.splitlines()[0] == "r,m,N,T,err"


def test_product_example_thresholds(capsys):
    code, out, _ = run(
        capsys, "product-example", "--levels", "2", "--samples", "3",
        "--min-separation", "0.9", "--max-smallness", "0.06",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("r,T_base,T_shifted")


def test_logdiff_check_exp(capsys):
    code, out, _ = run(
        capsys, "logdiff-check", "--model", "exp:z", "--c", "1",
        "--delta", "0.25", "--eps", "1", "--r-min", "10",
        "--horizon", "1000", "--ratio", "1.2",
    )
    assert code == 0
    assert '"exception_log_measure": 0' in out


def test_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "enumerate", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_bytes() == (DATA / "families_14.txt").read_bytes()


def test_byte_identical_reports(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, "characteristic", "--model", "rational:{z^2+1}/{z-2}",
            "--r-min", "5", "--r-max", "50", "--ratio", "1.3",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
