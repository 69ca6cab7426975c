import dataclasses
import hashlib
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nevdiff.cli import _COMMANDS, _CHOICES, _TYPES, main

DATA = Path(__file__).parent / "data"

BENCH_LHS = "w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1)"
BENCH_EQ = BENCH_LHS + " = (a2*w^2+a1*w+a0)/(w^2+b1*w+b0)"
BIG = "1" + "0" * 400  # past the float range


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


REDUCE_REFUSAL = ("rejected: the exclusion rules apply only to the benchmark left side; "
                  "run plain enumerate for this polynomial\n")


def test_reduce_refused_for_other_poly(capsys):
    assert run(capsys, "reduce", "--poly", "w(z+1)*w(z-1)") == (2, "", REDUCE_REFUSAL)


def test_refused_reduce_writes_no_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert run(capsys, "reduce", "--poly", "w(z+1)*w(z-1)", "--out", str(out_path)) == (
        2, "", REDUCE_REFUSAL)
    assert not out_path.exists()


def test_enumerate_deterministic(capsys):
    _, out1, _ = run(capsys, "enumerate")
    _, out2, _ = run(capsys, "enumerate")
    assert out1 == out2


# the whole --dry-run report; `skip` is the empty string
DRY_RUN_EXPEXP = "".join(
    f"{line}\n"
    for line in (
        "big_k = 8.0",
        "c_list = 1",
        "delta = 0.25",
        "dry_run = True",
        "eps = 1.0",
        "eq = None",
        "file = None",
        "fmt = text",
        "growth_spec = None",
        "h = 1.0",
        "horizon = 10000.0",
        "k0 = 1",
        "levels = 2",
        "max_log_measure = 1.0",
        "max_smallness = None",
        "min_separation = None",
        "model = expexp",
        "n1 = 1",
        "out = None",
        "poly = None",
        "r_max = 2000.0",
        "r_min = 20.0",
        "ratio = 1.05",
        "samples = 6",
        "skip = ",
        "steps = 20",
        "subcommand = shift-check",
        "tol_unit = 1e-08",
        "variant = density",
    )
)


def test_dry_run_prints_config(capsys):
    code, out, err = run(capsys, "shift-check", "--model", "expexp", "--dry-run")
    assert (code, out, err) == (0, DRY_RUN_EXPEXP, "")


# Records are NamedTuples or plain classes: a dataclass's methods are
# generated and compiled when its module is imported, which every run pays.
DATACLASSES_ALLOWED = set()


def test_no_dataclass_is_built_at_import():
    found = {
        f"{name}.{cls.__qualname__}"
        for name, module in list(sys.modules.items())
        if name == "nevdiff" or name.startswith("nevdiff.")
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == name and dataclasses.is_dataclass(cls)
    }
    assert "nevdiff.cli" in sys.modules
    assert found == DATACLASSES_ALLOWED


def test_symbolic_modules_import_without_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import nevdiff.eqparse, nevdiff.clunie, nevdiff.poleprop, nevdiff.growth; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_cli_imports_no_argument_parser():
    # building argparse parsers cost every run more than its flags' reading
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import nevdiff.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_simpson_overflow_is_one_error_line():
    # log|exp(e^z)| = e^{r cos t} cos(r sin t) is finite at r = 709.5, but the
    # Simpson sums of it overflow: no numpy warning may reach stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); from nevdiff.cli import main; sys.exit(main())"
    argv = ["characteristic", "--model", "expexp", "--r-min", "709.5", "--r-max", "709.5"]
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == "error: numerical: non-finite panel value at r=709.5\n"


def test_config_text_converts_to_each_field_type(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min_separation = 2\nmax_smallness = 1e-3\nout = x.txt\n", encoding="utf-8")
    code, out, _ = run(capsys, "product-example", "--config", str(cfg), "--dry-run")
    assert code == 0
    assert {"max_smallness = 0.001", "min_separation = 2.0", "out = x.txt"} <= set(out.splitlines())


def _opt(flag, dest, kind=None, required=False, choices=None):
    return (flag, dest, kind, required, choices)


# Every subcommand's flags, in order, as the subcommand table must build
# them: option, dest, type name (None where the text passes through, as
# str does), required, choices.
_FORMAT = [_opt("--format", "fmt", choices=("text", "json")), _opt("--json", "fmt")]
_COMMON = [_opt("--config", "config"), _opt("--out", "out"), _opt("--dry-run", "dry_run")]
_TOL_UNIT = _opt("--tol-unit", "tol_unit", "float")  # only where a quadrature reads it
_MODEL = _opt("--model", "model", required=True)
_R_MIN, _R_MAX = _opt("--r-min", "r_min", "float"), _opt("--r-max", "r_max", "float")
_RATIO, _HORIZON = _opt("--ratio", "ratio", "float"), _opt("--horizon", "horizon", "float")
_DELTA, _EPS = _opt("--delta", "delta", "float"), _opt("--eps", "eps", "float")
SURFACE = {
    "classify": _FORMAT + [_opt("--eq", "eq"), _opt("--file", "file")] + _COMMON,
    "enumerate": _FORMAT + [_opt("--poly", "poly")] + _COMMON,
    "reduce": _FORMAT + [_opt("--poly", "poly")] + _COMMON,
    "shift-check": [_MODEL, _opt("--c", "c_list"), _R_MIN, _R_MAX, _RATIO, _TOL_UNIT] + _COMMON,
    "logdiff-check": [_MODEL, _opt("--c", "c_list"), _DELTA, _EPS, _R_MIN, _HORIZON, _RATIO,
                      _opt("--max-log-measure", "max_log_measure", "float"),
                      _TOL_UNIT] + _COMMON,
    "growth-scan": [_opt("--growth", "growth_spec", required=True),
                    _opt("--variant", "variant", choices=("density", "logmeasure", "fixed")),
                    _DELTA, _EPS, _opt("--h", "h", "float"), _opt("--K", "big_k", "float"),
                    _HORIZON] + _COMMON,
    "product-example": [_opt("--levels", "levels", "int"), _opt("--n1", "n1", "int"),
                        _opt("--samples", "samples", "int"),
                        _opt("--min-separation", "min_separation", "float"),
                        _opt("--max-smallness", "max_smallness", "float"),
                        _TOL_UNIT] + _COMMON,
    "polechain": [_opt("--k0", "k0", "int"), _opt("--steps", "steps", "int"),
                  _opt("--skip", "skip")] + _COMMON,
    "characteristic": [_MODEL, _R_MIN, _R_MAX, _RATIO, _TOL_UNIT] + _COMMON,
}


def test_subcommand_table_builds_the_recorded_flags(tmp_path, capsys):
    empty = tmp_path / "empty.cfg"
    empty.write_text("", encoding="utf-8")
    for sub, opts in SURFACE.items():
        required = [a for opt, _, _, req, _ in opts if req for a in (opt, "exp")]
        assert run(capsys, sub, *required, "--dry-run")[0] == 0
        code, out, err = run(capsys, sub, "--help")
        assert (code, err) == (0, "")
        assert re.findall(r"(?<![\w-])--[\w-]+", out) == [o[0] for o in opts] + ["--help"]
        for opt, dest, kind, req, choices in opts:
            value = (str(empty) if opt == "--config" else choices[-1] if choices
                     else {"float": "2.5", "int": "3", None: "x"}[kind])
            toggle = opt in ("--json", "--dry-run")
            got = run(capsys, sub, *required, *([opt] if toggle else [opt, value]), "--dry-run")
            shown = {"--json": "json", "--dry-run": "True", "--config": None}.get(opt, value)
            assert got[0] == 0, opt
            assert shown is None or f"{dest} = {shown}" in got[1].splitlines(), opt
            bad = {"float": "abc", "int": "2.5"}.get(kind)
            if bad:
                assert run(capsys, sub, *required, opt, bad)[1:] == (
                    "", f"error: {sub}: argument {opt}: invalid {kind} value: '{bad}'\n")
            if choices:
                listed = ", ".join(map(repr, choices))
                assert run(capsys, sub, *required, opt, "nosuch")[1:] == ("", (
                    f"error: {sub}: argument {opt}: invalid choice: 'nosuch' "
                    f"(choose from {listed})\n"))
            if req:
                assert run(capsys, sub, "--dry-run") == (
                    1, "", f"error: {sub}: the following arguments are required: {opt}\n")
        # a flag of another subcommand
        flags = {o[0] for o in opts}
        for other in sorted({o[0] for each in SURFACE.values() for o in each} - flags):
            assert run(capsys, sub, *required, other, "1") == (
                1, "", f"error: {sub}: unrecognized arguments: {other} 1\n")


@pytest.mark.parametrize("sub, field", [
    (sub, field) for sub, (_, _, fields) in _COMMANDS.items() for field in fields
    if field not in ("model", "growth_spec")  # required: these must be flags
])
def test_flag_and_config_line_resolve_alike(tmp_path, capsys, sub, field):
    flag = next(opt for opt, dest, *_ in SURFACE[sub] if dest == field)
    required = {"--model": "expexp", "--growth": "exp"}
    argv = [sub] + [a for opt, *_ in SURFACE[sub] if opt in required for a in (opt, required[opt])]
    value = _CHOICES.get(field, {float: ("2.5",), int: ("3",), str: ("x",)}[_TYPES.get(field, str)])[-1]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{field} = {value}\n", encoding="utf-8")
    by_flag = run(capsys, *argv, flag, value, "--dry-run")
    assert by_flag == run(capsys, *argv, "--config", str(cfg), "--dry-run")
    assert by_flag == run(capsys, *argv, f"{flag}={value}", "--dry-run")
    assert by_flag[0] == 0 and f"{field} = {value}" in by_flag[1].splitlines()


def test_help_lists_every_flag(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "") and all(sub in out for sub in SURFACE)
    for sub, opts in SURFACE.items():
        code, out, err = run(capsys, sub, "--help")
        assert (code, err) == (0, "")
        assert set(re.findall(r"(?<![\w-])--[\w-]+", out)) == {"--help"} | {o[0] for o in opts}


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["logdiff-check", "--model", "exp:z", "--ratio", "1.0000000001",
          "--horizon", "1e3"], "ratio 1.0000000001"),
        (["characteristic", "--model", "exp:z", "--r-min", "0"], "grid start"),
        (["logdiff-check", "--model", "exp:z", "--tol-unit", "0"], "tol_unit"),
        (["logdiff-check", "--model", "exp:z", "--tol-unit", "-1"], "tol_unit"),
        (["logdiff-check", "--model", "expexp", "--r-min", "700", "--horizon", "800"],
         "numerical: non-finite integrand at r=735"),
        (["logdiff-check", "--model", "exp:z", "--eps", "1e300", "--horizon", "100"],
         "numerical: log-difference bound overflows at r="),
        (["characteristic", "--model", "exp:z}junk"], "trailing input in polynomial"),
        (["shift-check", "--model", "expexp", "--c", "1)*w"],
         "trailing input in shift constant '1)*w'"),
        (["characteristic", "--model", "shift:1)*w:exp:z"],
         "trailing input in shift constant '1)*w'"),
        (["classify", "--eq", "a*w(z-1)+b*w(z-1)+w(z+1) = c"],
         "two symbolic terms share multi-index (0, 1, 0)"),
        (["classify", "--eq", "w(z+1)-w(z+1) = w"], "the zero polynomial has no degree data"),
        (["classify", "--eq", "w = {z^100000}"],
         "power 100000 in a coefficient exceeds 256 (at position 7)"),
        (["classify", "--eq", "w = {z^\u00b2}"], "unexpected character '\u00b2' (at position 7)"),
        (["classify", "--eq", "w^99999999999999999999 = {1}"],
         "term of degree 99999999999999999999 in w exceeds 256 (at position 2)"),
        # a quadrature that cannot converge is a numerical failure, not a
        # mathematical rejection
        (["characteristic", "--model", "exp:z", "--r-min", "3", "--r-max", "3",
          "--tol-unit", "1e-300"], "numerical: too many panels at r=3"),
        (["characteristic", "--model", "expexp", "--r-min", "5", "--r-max", "3"],
         "grid end 3 is below its start 5"),
        (["logdiff-check", "--model", "exp:z", "--r-min", "100", "--horizon", "50"],
         "grid end 50 is below its start 100"),
        (["growth-scan", "--growth", "power:2", "--horizon", "0.5"],
         "grid end 0.5 is below its start 1"),
        # the quadrature's own refusals: a product row, and the shift
        # check's constant at r0 = 1 + 2|c| = 3, met before any row
        (["product-example", "--levels", "3", "--tol-unit", "1e-300"],
         "numerical: budget exhausted at r=31.5 (1983521 evaluations)"),
        (["shift-check", "--model", "rational:{1}/{z-3}", "--c", "1", "--r-min", "3.5",
          "--r-max", "10", "--tol-unit", "1e-300"], "numerical: too many panels at r=3\n"),
        (["product-example", "--levels", "1", "--samples", "1"],
         "samples must be at least 2, got 1"),
        (["product-example", "--levels", "1", "--samples", "0"],
         "samples must be at least 2, got 0"),
        (["product-example", "--levels", "1", "--samples", "-3"],
         "samples must be at least 2, got -3"),
        (["growth-scan", "--growth", "power:nan"], "growth parameter must be finite, got nan"),
        (["growth-scan", "--growth", "power:inf"], "growth parameter must be finite, got inf"),
        (["growth-scan", "--growth", "power:1e400"],
         "growth parameter must be finite, got inf"),
        (["growth-scan", "--growth", "exproot:inf"],
         "growth parameter must be finite, got inf"),
        # T(r) constant or decreasing: no growth to scan
        (["growth-scan", "--growth", "power:0"], "growth parameter must be positive, got 0"),
        (["growth-scan", "--growth", "power:-1"], "growth parameter must be positive, got -1"),
        (["growth-scan", "--growth", "exproot:0"], "growth parameter must be positive, got 0"),
        (["growth-scan", "--growth", "exproot:-1"],
         "growth parameter must be positive, got -1"),
        # the fixed-shift lemma needs a positive shift and a non-negative constant
        (["growth-scan", "--growth", "power:3", "--variant", "fixed", "--h", "-1"],
         "h must be positive, got -1"),
        (["growth-scan", "--growth", "power:3", "--variant", "fixed", "--h", "0"],
         "h must be positive, got 0"),
        (["growth-scan", "--growth", "power:3", "--variant", "fixed", "--K", "-100"],
         "K must be non-negative, got -100"),
        (["polechain", "--skip", "a"], "skip 'a': invalid int value: 'a'"),
        (["growth-scan", "--growth", "power"], "growth spec 'power': invalid float value: ''"),
        (["growth-scan", "--growth", "power:"], "growth spec 'power:': invalid float value: ''"),
        # a skip step names a step of the chain
        (["polechain", "--steps", "3", "--skip=-5,99"], "skip step -5 is outside 1..3"),
        (["polechain", "--steps", "3", "--skip", "2,4"], "skip step 4 is outside 1..3"),
        # literals past the float range, refused where the model or shift is built
        (["shift-check", "--model", "rational:{1}/{z-1}", "--c", BIG, "--r-min", "2",
          "--r-max", "3"], "shift constant is outside the float range"),
        (["characteristic", "--model", f"shift:{BIG}:expexp"],
         "shift constant is outside the float range"),
        (["characteristic", "--model", f"rational:{{z-{BIG}}}"],
         "numerator coefficient of z^0 is outside the float range"),
        (["characteristic", "--model", f"exp:{BIG}"],
         "exponent coefficient of z^0 is outside the float range"),
        # nesting past the cap, refused before it recurses
        (["classify", "--eq", "w=" + "(" * 3000 + "w" + ")" * 3000],
         "parentheses nested deeper than 100 (at position 102)"),
        (["characteristic", "--model", "rational:{" + "(" * 3000 + "z" + ")" * 3000 + "}"],
         "parentheses nested deeper than 100 (at position 101)"),
        (["characteristic", "--model", "shift:1:" * 3000 + "expexp"],
         "more than 100 shift: wrappers"),
        # a large eps: the slow-growth pressure overflows, the log-log window's
        # power underflows to 0
        (["logdiff-check", "--model", "exp:z", "--c", "1", "--eps", "1000", "--r-min", "10",
          "--horizon", "1000"], "numerical: slow-growth pressure overflows at r=10\n"),
        (["logdiff-check", "--model", "rational:{z^2-2}", "--c", "1", "--eps", "1000",
          "--r-min", "10", "--horizon", "100"],
         "numerical: slow-growth pressure overflows at r=10\n"),
        (["growth-scan", "--growth", "power:5", "--variant", "logmeasure", "--delta", "0.5",
          "--eps", "1000", "--horizon", "10000"],
         "numerical: log-log window leaves the float range at r=1.23239\n"),
        (["growth-scan", "--growth", "exproot:0.5", "--variant", "logmeasure", "--delta", "0.5",
          "--eps", "400", "--horizon", "10000"],
         "numerical: log-log window leaves the float range at r=1.01\n"),
        # a nonzero shift constant that would round to 0
        (["shift-check", "--model", "rational:{1}/{z-1}", "--c", f"1/{BIG}", "--r-min", "2",
          "--r-max", "3"], "shift constant is outside the float range"),
        (["characteristic", "--model", f"shift:1/{BIG}:expexp"],
         "shift constant is outside the float range"),
        (["characteristic", "--model", f"shift:2+1/{BIG}*i:expexp"],
         "shift constant is outside the float range"),
        # a lone polynomial is refused as the equation reader refuses it
        (["enumerate", "--poly", "a*w(z+1)*w(z-1)+{2}*w(z+1)*w+c*w*w(z-1)"],
         "error: symbolic and numeric coefficients in one equation (positions 0 and 16)\n"),
        (["enumerate", "--poly", "a*w(z+1)*w(z-1)+a*w(z+1)*w+c*w*w(z-1)"],
         "error: coefficient name 'a' is used more than once\n"),
        # product spec parameters, refused in the words of a bad flag
        (["characteristic", "--model", "product:s=abc"],
         "error: product parameter s: invalid int value: 'abc'\n"),
        (["characteristic", "--model", "product:s=2.5"],
         "error: product parameter s: invalid int value: '2.5'\n"),
        (["characteristic", "--model", "product:s=2,s=1"],
         "error: product parameter 's' given twice\n"),
    ],
)
def test_refused_inputs_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        # no prefix matching: --c is not --config where there is no --c
        (["characteristic", "--model", "exp:z", "--c", "1"], "--c 1"),
        (["logdiff-check", "--model", "exp:z", "--hor", "10"], "--hor 10"),
        (["classify", "--js", "--eq", BENCH_EQ], "--js"),
        # only classify, enumerate and reduce have a JSON report
        (["characteristic", "--model", "exp:z", "--json"], "--json"),
        (["shift-check", "--model", "expexp", "--format", "json"], "--format json"),
        (["polechain", "--format", "text"], "--format text"),
        # --tol-unit only where a quadrature reads it
        (["classify", "--tol-unit", "1e-3", "--eq", BENCH_EQ], "--tol-unit 1e-3"),
    ],
)
def test_unknown_flags_exit_one(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {argv[0]}: unrecognized arguments: {flag}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["logdiff-check", "--hor", "10"], "the following arguments are required: --model"),
        (["growth-scan", "--growth", "power:2", "--variant", "dense"],
         "argument --variant: invalid choice: 'dense' (choose from 'density', 'logmeasure', "
         "'fixed')"),
        (["logdiff-check", "--model", "exp:z", "--delta", "abc"],
         "argument --delta: invalid float value: 'abc'"),
        (["shift-check", "--model", "expexp", "--dry-run=1"],
         "argument --dry-run: ignored explicit argument '1'"),
        (["classify", "--eq", BENCH_EQ, "--json="],
         "argument --json: ignored explicit argument ''"),
        (["shift-check", "--model", "expexp", "--c"], "argument --c: expected one argument"),
        (["classify", "--format", "yaml"],
         "argument --format: invalid choice: 'yaml' (choose from 'text', 'json')"),
        # the first bad value in argv, before a missing flag or an unknown one
        (["logdiff-check", "--hor", "10", "--delta", "abc", "--ratio", "x"],
         "argument --delta: invalid float value: 'abc'"),
        (["logdiff-check", "--hor", "10", "--dry-run"],
         "the following arguments are required: --model"),
        # a flag's value is the next argument, whatever it is
        (["shift-check", "--model", "--c", "1"], "unrecognized arguments: 1"),
    ],
)
def test_argparse_refusals_are_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {argv[0]}: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: subcommand"),
        (["--dry-run"], "the following arguments are required: subcommand"),
        (["nosuch"], "argument subcommand: invalid choice: 'nosuch' (choose from 'classify', "
         "'enumerate', 'reduce', 'shift-check', 'logdiff-check', 'growth-scan', "
         "'product-example', 'polechain', 'characteristic')"),
        (["--js", "reduce", "--dry-run"], "reduce: unrecognized arguments: --js"),
    ],
)
def test_refusals_before_the_subcommand(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_json_format_from_config_only_where_there_is_a_json_report(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fmt = json\n", encoding="utf-8")
    code, out, err = run(capsys, "characteristic", "--model", "exp:z", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == "error: fmt = json: characteristic has no JSON report\n"
    code, out, _ = run(capsys, "reduce", "--config", str(cfg))
    assert code == 0
    assert len(json.loads(out)) == 9


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r_mni = 5\n", encoding="utf-8")
    code, out, err = run(capsys, "shift-check", "--model", "expexp", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == "error: unknown config key 'r_mni'\n"


@pytest.mark.parametrize(
    "argv, line, message",
    [
        (["reduce"], "fmt = yaml", "fmt must be text or json, got 'yaml'"),
        (["polechain"], "dry_run = maybe",
         "dry_run must be one of 1, true, yes, 0, false, no, got 'maybe'"),
        (["shift-check", "--model", "expexp"], "dry_run = on",
         "dry_run must be one of 1, true, yes, 0, false, no, got 'on'"),
        (["product-example"], "levels = 2.0", "levels: invalid int value: '2.0'"),
        (["characteristic", "--model", "exp:z"], "r_min = abc",
         "r_min: invalid float value: 'abc'"),
        (["growth-scan", "--growth", "exp"], "variant = dense",
         "variant: invalid choice: 'dense' (choose from 'density', 'logmeasure', 'fixed')"),
        # a key the subcommand takes no flag for, as --levels is refused
        (["characteristic", "--model", "exp:z"], "levels = 3",
         "characteristic takes no config key 'levels'"),
        (["shift-check", "--model", "expexp"], "max_log_measure = 2",
         "shift-check takes no config key 'max_log_measure'"),
        (["classify", "--eq", BENCH_EQ], "tol_unit = 1e-3",
         "classify takes no config key 'tol_unit'"),
    ],
)
def test_invalid_config_values_rejected(tmp_path, capsys, argv, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value, dry", [("YES", True), ("1", True), ("no", False)])
def test_config_booleans(tmp_path, capsys, value, dry):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dry_run = {value}\n", encoding="utf-8")
    code, out, err = run(capsys, "polechain", "--steps", "3", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert out.startswith("big_k = ") == dry


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


@pytest.mark.parametrize("levels", [4, 5, 6])
def test_product_example_deep_levels(capsys, levels):
    code, out, err = run(capsys, "product-example", "--levels", str(levels))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 8
    for line in lines[1:7]:
        assert all(math.isfinite(float(x)) for x in line.split(","))


def test_product_example_past_the_finite_order_guard(capsys):
    code, out, err = run(capsys, "product-example", "--levels", "7")
    assert (code, out) == (2, "")
    assert err == "rejected: finite-order guard: level 7 has log n_k / log r_k = 8.49 >= 8\n"


def test_shift_check_runs_a_shift_of_a_shifted_product(capsys):
    # its ring of 3,358,333,174 zeros at 64 seeds the quadrature by its two
    # crossings, as a single shift does, instead of being listed
    code, out, err = run(capsys, "shift-check", "--model", "shift:1:product:s=4", "--c", "1",
                         "--r-min", "62", "--r-max", "70")
    assert (code, err) == (0, "")
    assert out.startswith("c,r,")


@pytest.mark.parametrize(
    "argv, message",
    [
        # the same holds for a shift of a shift whose sum is within a factor 2
        (["--model", "shift:40:product:s=4", "--c", "1"], "shifted by |c|=41 needs"),
        # a shift within a factor 2 of that ring puts it in the point index
        (["--model", "product:s=4", "--c", "40"], "needs |c| <= R/2 or |c| >= 2R"),
    ],
)
def test_shift_check_refuses_to_materialise_a_huge_ring(capsys, argv, message):
    code, out, err = run(capsys, "shift-check", *argv, "--r-min", "62", "--r-max", "70")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


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


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["growth-scan", "--growth", "power:3", "--variant", "fixed", "--h", "1", "--K", "8",
          "--horizon", "1000"],
         0, "0579ddf72f6f50b74623da03385675f14b7342c9225c47c43eee4ac146d5cb89"),
        (["growth-scan", "--growth", "exp"],
         2, "7b73721e0d0d4cf0c0c19fd5fa3190e41c982224f406897fd65cb503b986d7e1"),
        (["growth-scan", "--growth", "exproot:0.5", "--variant", "logmeasure"],
         2, "6115687268d7e7368721b85257f148846613f028442ee37fe1b5208b3972451e"),
        (["logdiff-check", "--model", "rational:{z^2-2}", "--c", "1,i", "--horizon", "2000"],
         0, "c447d3af69887c05a81ec582bb697c91ac8d6e2ac3f50a2d2334c7e46e899728"),
        # a negative control with 6 skipped radii
        (["logdiff-check", "--model", "expexp", "--c", "1", "--r-min", "2", "--horizon", "4",
          "--ratio", "1.1"],
         0, "68b06359359ba4da1aea52455b2e015fb8ed6b8ed592a55dec22a46cbfa77589"),
        (["shift-check", "--model", "rational:{1}/{z-1}", "--c", "1,i", "--r-min", "3",
          "--r-max", "40"],
         0, "fdf23973556e42f4886c052082a65e658517bbb192f6e5b38c162408cd09d4c8"),
        # r0 = 1 + 2|c| = 3 lies on the pole, so the constant is T at the nudged radius
        (["shift-check", "--model", "rational:{1}/{z-3}", "--c", "1", "--r-min", "3.5",
          "--r-max", "10"],
         0, "6fefcc0dbb758d858de159c50dd5d62790ee5fdb17bb6800aaa22d166e3cd7f1"),
        (["product-example", "--levels", "3"],
         0, "c9d8d71775e6de72c9a4a62bdab0eba6a6792b9dc3537f304d45a285f8757101"),
        (["product-example", "--levels", "1", "--samples", "4"],
         0, "ef3743ac3c3fff7f36fe9a95a056b18e993c4ed458724ef7a4de904c6e1a3435"),
        # the benchmark's exclusion rules: cubic right side, denominator
        # rewrite, cubic numerator, no rule, and two degree-bound rejections
        (["classify", "--eq", BENCH_LHS + " = a3*w^3+a0"],
         0, "151c62fc87a46fca7ca447ba023d8cb7856cd01145c962a201d2b5401dd290dc"),
        (["classify", "--json", "--eq", BENCH_LHS + " = a3*w^3+a0"],
         0, "fdb923ec2d47f44c665d6618105e914cb535483c7eb63d6f389838318b7895ac"),
        (["classify", "--eq", BENCH_LHS + " = (a3*w^3+a1*w)/(w^3+b0)"],
         0, "e5a7feb2503f83bb6a1cbc30dd46b64b7a78a4e311bda7899f597856c05acb28"),
        (["classify", "--json", "--eq", BENCH_LHS + " = (a3*w^3+a1*w)/(w^3+b0)"],
         0, "49a0390513baaf6209cf74ede16a2727de759226f3c0a7435174f4ce88592bc0"),
        (["classify", "--eq", BENCH_LHS + " = (a3*w^3+a0)/(w+b0)"],
         0, "99d92ed9e3a93baa43a3e8ff7f5a3674db16bbbad45eb51b842b24557f457ee9"),
        (["classify", "--json", "--eq", BENCH_LHS + " = (a3*w^3+a0)/(w+b0)"],
         0, "09654f9cbdcecc324240d3330d73304b88d9ad8d4f93ad2dd0d985c8948d1632"),
        (["classify", "--eq", BENCH_LHS + " = (a2*w^2+a0)/(w+b0)"],
         0, "00879d0f7c98525d4447ef56d46d8fbb7c9528e99c9945b70a127f97f292f0bc"),
        (["classify", "--json", "--eq", BENCH_LHS + " = (a2*w^2+a0)/(w+b0)"],
         0, "c039e65dffc9a2d2ced60624664371116bface426a9d6b89a22d3a9de6027247"),
        (["classify", "--eq", BENCH_LHS + " = (a3*w^3+a0)/(w^3+b0)"],
         2, "d5acfbe1bbdb14444afd92e695ed7249615c0c2650d4fbb7e10ea3c8b52da225"),
        (["classify", "--json", "--eq", BENCH_LHS + " = (a3*w^3+a0)/(w^3+b0)"],
         2, "3621d44bfaa0ad6d7b71bea8eefe9535db9f39bdddad96f186e6342457cfb427"),
        (["classify", "--eq", BENCH_LHS + " = a4*w^4+a0"],
         2, "10bc3540c25ffe031a4fdbbefa7e2cca5efbd451204301b2d2dc91a2d70da692"),
        (["classify", "--json", "--eq", BENCH_LHS + " = a4*w^4+a0"],
         2, "2203debb82d8f023fc5812a11f9750e56c0bfa758f7efa25e37dc7143a4d4dd6"),
        # reduction refused off the benchmark: one stderr line, no report
        (["reduce", "--poly", "w(z+1)*w(z-1)"],
         2, "c4866b320e4d3d603f41fdb86396c414e69a9cafb6a2f9cbbb9e3e0aa76d3d2d"),
        # failure sets of upper density 0.99 and 0.9999: not certified
        (["growth-scan", "--growth", "power:3", "--variant", "fixed", "--h", "1", "--K", "0",
          "--horizon", "100"],
         2, "e7febf72a0b6d5e178d94e9fce133c36fa828e93b5259cd05ca7f661a4eed9e5"),
        (["growth-scan", "--growth", "exproot:2", "--variant", "fixed"],
         2, "e25bad2a6009ee56f0a4ec98a685d4d5490cf94f3d1c1ba20c95853bcdcb6cde"),
    ],
)
def test_report_bytes_pinned(capsys, argv, code, digest):
    got, out, err = run(capsys, *argv)
    assert got == code
    if err:  # a rejection: its one line and no report
        assert out == "" and err.startswith("rejected: ") and err.count("\n") == 1
    assert hashlib.sha256((out or err).encode()).hexdigest() == digest


# enumerate off the benchmark, recorded before the family scan was rewritten:
# two and three shifts, degrees 2 to 4, and degree 10, whose eleventh case is C11
@pytest.mark.parametrize("poly, text_digest, json_digest", [
    ("w(z+1)*w(z-1)",
     "5908697f1fe24f77a43e00fd137fdf07d4c29e765f2682ffbbc25eadd48eb7b9",
     "21b89b51b230be8a44b6079c88fde7aeeff5438a83e355df53f427e5312dab40"),
    ("w*w(z+1)^2+w(z-1)^3",
     "d37e339d9e4d08c4188dc00182c8f6609ef9d2f4e84579b52a213e103fc60845",
     "b95b3ae7df103414b02517fba441bb5870bf6ee372a8be2fc4ec76d0cf8bbec8"),
    ("w^2*w(z+1)+w(z+1)*w(z-1)^2",
     "08af42ba9b8de205c31a3aa6f2aa48cbf88ceb74a33240f3e54e81e861629ef8",
     "9c1201ea09c1ca70ab3b77d3f48791d3b419744bb0fedf128c3e537286d6c77b"),
    ("w^2*w(z+1)^2+w(z-1)^4",
     "b8e418ec7f9a42f1a868909bb1de008e6666c27d0bb04c809877b4e08edfbee3",
     "c1bd8e695d8e71aa3fd7e2c36b353374d7c9418956fbf842dcc927741e02963e"),
    ("w*w(z+i)+w(z+1)*w(z-i)",
     "4f3d2c5c824b6f0de1b3ff34471e700fbf1e04895a64f5dd11b91b7a50116e13",
     "d0f78f7ad715f02b0102b11681526c52f3c2ab7599f48cec7956cb9f73b8dcee"),
    ("w*w(z+1)*w(z+2)+w(z-1)^3",
     "eb3e0565e1185b87705ca4dea0f5469cd1e4855b11f2fcd44f728e4b26b3060d",
     "3a8283a5716fa5ecccf70a3d0d3ea371e3c221cbc529e3af7ba05f6ee82fb5c7"),
    ("w^3*w(z+1)+w(z+1)^2*w(z-1)*w(z+2)",
     "ebdfdce8c2d47e911e5cc755438ef2bdeb20ec975303d012a8b29dc502d485eb",
     "2c71745a7b7a93e32cd24926794fb6d980150d11c376a038e1c27adf54e41d16"),
    ("w^9*w(z+1)+w(z-1)^10",
     "334ce18b2b2a8bf5dd807c18db5bcde63c8b528856dfe7df9b069acf07433bb2",
     "83e69357896bb88cefb346781058796753ec1e4515486c8a5b6040f53b9abcef"),
])
def test_enumerate_bytes_pinned(capsys, poly, text_digest, json_digest):
    for flags, digest in (((), text_digest), (("--json",), json_digest)):
        code, out, err = run(capsys, "enumerate", "--poly", poly, *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("growth, rows, certified, code", [
    ("power:3", 332, True, 0),
    # every grid radius fails the window guard, so nothing was tested
    ("power:20", 0, False, 2),
    ("power:100", 0, False, 2),
])
def test_logmeasure_scan_certifies_only_tested_rows(capsys, growth, rows, certified, code):
    got, out, err = run(capsys, "growth-scan", "--growth", growth, "--variant", "logmeasure")
    assert (got, err) == (code, "")
    lines = out.splitlines()
    assert lines[0] == "r,lhs,rhs,pass" and len(lines) == rows + 2
    summary = json.loads(lines[-1])
    assert summary["certified"] is certified and summary["skipped"] == 927 - rows


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


def test_repeated_calls_share_no_state(capsys):
    # a flag of one call must not reach the next
    a = ["classify", "--eq", "w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1) = ({z^2}*w^2+{1})/(w+{z})"]
    b = ["classify", "--json", "--eq", BENCH_EQ]
    warm = [run(capsys, *argv) for argv in (a, b, a)]
    assert warm[0] == warm[2] and warm[0][1].startswith("equation: ")
    assert json.loads(warm[1][1])["verdict"]["admissible"] is True


def _csv_rows(out):
    head, *rows = out.strip().splitlines()
    return [dict(zip(head.split(","), row.split(","))) for row in rows]


def test_shift_check_takes_signed_constants(capsys):
    # a flag's value is the next argument, whatever it is
    for shifts in (["--c=-1,-i"], ["--c", "-1,-i"], ["--c", "-i,-1"]):
        code, out, err = run(capsys, "shift-check", "--model", "rational:{1}/{z-1}",
                             *shifts, "--r-min", "3", "--r-max", "30")
        assert (code, err) == (0, "")
        assert {row["c"] for row in _csv_rows(out)} == {"(-1+0j)", "-1j"}


def test_characteristic_of_a_negative_shift(capsys):
    # log|f(z-1)| = Re e^(z-1) = Re e^z / e for f = exp(exp(z))
    grid = ["--r-min", "3", "--r-max", "5", "--ratio", "1.1"]
    code, out, _ = run(capsys, "characteristic", "--model", "shift:-1:expexp", *grid)
    assert code == 0
    shifted = _csv_rows(out)
    code, out, _ = run(capsys, "characteristic", "--model", "expexp", *grid)
    assert code == 0
    plain = _csv_rows(out)
    assert len(shifted) == len(plain) == 7
    for a, b in zip(shifted, plain):
        assert a["r"] == b["r"]
        gap = abs(float(a["m"]) - float(b["m"]) / math.e)
        assert gap <= float(a["err"]) + float(b["err"])


@pytest.mark.parametrize("model", ["exp:0", "exp:z-z"])
def test_exp_of_the_zero_polynomial_runs(capsys, model):
    code, out, err = run(capsys, "characteristic", "--model", model,
                         "--r-min", "3", "--r-max", "6")
    assert (code, err) == (0, "")
    rows = _csv_rows(out)
    assert rows and all(row["m"] == row["N"] == row["T"] == "0" for row in rows)
    for argv in (["shift-check", "--r-min", "3", "--r-max", "6"],
                 ["logdiff-check", "--r-min", "3", "--horizon", "6"]):
        code, _, err = run(capsys, *argv, "--model", model)
        assert (code, err) == (0, "")


def test_classify_text_reports_every_equation_past_a_violation(tmp_path, capsys):
    path = tmp_path / "eqs.txt"
    path.write_text("w(z+1)*w(z-1) = {z}*w\nw^2 = {1}\nw(z+1)+w(z-1) = {2}*w\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "classify", "--file", str(path))
    assert code == 2
    assert out.count("equation: ") == 3 and out.count("admissible: True") == 2
    assert ("equation: w^2 = {1}\n"
            "  rejected: unshifted-valuation-nonzero, unshifted-degree-equals-total\n") in out
    code, out, _ = run(capsys, "classify", "--json", "--file", str(path))
    assert code == 2 and len(json.loads(out)) == 3
    code, out, _ = run(capsys, "classify", "--eq", "w^2 = {1}")
    assert (code, out) == (2, "equation: w^2 = {1}\n"
                              "  rejected: unshifted-valuation-nonzero, unshifted-degree-equals-total\n")
    # a shared factor ends no run of several equations: it is one more entry
    path.write_text("w(z+1)*w(z-1) = {z}*w\nw*w(z+1) = ({1}*w^2-{1})/(w+{1})\n"
                    "w(z+1)+w(z-1) = {2}*w\n", encoding="utf-8")
    shared = "numerator and denominator share a factor of degree 1 in w"
    code, out, _ = run(capsys, "classify", "--file", str(path))
    assert code == 2 and out.count("equation: ") == 3 and out.count("admissible: True") == 2
    assert f"equation: w*w(z+1) = (w^2-{{1}})/(w+{{1}})\n  rejected: {shared}\n" in out
    code, out, _ = run(capsys, "classify", "--json", "--file", str(path))
    reports = json.loads(out)
    assert code == 2 and len(reports) == 3
    assert reports[1] == {"equation": "w*w(z+1) = (w^2-{1})/(w+{1})", "rejected": shared}

