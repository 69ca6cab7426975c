"""Command-line front end: classify / enumerate / verify workflows.

Configuration layers: built-in defaults, then `key = value` lines from
--config, then explicit flags.  Reports are byte-identical across runs at a
fixed configuration (no timestamps, exact summation, fixed float format).

Exit codes: 0 all checks pass, 1 operational error (bad input, unreadable
file, numerical breakdown), 2 mathematical rejection (inadmissible equation,
refused reduction, failed hard assertion).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterable, List, NamedTuple, Optional, Sequence

from . import charfn, clunie, diffpoly, growth, poleprop
from .eqparse import (
    ClunieEquation,
    CommonFactor,
    ParseError,
    parse_equation,
    parse_polynomial,
    to_canonical_text,
    validate_no_common_factors,
)

OK, OPERATIONAL_ERROR, REJECTED = 0, 1, 2
# the subcommands with a JSON report (--json, --format, fmt = json)
_FORMATTED = ("classify", "enumerate", "reduce")


def _cell(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(int(x)) if isinstance(x, bool) else str(x)


def _table(header: str, rows: Iterable[Sequence], summary: Optional[dict] = None) -> str:
    """A CSV report: floats to 12 significant digits, bools as 0/1, other
    cells by `str`, then the summary, if any, as one sorted JSON line."""
    lines = [header] + [",".join(map(_cell, row)) for row in rows]
    if summary is not None:
        lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines) + "\n"


class RunConfig(NamedTuple):
    subcommand: str
    eq: Optional[str] = None
    file: Optional[str] = None
    poly: Optional[str] = None
    model: Optional[str] = None
    growth_spec: Optional[str] = None
    variant: str = "density"
    c_list: str = "1"
    r_min: float = 20.0
    r_max: float = 2000.0
    ratio: float = 1.05
    delta: float = 0.25
    eps: float = 1.0
    horizon: float = 10000.0
    h: float = 1.0
    big_k: float = 8.0
    levels: int = 2
    n1: int = 1
    samples: int = 6
    k0: int = 1
    steps: int = 20
    skip: str = ""
    min_separation: Optional[float] = None
    max_smallness: Optional[float] = None
    max_log_measure: float = 1.0
    tol_unit: float = 1e-8
    out: Optional[str] = None
    fmt: str = "text"
    dry_run: bool = False

    def dump(self) -> str:
        return "".join(f"{name} = {value}\n" for name, value in sorted(self._asdict().items()))


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line: {line!r}")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


# a field's type is its default's, a string where that is None but for the
# two thresholds; flags and config lines convert through this one map
_TYPES = {name: type(default) for name, default in RunConfig._field_defaults.items()
          if default is not None} | dict.fromkeys(("min_separation", "max_smallness"), float)
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(name: str, value: str):
    """A config line's text as its field's type, refused in argparse's words."""
    kind = _TYPES.get(name, str)
    if kind is bool:
        if value.lower() not in _BOOLS:
            raise ValueError(f"{name} must be one of {', '.join(_BOOLS)}, got {value!r}")
        return _BOOLS[value.lower()]
    choices = _CHOICES.get(name, (value,))
    if value not in choices:
        raise ValueError(f"{name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return _convert(kind, value, name)


def _convert(kind: type, text: str, what: str):
    """`kind(text)`, refused in argparse's words with `what` named."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{what}: invalid {kind.__name__} value: {text!r}") from None


def _resolve(args: argparse.Namespace) -> RunConfig:
    layers = [_read_config_file(args.config)] if args.config else []
    layers.append({
        k: v
        for k, v in vars(args).items()
        if k not in ("subcommand", "config") and v is not None
    })
    merged, taken = {}, _COMMANDS[args.subcommand][2] + _COMMON + ("fmt",)
    for layer in layers:
        for key, value in layer.items():
            if key not in RunConfig._fields or key == "subcommand":
                raise ValueError(f"unknown config key {key!r}")
            if key not in taken:
                raise ValueError(f"{args.subcommand} takes no config key {key!r}")
            merged[key] = _coerce(key, value) if isinstance(value, str) else value
    cfg = RunConfig(args.subcommand, **merged)
    for name, value in zip(cfg._fields, cfg):
        if isinstance(value, float) and not abs(value) < float("inf"):  # nan too
            raise ValueError(f"{name} must be finite, got {value}")
    if not cfg.tol_unit > 0:
        raise ValueError(f"tol_unit must be positive, got {cfg.tol_unit}")
    if cfg.fmt not in ("text", "json"):
        raise ValueError(f"fmt must be text or json, got {cfg.fmt!r}")
    if cfg.fmt == "json" and cfg.subcommand not in _FORMATTED:
        raise ValueError(f"fmt = json: {cfg.subcommand} has no JSON report")
    return cfg


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_c_list(text: str) -> List[complex]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            out.append(charfn._parse_shift_constant(part))
    if not out:
        raise ValueError("empty shift list")
    return out


# ---------------------------------------------------------------------------
# subcommand bodies


def _equations_from(cfg: RunConfig) -> List[ClunieEquation]:
    texts: List[str] = []
    if cfg.eq:
        texts.append(cfg.eq)
    if cfg.file:
        with open(cfg.file, "r", encoding="utf-8") as fh:
            texts.extend(line.strip() for line in fh if line.strip())
    if not texts:
        raise ValueError("no equation given; use --eq or --file")
    return [parse_equation(t) for t in texts]


def cmd_classify(cfg: RunConfig) -> int:
    reports = []
    worst = OK
    for eq in _equations_from(cfg):
        try:
            eq = validate_no_common_factors(eq)
        except CommonFactor as exc:
            _emit(f"rejected: {exc}\n", cfg)
            return REJECTED
        violations = clunie.check_hypotheses(eq)
        if violations:
            payload = {
                "equation": to_canonical_text(eq),
                "violations": list(violations),
            }
            if cfg.fmt == "json":
                reports.append(payload)
                worst = REJECTED
                continue
            _emit(
                "rejected: hypotheses violated: " + ", ".join(violations) + "\n", cfg
            )
            return REJECTED
        prof = clunie.degree_profile(eq)
        v = clunie.profile_verdict(prof, benchmark=clunie.is_benchmark(eq.lhs))
        adm = v.admissibility
        payload = clunie.report_dict(prof, v)
        payload["equation"] = to_canonical_text(eq)
        payload["coprimality"] = eq.coprimality.value
        payload["admissibility"] = {
            "lhs_weight": adm.lhs_weight,
            "required": adm.required,
            "valiron_degree": adm.valiron_degree,
            "valiron_cap": adm.valiron_cap,
        }
        reports.append(payload)
        if not v.admissible:
            worst = REJECTED
    if cfg.fmt == "json":
        _emit(json.dumps(reports if len(reports) > 1 else reports[0],
                         indent=2, sort_keys=True) + "\n", cfg)
    else:
        lines = []
        for payload in reports:
            lines.append(f"equation: {payload['equation']}")
            if "violations" in payload:
                lines.append("  rejected: " + ", ".join(payload["violations"]))
                continue
            prof = payload["profile"]
            verd = payload["verdict"]
            lines.append(
                "  degrees: lhs={lhs_degree} weight={lhs_weight} "
                "unshifted={lhs_unshifted_degree} den={denominator_degree} "
                "num={numerator_degree} num_val={numerator_valuation}".format(**prof)
            )
            lines.append(
                "  margins: reduced={reduced_degree} pole={pole_margin} "
                "zero={zero_margin}".format(**prof)
            )
            lines.append(
                f"  admissible: {verd['admissible']}"
                + (f"  ruled_out: {verd['ruled_out']}" if verd["ruled_out"] else "")
            )
            if verd["pole_density_bound"]:
                lines.append(f"  pole density bound: {verd['pole_density_bound']}")
            if verd["zero_density_bound"]:
                lines.append(f"  zero density bound: {verd['zero_density_bound']}")
            if verd["forces_identity"]:
                lines.append("  forces N(r,w) = N(r,1/w) = T(r,w) + small terms")
        _emit("\n".join(lines) + "\n", cfg)
    return worst


def cmd_enumerate(cfg: RunConfig) -> int:
    p = parse_polynomial(cfg.poly) if cfg.poly else clunie.benchmark_lhs()
    families = clunie.enumerate_families(p)
    if cfg.subcommand == "reduce":
        if not clunie.is_benchmark(p):
            _emit(
                "reduction refused: the exclusion rules apply only to the "
                "benchmark left side; run plain enumerate for this polynomial\n",
                cfg,
            )
            return REJECTED
        families = clunie.reduce_families(families, p).kept
    if cfg.fmt == "json":
        payload = [
            f._asdict() | {"equation": clunie.family_equation_text(f, p)}
            for f in families
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg)
    else:
        _emit(clunie.render_families(families, p), cfg)
    return OK


def cmd_shift_check(cfg: RunConfig) -> int:
    model = charfn.model_from_spec(cfg.model)
    rows = []
    for c in _parse_c_list(cfg.c_list):
        for row in charfn.shift_inequality_sweep(
            model, c, cfg.r_min, cfg.r_max, cfg.ratio, tol_unit=cfg.tol_unit
        ):
            rows.append((row.c, row.r, f"counting[{row.counting_kind}]", row.counting_lhs,
                         row.counting_main, row.counting_slack_used, row.counting_ok))
            rows.append((row.c, row.r, "characteristic", row.char_lhs, row.char_main,
                         row.char_slack_used, row.char_ok))
    _emit(_table("c,r,check,lhs,main,slack_used,pass", rows), cfg)
    return OK if all(row[-1] for row in rows) else REJECTED


def cmd_logdiff_check(cfg: RunConfig) -> int:
    model = charfn.model_from_spec(cfg.model)
    worst = OK
    blocks = []
    for c in _parse_c_list(cfg.c_list):
        rep = charfn.verify_logdiff_bound(
            model,
            c,
            cfg.delta,
            cfg.eps,
            cfg.horizon,
            r_min=cfg.r_min,
            ratio=cfg.ratio,
            tol_unit=cfg.tol_unit,
        )
        lm = rep.report.log_measure
        summary = {
            "c": str(c),
            "exception_log_measure": lm,
            "negative_control": not rep.window_divergent,
            "skipped": len(rep.skipped),
            "densities": rep.report._asdict(),
        }
        blocks.append(_table("r,lhs,rhs,pass", rep.rows, summary))
        if rep.window_divergent and lm > cfg.max_log_measure:
            worst = REJECTED
    _emit("".join(blocks), cfg)
    return worst


def _growth_from_spec(text: str) -> growth.GrowthFunction:
    if text == "exp":
        return growth.PureExpGrowth()
    head, _, arg = text.partition(":")
    make = {"power": growth.PowerGrowth, "exproot": growth.ExpRootGrowth}.get(head)
    if make is None:
        raise ValueError(f"unknown growth spec {text!r}")
    value = _convert(float, arg, f"growth spec {text!r}")
    if not abs(value) < float("inf"):  # nan too
        raise ValueError(f"growth parameter must be finite, got {value}")
    if value <= 0:  # T(r) would not grow
        raise ValueError(f"growth parameter must be positive, got {value:g}")
    return make(value)


def cmd_growth_scan(cfg: RunConfig) -> int:
    T = _growth_from_spec(cfg.growth_spec)
    if cfg.variant == "density":
        res = growth.scan_additive_shift(T, cfg.delta, cfg.horizon)
    elif cfg.variant == "logmeasure":
        res = growth.scan_windowed_shift(T, cfg.delta, cfg.eps, cfg.horizon)
    else:
        res = growth.scan_fixed_shift(T, cfg.h, cfg.big_k, cfg.horizon)
    summary = {
        "growth": T.label,
        "variant": cfg.variant,
        "certified": res.certified,
        "window_divergent": res.window_divergent,
        "skipped": len(res.skipped),
        "densities": res.report._asdict(),
    }
    _emit(_table("r,lhs,rhs,pass", res.rows, summary), cfg)
    return OK if res.certified else REJECTED


def cmd_product_example(cfg: RunConfig) -> int:
    model, cert = charfn.build_example_product(cfg.levels, cfg.n1)
    rows = charfn.example_product_report(
        model, cfg.levels, samples=cfg.samples, tol_unit=cfg.tol_unit
    )
    summary = {
        "levels": [[rk, nk] for rk, nk in model.levels],
        "certificate_ok": all(ok for *_, ok in cert.rows),
    }
    _emit(_table("r,T_base,T_shifted,m_quotient,separation_ratio,smallness_ratio",
                 rows, summary), cfg)
    ok = True
    if cfg.min_separation is not None:
        ok = ok and all(r.separation_ratio >= cfg.min_separation for r in rows)
    if cfg.max_smallness is not None:
        ok = ok and all(r.smallness_ratio <= cfg.max_smallness for r in rows)
    return OK if ok else REJECTED


def cmd_polechain(cfg: RunConfig) -> int:
    skip = tuple(_convert(int, s, f"skip {cfg.skip!r}") for s in cfg.skip.split(",") if s.strip())
    ch = poleprop.chain(cfg.k0, cfg.steps, skip_points=skip)
    d, k = poleprop.growth_lower_bound(ch)
    summary = {"growth_base": d, "growth_constant": k, "skipped": list(ch.skipped)}
    _emit(_table("n,bound,ceiling,counting_lower", poleprop.chain_report_rows(ch), summary), cfg)
    return OK


def cmd_characteristic(cfg: RunConfig) -> int:
    model = charfn.model_from_spec(cfg.model)
    grid = growth.geometric_grid(cfg.r_min, cfg.r_max, cfg.ratio)
    samples = charfn.characteristic_samples(model, grid, tol_unit=cfg.tol_unit)
    _emit(_table("r,m,N,T,err", samples), cfg)
    return OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Refuses arguments with a ValueError, which main reports as one
    `error: <subcommand>: ...` line, instead of usage lines and exit 2."""

    def error(self, message: str):
        sub = self.prog.partition(" ")[2]
        raise ValueError(f"{sub}: {message}" if sub else message)


# subcommand -> (handler, help, its fields besides the _COMMON ones, which
# every subcommand takes); the parser, _resolve and main read it
_COMMANDS = {
    "classify": (cmd_classify, "degree profile and verdict for equations", ("eq", "file")),
    "enumerate": (cmd_enumerate, "all admissible equation families", ("poly",)),
    "reduce": (cmd_enumerate, "apply the benchmark exclusion rules", ("poly",)),
    "shift-check": (cmd_shift_check, "shift inequalities on a model",
                    ("model", "c_list", "r_min", "r_max", "ratio")),
    "logdiff-check": (cmd_logdiff_check, "explicit log-difference bound scan",
                      ("model", "c_list", "delta", "eps", "r_min", "horizon", "ratio",
                       "max_log_measure")),
    "growth-scan": (cmd_growth_scan, "shift-stability scans for growth data",
                    ("growth_spec", "variant", "delta", "eps", "h", "big_k", "horizon")),
    "product-example": (cmd_product_example, "separating product window table",
                        ("levels", "n1", "samples", "min_separation", "max_smallness")),
    "polechain": (cmd_polechain, "exact pole-order propagation table", ("k0", "steps", "skip")),
    "characteristic": (cmd_characteristic, "r,m,N,T,err table for a model",
                       ("model", "r_min", "r_max", "ratio")),
}
_COMMON = ("config", "out", "dry_run", "tol_unit")
# a field's flag is --<field> with dashes, but for these
_FLAGS = {"c_list": "--c", "growth_spec": "--growth", "big_k": "--K"}
_REQUIRED = ("model", "growth_spec")
_CHOICES = {"variant": ("density", "logmeasure", "fixed")}
_HELP = {
    "config": "key = value config file",
    "out": "write the report to this path",
    "poly": "left side (defaults to benchmark)",
    "c_list": "comma-separated shifts",
    "skip": "comma-separated skipped steps",
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an unknown flag is an error, never a longer one
    top = _Parser(
        prog="nevdiff",
        description="degree classification and numerical growth checks for "
        "shift-polynomial equations",
        allow_abbrev=False,
    )
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (_, help, fields) in _COMMANDS.items():
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if name in _FORMATTED:
            p.add_argument("--format", dest="fmt", default=None, choices=["text", "json"])
            p.add_argument("--json", dest="fmt", action="store_const", const="json")
        for field in fields + _COMMON:
            kind = _TYPES.get(field, str)
            how = ({"action": "store_true"} if kind is bool
                   else {"type": kind, "choices": _CHOICES.get(field)})
            p.add_argument(_FLAGS.get(field, "--" + field.replace("_", "-")), dest=field,
                           default=None, required=field in _REQUIRED, help=_HELP.get(field), **how)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:
            raise ValueError(f"{args.subcommand}: unrecognized arguments: {' '.join(extra)}")
        cfg = _resolve(args)
        if cfg.dry_run:
            sys.stdout.write(cfg.dump())
            return OK
        return _COMMANDS[cfg.subcommand][0](cfg)
    except SystemExit as exc:  # --help
        return OK if exc.code in (0, None) else OPERATIONAL_ERROR
    except (ParseError, diffpoly.DiffPolyError, ValueError, OSError, poleprop.Overflow) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return OPERATIONAL_ERROR
    except charfn.NumericalBreakdown as exc:
        sys.stderr.write(f"error: numerical: {exc}\n")
        return OPERATIONAL_ERROR
    except (clunie.ClunieError, charfn.CharFnError, growth.GrowthError) as exc:
        sys.stderr.write(f"rejected: {exc}\n")
        return REJECTED


if __name__ == "__main__":
    sys.exit(main())
