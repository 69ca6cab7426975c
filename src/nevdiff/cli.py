"""Command-line front end: classify / enumerate / verify workflows.

Configuration layers: built-in defaults, then `key = value` lines from
--config, then explicit flags.  Reports are byte-identical across runs at a
fixed configuration (no timestamps, exact summation, fixed float format).

Exit codes: 0 all checks pass, 1 operational error (bad input, unreadable
file), 2 mathematical rejection (inadmissible equation, refused reduction,
failed hard assertion).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

from . import charfn, clunie, growth, poleprop
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


def _fmt(x: float) -> str:
    return format(x, ".12g")


@dataclass
class RunConfig:
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
    seed: int = 0
    dry_run: bool = False

    def dump(self) -> str:
        rows = []
        for f in sorted(fields(self), key=lambda f: f.name):
            rows.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(rows) + "\n"


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


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, value: str):
    target = _FIELD_TYPES.get(name)
    if target in ("float", "Optional[float]"):
        return float(value)
    if target in ("int", "Optional[int]"):
        return int(value)
    if target == "bool":
        return value.lower() in ("1", "true", "yes")
    return value


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    layers = [{}]
    if getattr(args, "config", None):
        layers.append(_read_config_file(args.config))
    flag_layer = {
        k: v
        for k, v in vars(args).items()
        if k not in ("subcommand", "config") and v is not None
    }
    layers.append(flag_layer)
    for layer in layers:
        for key, value in layer.items():
            if not hasattr(cfg, key):
                continue
            if isinstance(value, str) and key in _FIELD_TYPES:
                value = _coerce(key, value)
            setattr(cfg, key, value)
    for name, value in vars(cfg).items():
        if isinstance(value, float) and not abs(value) < float("inf"):  # nan too
            raise ValueError(f"{name} must be finite, got {value}")
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
        adm = clunie.admissible(eq)
        v = clunie.profile_verdict(prof, benchmark=clunie.is_benchmark(eq.lhs))
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


def cmd_enumerate(cfg: RunConfig, reduce_list: bool) -> int:
    p = parse_polynomial(cfg.poly) if cfg.poly else clunie.benchmark_lhs()
    families = clunie.enumerate_families(p)
    if reduce_list:
        if not clunie.is_benchmark(p):
            _emit(
                "reduction refused: the exclusion rules apply only to the "
                "benchmark left side; run plain enumerate for this polynomial\n",
                cfg,
            )
            return REJECTED
        outcome = clunie.reduce_families(
            families, clunie.GrowthAssumption.MINIMAL_HYPER_TYPE, p
        )
        families = outcome.kept
    if cfg.fmt == "json":
        from dataclasses import asdict

        payload = [
            asdict(f) | {"equation": clunie.family_equation_text(f, p)}
            for f in families
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg)
    else:
        _emit(clunie.render_families(families, p), cfg)
    return OK


def cmd_shift_check(cfg: RunConfig) -> int:
    model = charfn.model_from_spec(cfg.model)
    all_ok = True
    lines = ["c,r,check,lhs,main,slack_used,pass"]
    for c in _parse_c_list(cfg.c_list):
        rows = charfn.shift_inequality_sweep(
            model, c, cfg.r_min, cfg.r_max, cfg.ratio, tol_unit=cfg.tol_unit
        )
        for row in rows:
            lines.append(
                f"{row.c},{_fmt(row.r)},counting[{row.counting_kind}],"
                f"{_fmt(row.counting_lhs)},{_fmt(row.counting_main)},"
                f"{_fmt(row.counting_slack_used)},{int(row.counting_ok)}"
            )
            lines.append(
                f"{row.c},{_fmt(row.r)},characteristic,{_fmt(row.char_lhs)},"
                f"{_fmt(row.char_main)},{_fmt(row.char_slack_used)},{int(row.char_ok)}"
            )
            all_ok = all_ok and row.counting_ok and row.char_ok
    _emit("\n".join(lines) + "\n", cfg)
    return OK if all_ok else REJECTED


def cmd_logdiff_check(cfg: RunConfig) -> int:
    model = charfn.model_from_spec(cfg.model)
    cs = _parse_c_list(cfg.c_list)
    worst = OK
    blocks = []
    for c in cs:
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
        lm = growth.log_measure(rep.exceptions)
        summary = {
            "c": str(c),
            "exception_log_measure": lm,
            "negative_control": rep.negative_control,
            "skipped": len(rep.skipped),
            "densities": rep.report.__dict__,
        }
        rows = ["r,lhs,rhs,pass"] + [
            f"{_fmt(r)},{_fmt(lhs)},{_fmt(rhs)},{int(ok)}"
            for r, lhs, rhs, ok in rep.rows
        ]
        blocks.append("\n".join(rows) + "\n" + json.dumps(summary, sort_keys=True) + "\n")
        if not rep.negative_control and lm > cfg.max_log_measure:
            worst = REJECTED
    _emit("".join(blocks), cfg)
    return worst


_GROWTH_SPECS = {
    "exp": growth.PureExpGrowth(),
}


def _growth_from_spec(text: str) -> growth.GrowthFunction:
    if text in _GROWTH_SPECS:
        return _GROWTH_SPECS[text]
    head, _, arg = text.partition(":")
    if head == "power":
        return growth.PowerGrowth(float(arg))
    if head == "exproot":
        return growth.ExpRootGrowth(float(arg))
    raise ValueError(f"unknown growth spec {text!r}")


def cmd_growth_scan(cfg: RunConfig) -> int:
    T = _growth_from_spec(cfg.growth_spec)
    if cfg.variant == "density":
        res = growth.scan_additive_shift(T, cfg.delta, cfg.horizon)
    elif cfg.variant == "logmeasure":
        res = growth.scan_windowed_shift(T, cfg.delta, cfg.eps, cfg.horizon)
    elif cfg.variant == "fixed":
        res = growth.scan_fixed_shift(T, cfg.h, cfg.big_k, cfg.horizon)
    else:
        raise ValueError(f"unknown scan variant {cfg.variant!r}")
    lines = ["r,lhs,rhs,pass"] + [
        f"{_fmt(row.r)},{_fmt(row.lhs)},{_fmt(row.rhs)},{int(row.ok)}"
        for row in res.rows
    ]
    summary = {
        "growth": T.label,
        "variant": cfg.variant,
        "certified": res.certified,
        "window_divergent": res.window_divergent,
        "skipped": len(res.skipped),
        "densities": res.report.__dict__,
    }
    _emit("\n".join(lines) + "\n" + json.dumps(summary, sort_keys=True) + "\n", cfg)
    return OK if res.certified else REJECTED


def cmd_product_example(cfg: RunConfig) -> int:
    model, cert = charfn.build_example_product(cfg.levels, cfg.n1)
    rows = charfn.example_product_report(
        model, cfg.levels, samples=cfg.samples, tol_unit=cfg.tol_unit
    )
    lines = ["r,T_base,T_shifted,m_quotient,separation_ratio,smallness_ratio"]
    for row in rows:
        lines.append(
            f"{_fmt(row.r)},{_fmt(row.t_base)},{_fmt(row.t_shifted)},"
            f"{_fmt(row.m_quotient)},{_fmt(row.separation_ratio)},"
            f"{_fmt(row.smallness_ratio)}"
        )
    summary = {
        "levels": [[rk, nk] for rk, nk in model.levels],
        "certificate_ok": all(ok for *_, ok in cert.rows),
    }
    _emit("\n".join(lines) + "\n" + json.dumps(summary, sort_keys=True) + "\n", cfg)
    ok = True
    if cfg.min_separation is not None:
        ok = ok and all(r.separation_ratio >= cfg.min_separation for r in rows)
    if cfg.max_smallness is not None:
        ok = ok and all(r.smallness_ratio <= cfg.max_smallness for r in rows)
    return OK if ok else REJECTED


def cmd_polechain(cfg: RunConfig) -> int:
    skip = tuple(int(s) for s in cfg.skip.split(",") if s.strip())
    ch = poleprop.chain(cfg.k0, cfg.steps, skip_points=skip)
    d, k = poleprop.growth_lower_bound(ch)
    lines = ["n,bound,ceiling,counting_lower"]
    for n, bound, ceiling, nlow in poleprop.chain_report_rows(ch):
        lines.append(f"{n},{bound},{ceiling},{_fmt(nlow)}")
    summary = {"growth_base": d, "growth_constant": k, "skipped": list(ch.skipped)}
    _emit("\n".join(lines) + "\n" + json.dumps(summary, sort_keys=True) + "\n", cfg)
    return OK


def cmd_characteristic(cfg: RunConfig) -> int:
    model = charfn.model_from_spec(cfg.model)
    lines = ["r,m,N,T,err"]
    for r in growth.geometric_grid(cfg.r_min, cfg.r_max, cfg.ratio):
        s = charfn.characteristic_T(model, r, tol_unit=cfg.tol_unit)
        lines.append(
            f"{_fmt(s.r)},{_fmt(s.m)},{_fmt(s.N)},{_fmt(s.T)},{_fmt(s.quad_error)}"
        )
    _emit("\n".join(lines) + "\n", cfg)
    return OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nevdiff",
        description="degree classification and numerical growth checks for "
        "shift-polynomial equations",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", dest="fmt", default=None, choices=["text", "json"])
        p.add_argument("--json", dest="fmt", action="store_const", const="json")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dry-run", dest="dry_run", action="store_true", default=None)
        p.add_argument("--tol-unit", dest="tol_unit", type=float, default=None)

    p = sub.add_parser("classify", help="degree profile and verdict for equations")
    p.add_argument("--eq", default=None)
    p.add_argument("--file", default=None)
    common(p)

    p = sub.add_parser("enumerate", help="all admissible equation families")
    p.add_argument("--poly", default=None, help="left side (defaults to benchmark)")
    common(p)

    p = sub.add_parser("reduce", help="apply the benchmark exclusion rules")
    p.add_argument("--poly", default=None)
    common(p)

    p = sub.add_parser("shift-check", help="shift inequalities on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--c", dest="c_list", default=None, help="comma-separated shifts")
    p.add_argument("--r-min", dest="r_min", type=float, default=None)
    p.add_argument("--r-max", dest="r_max", type=float, default=None)
    p.add_argument("--ratio", type=float, default=None)
    common(p)

    p = sub.add_parser("logdiff-check", help="explicit log-difference bound scan")
    p.add_argument("--model", required=True)
    p.add_argument("--c", dest="c_list", default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--r-min", dest="r_min", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--max-log-measure", dest="max_log_measure", type=float, default=None)
    common(p)

    p = sub.add_parser("growth-scan", help="shift-stability scans for growth data")
    p.add_argument("--growth", dest="growth_spec", required=True)
    p.add_argument("--variant", default=None, choices=["density", "logmeasure", "fixed"])
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--K", dest="big_k", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    common(p)

    p = sub.add_parser("product-example", help="separating product window table")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--min-separation", dest="min_separation", type=float, default=None)
    p.add_argument("--max-smallness", dest="max_smallness", type=float, default=None)
    common(p)

    p = sub.add_parser("polechain", help="exact pole-order propagation table")
    p.add_argument("--k0", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--skip", default=None, help="comma-separated skipped steps")
    common(p)

    p = sub.add_parser("characteristic", help="r,m,N,T,err table for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--r-min", dest="r_min", type=float, default=None)
    p.add_argument("--r-max", dest="r_max", type=float, default=None)
    p.add_argument("--ratio", type=float, default=None)
    common(p)

    return top


_DISPATCH = {
    "classify": cmd_classify,
    "enumerate": lambda cfg: cmd_enumerate(cfg, reduce_list=False),
    "reduce": lambda cfg: cmd_enumerate(cfg, reduce_list=True),
    "shift-check": cmd_shift_check,
    "logdiff-check": cmd_logdiff_check,
    "growth-scan": cmd_growth_scan,
    "product-example": cmd_product_example,
    "polechain": cmd_polechain,
    "characteristic": cmd_characteristic,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else OPERATIONAL_ERROR
    try:
        cfg = _resolve(args)
        if cfg.dry_run:
            sys.stdout.write(cfg.dump())
            return OK
        return _DISPATCH[cfg.subcommand](cfg)
    except (ParseError, ValueError, OSError, poleprop.Overflow) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return OPERATIONAL_ERROR
    except (clunie.ClunieError, charfn.CharFnError, growth.GrowthError) as exc:
        sys.stderr.write(f"rejected: {exc}\n")
        return REJECTED


if __name__ == "__main__":
    sys.exit(main())
