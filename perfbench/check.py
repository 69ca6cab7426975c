"""Correctness gate: each CLI call's exit code and report against its
expectation.

A report is compared with the reference report of the same call (seed 0) by
structure: CSV tables column by column, JSON documents key by key, text
lines exactly.  Pass/fail columns, verdicts, flags and strings must be
equal.  A number must agree within REL_TOL relative plus ABS_TOL absolute:
none of the workloads' reports gives an error estimate of its own.
Columns or keys the reference lacks are ignored, so a report may gain
columns.  Without a reference (other seeds) only the built-in expectation is
checked: the exit code and, for classify, the verdict.
"""

from __future__ import annotations

import json
import math
from typing import Any, List, Optional

from workloads import ADMISSIBLE, COMMON_FACTOR, DEGREE_BOUND

# The CLI prints 12 significant digits; quadrature runs at tol_unit 1e-8 of
# the integrand scale.  A value may move within that error, not beyond.
REL_TOL = 1e-6
ABS_TOL = 1e-7
FLAG_COLUMNS = ("pass",)


class Mismatch(Exception):
    pass


def _number(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def _close(ref: float, got: float) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return False
    return abs(ref - got) <= REL_TOL * max(abs(ref), abs(got)) + ABS_TOL


def _segments(text: str) -> List[Any]:
    """A report as a list of segments: ('json', value), ('csv', header, rows)
    or ('text', line)."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        try:
            return [("json", json.loads(stripped))]
        except json.JSONDecodeError:
            pass
    out: List[Any] = []
    table = None
    for line in text.splitlines():
        if line.startswith("{"):
            out.append(("json", json.loads(line)))
            table = None
        elif line.startswith("rejected:") or "," not in line:
            out.append(("text", line))
            table = None
        elif table is None:
            table = ("csv", line.split(","), [])
            out.append(table)
        else:
            table[2].append(line.split(","))
    return out


def _compare_json(ref: Any, got: Any, where: str) -> None:
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        if ref != got or type(ref) is not type(got):
            raise Mismatch(f"{where}: {got!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not _close(ref, got):
            raise Mismatch(f"{where}: {got!r} not within tolerance of {ref!r}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise Mismatch(f"{where}: list differs in length")
        for k, (a, b) in enumerate(zip(ref, got)):
            _compare_json(a, b, f"{where}[{k}]")
    elif isinstance(ref, dict):
        if not isinstance(got, dict):
            raise Mismatch(f"{where}: not an object")
        for key, value in ref.items():
            if key not in got:
                raise Mismatch(f"{where}: key {key!r} missing")
            _compare_json(value, got[key], f"{where}.{key}")


def _compare_csv(ref_header, ref_rows, got_header, got_rows, where: str) -> None:
    missing = [c for c in ref_header if c not in got_header]
    if missing:
        raise Mismatch(f"{where}: columns {missing} missing")
    if len(got_rows) != len(ref_rows):
        raise Mismatch(f"{where}: {len(got_rows)} rows, reference has {len(ref_rows)}")
    col = {name: got_header.index(name) for name in ref_header}
    for k, (ref_row, got_row) in enumerate(zip(ref_rows, got_rows)):
        if len(got_row) != len(got_header):
            raise Mismatch(f"{where} row {k}: malformed")
        for name, ref_cell in zip(ref_header, ref_row):
            got_cell = got_row[col[name]]
            ref_num, got_num = _number(ref_cell), _number(got_cell)
            if name in FLAG_COLUMNS or ref_num is None:
                same = ref_cell == got_cell
            else:
                same = got_num is not None and _close(ref_num, got_num)
            if not same:
                raise Mismatch(f"{where} row {k} column {name}: {got_cell} vs {ref_cell}")


def compare_reports(reference: str, report: str) -> None:
    """Raise Mismatch unless `report` matches `reference` as described above."""
    ref_segs, got_segs = _segments(reference), _segments(report)
    if len(ref_segs) != len(got_segs):
        raise Mismatch(f"{len(got_segs)} report sections, reference has {len(ref_segs)}")
    for k, (ref, got) in enumerate(zip(ref_segs, got_segs)):
        where = f"section {k}"
        if ref[0] != got[0]:
            raise Mismatch(f"{where}: {got[0]} where reference has {ref[0]}")
        if ref[0] == "json":
            _compare_json(ref[1], got[1], where)
        elif ref[0] == "csv":
            _compare_csv(ref[1], ref[2], got[1], got[2], where)
        elif ref[1] != got[1]:
            raise Mismatch(f"{where}: {got[1]!r} != reference {ref[1]!r}")


def check_verdict(verdict: str, report: str) -> None:
    """The built-in classify verdict: a JSON report with the expected
    admissibility, or one `rejected:` line for a planted common factor."""
    if verdict == COMMON_FACTOR:
        if not (report.startswith("rejected:") and report.count("\n") == 1):
            raise Mismatch("expected one `rejected:` line")
        return
    try:
        payload = json.loads(report)
    except json.JSONDecodeError:
        raise Mismatch("report is not JSON") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("verdict"), dict):
        raise Mismatch("report has no verdict")
    v = payload["verdict"]
    if v.get("admissible") is not (verdict == ADMISSIBLE):
        raise Mismatch(f"admissible is {v.get('admissible')!r}, expected {verdict}")
    if verdict == DEGREE_BOUND and v.get("ruled_out") != DEGREE_BOUND:
        raise Mismatch(f"ruled_out is {v.get('ruled_out')!r}, expected {DEGREE_BOUND}")
    if payload.get("coprimality") != "verified":
        raise Mismatch("coprimality not verified")


def check_call(call, exit_code: int, report: Optional[str], reference: Optional[str]) -> Optional[str]:
    """None when the call is correct, else the reason it failed."""
    if exit_code != call.exit_code:
        return f"exit code {exit_code}, expected {call.exit_code}"
    if report is None:
        return "no report written"
    try:
        if call.verdict is not None:
            check_verdict(call.verdict, report)
        if reference is not None:
            compare_reports(reference, report)
    except (Mismatch, json.JSONDecodeError) as exc:
        return str(exc)
    return None
