"""The error taxonomy: every nevdiff exception derives from one of two roots,
`cli.main` writes and returns what the root declares, and the spec parsers
refuse deep or long inputs instead of failing inside Python."""

import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nevdiff
from nevdiff import Refused, Rejected, cli
from nevdiff.charfn import CharFnError, NumericalBreakdown, model_from_spec
from nevdiff.eqparse import NESTING_CAP, EquationSyntaxError, ParseError, parse_equation


def test_every_exception_has_exactly_one_root():
    modules = [nevdiff] + [importlib.import_module(f"nevdiff.{m.name}")
                           for m in pkgutil.iter_modules(nevdiff.__path__)]
    classes = {cls for module in modules
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if issubclass(cls, BaseException) and cls.__module__.startswith("nevdiff")}
    assert {cls.__module__ for cls in classes} == {
        "nevdiff", "nevdiff.charfn", "nevdiff.clunie", "nevdiff.diffpoly",
        "nevdiff.eqparse", "nevdiff.growth", "nevdiff.poleprop"}
    for cls in classes:
        assert issubclass(cls, Refused) != issubclass(cls, Rejected), cls


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (Refused("no"), 1, "error: no\n"),
        (Rejected("no"), 2, "rejected: no\n"),
        (NumericalBreakdown("no"), 1, "error: numerical: no\n"),
        (CharFnError("no"), 2, "rejected: no\n"),
    ],
)
def test_main_writes_the_prefix_and_returns_the_exit_code(monkeypatch, capsys, exc, code, err):
    def handler(cfg):
        raise exc

    _, help, fields = cli._COMMANDS["polechain"]
    monkeypatch.setitem(cli._COMMANDS, "polechain", (handler, help, fields))
    assert cli.main(["polechain"]) == code
    assert capsys.readouterr() == ("", err)


def _wrap(depth: int, inner: str) -> str:
    return "(" * depth + inner + ")" * depth


def test_nesting_cap_is_the_deepest_nesting_taken():
    parse_equation("w = " + _wrap(NESTING_CAP, "w"))
    with pytest.raises(EquationSyntaxError, match=r"^parentheses nested deeper than 100 "):
        parse_equation("w = " + _wrap(NESTING_CAP + 1, "w"))
    model_from_spec("shift:1:" * NESTING_CAP + "expexp")
    with pytest.raises(ValueError, match=r"^more than 100 shift: wrappers$"):
        model_from_spec("shift:1:" * (NESTING_CAP + 1) + "expexp")


_DIGITS = st.one_of(st.text("0123456789", min_size=1, max_size=500),
                    st.integers(1, 500).map(lambda n: "1" + "0" * (n - 1)))
_DEPTHS = st.integers(0, 400)
_BRACED = st.builds(lambda depth, d: "{" + _wrap(depth, "z-" + d) + "}", _DEPTHS, _DIGITS)
_ATOMS = st.one_of(st.just("w"), _BRACED, _DIGITS.map(lambda d: f"w(z+{d})"),
                   _DIGITS.map(lambda d: f"w^{d}"))
_SIDES = st.builds(_wrap, _DEPTHS, st.lists(_ATOMS, min_size=1, max_size=3).map("*".join))
_EQUATIONS = st.builds(lambda lhs, rhs: f"{lhs} = {rhs}", _SIDES, _SIDES)
_MODELS = st.one_of(st.just("expexp"), _BRACED.map(lambda c: "exp:" + c[1:-1]),
                    st.builds(lambda a, b: f"rational:{a}/{b}", _BRACED, _BRACED))
_SPECS = st.builds(lambda k, d, model: f"shift:{d}:" * k + model, _DEPTHS, _DIGITS, _MODELS)


@given(_EQUATIONS, _SPECS)
@settings(max_examples=150, deadline=None)
def test_spec_parsers_are_total_on_deep_and_long_inputs(eq, spec):
    for parse, text in ((parse_equation, eq), (model_from_spec, spec)):
        try:
            parse(text)
        except (ParseError, ValueError):
            pass
