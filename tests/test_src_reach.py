"""Every definition in src/ is reached from src/.

A top-level function or class, or a non-dunder method, that no code in
`src/nevdiff` names outside its own body is run only by tests: it belongs in
tests/.  Names are matched by their last component (a load of the bare name,
or an attribute of that name), so a definition whose name is also used for
something else counts as reached.  The names the benchmark's tracer wraps
(`perfbench/tracing.py` `LAYERS`) count as reached too.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node) -> Counter:
    """Loads of a bare name and attribute accesses, by name, under `node`."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def _definitions(tree):
    """(qualified name, node) of each top-level def and non-dunder method."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, DEFS) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub


def test_every_src_definition_is_reached_from_src():
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(Path(ROOT, "src", "nevdiff").glob("*.py"))]
    refs = sum((_references(tree) for tree in trees), Counter())
    traced = {name for _, names in tracing.LAYERS.values() for name in names}
    unreached = [qualified for tree in trees for qualified, node in _definitions(tree)
                 if qualified not in traced
                 and refs[node.name] == _references(node)[node.name]]
    assert unreached == []
