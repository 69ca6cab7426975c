"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each layer's public functions, where their
callers look them up, with wrappers that record one span per call: name,
start, end, parent span and call id (the `cli.main` call it belongs to).
Spans stay in memory; `summary()` aggregates them into the per-layer table
and `write_spans()` writes them out.  A span's self time is its duration
minus the durations of its direct child spans, so the layers' self times
partition the time spent inside `cli.main`.

A name that no longer exists is skipped, and every metric of its layer is
reported as absent instead of as a number that would not be comparable.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

MODEL_CLASSES = ("RationalFn", "CanonicalProduct", "ExpPoly", "ExpExp")

# layer -> (module, names looked up there).  eqparse is patched where cli
# looks it up and growth where charfn does, because both import by name.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "cli": ("nevdiff.cli", ("main",)),
    "eqparse": ("nevdiff.cli", ("parse_equation", "validate_no_common_factors")),
    "clunie": ("nevdiff.clunie",
               ("check_hypotheses", "degree_profile", "admissible", "profile_verdict")),
    "charfn.counting": ("nevdiff.charfn", ("counting_N",)),
    "charfn.quadrature": ("nevdiff.charfn", ("proximity_m", "characteristic_T", "log_diff_m")),
    "charfn.model": ("nevdiff.charfn", tuple(f"{c}.log_abs" for c in MODEL_CLASSES)),
    "charfn.divisor": ("nevdiff.charfn",
                       tuple(f"{c}.{m}" for c in MODEL_CLASSES for m in ("zeros", "poles"))),
    "growth": ("nevdiff.charfn", ("geometric_grid", "exception_set_from_grid", "densities")),
}

# Extra per-layer amount, taken from a call's arguments or result, and its
# metric name.  Quadrature evaluations are counted on the outermost
# quadrature span only: log_diff_m returns the CircleMean of the
# proximity_m call inside it.
AMOUNTS: Dict[str, Tuple[str, Callable]] = {
    "charfn.model": ("points", lambda args, result: getattr(args[1], "size", 1)),
    "charfn.divisor": ("points", lambda args, result: len(result)),
    "charfn.quadrature": ("evaluations",
                          lambda args, result: getattr(result, "evaluations", 0)),
}

# Layers whose metric set is only the self time.
SELF_ONLY = ("growth",)

COUNTING_CACHE = ("nevdiff.charfn", "_counting_arrays")


def _resolve(owner, dotted: str):
    """(object holding the last attribute, attribute name, current value)."""
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        # one entry per span, in start order
        self.name_ids: List[int] = []
        self.parents: List[int] = []
        self.call_ids: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.amounts: List[float] = []
        self._stack: List[int] = []
        self._calls = 0
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for dotted in names:
                found = _resolve(module, dotted)
                if found is None:
                    self.missing.append(f"{module_name}.{dotted}")
                    continue
                owner, attr, fn = found
                self.names.append(f"{module_name.split('.')[-1]}.{dotted}")
                self.layers.append(layer)
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, len(self.names) - 1, layer))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _wrap(self, fn: Callable, name_id: int, layer: str) -> Callable:
        clock = time.perf_counter
        stack, starts, ends = self._stack, self.starts, self.ends
        amount_of = AMOUNTS.get(layer, (None, None))[1]
        outer_only = layer == "charfn.quadrature"
        layers = self.layers

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._calls += 1
            idx = len(starts)
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.call_ids.append(self._calls)
            self.amounts.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount_of is not None and not (
                outer_only and parent >= 0 and layers[self.name_ids[parent]] == layer
            ):
                self.amounts[idx] = amount_of(args, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per-layer metrics by name; absent layers are left out."""
        n = len(self.starts)
        child_time = [0.0] * n
        for idx in range(n):
            parent = self.parents[idx]
            if parent >= 0:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        amounts: Dict[str, float] = {layer: 0 for layer in LAYERS}
        for idx in range(n):
            layer = self.layers[self.name_ids[idx]]
            self_s[layer] += self.ends[idx] - self.starts[idx] - child_time[idx]
            calls[layer] += 1
            amounts[layer] += self.amounts[idx]

        absent = {self._layer_of(name) for name in self.missing}
        out: Dict[str, float] = {}
        for layer in LAYERS:
            if layer in absent:
                continue
            out[f"{layer}.self_s"] = self_s[layer]
            if layer in SELF_ONLY:
                continue
            out[f"{layer}.calls"] = calls[layer]
            if layer in AMOUNTS:
                out[f"{layer}.{AMOUNTS[layer][0]}"] = amounts[layer]
        out.update(self._index_metrics())
        return out

    @staticmethod
    def _layer_of(missing_name: str) -> Optional[str]:
        for layer, (module_name, names) in LAYERS.items():
            if any(missing_name == f"{module_name}.{d}" for d in names):
                return layer
        return None

    def _index_metrics(self) -> Dict[str, float]:
        """Counting-index builds and hit ratio from the index cache; absent
        when the cache is gone or the counting layer is."""
        module_name, attr = COUNTING_CACHE
        cache = getattr(importlib.import_module(module_name), attr, None)
        info = getattr(cache, "cache_info", None)
        if info is None:
            name = f"{module_name}.{attr}.cache_info"
            if name not in self.missing:
                self.missing.append(name)
            return {}
        if "charfn.counting" in {self._layer_of(m) for m in self.missing}:
            return {}
        info = info()
        lookups = info.hits + info.misses
        return {
            "charfn.counting.index_builds": info.misses,
            "charfn.counting.index_hit_ratio": info.hits / lookups if lookups else 0.0,
        }

    def write_spans(self, path: str) -> None:
        """One CSV row per span, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,call,name,start_s,end_s\n")
            for idx in range(len(self.starts)):
                fh.write(
                    f"{idx},{self.parents[idx]},{self.call_ids[idx]},"
                    f"{self.names[self.name_ids[idx]]},"
                    f"{self.starts[idx] - t0:.9f},{self.ends[idx] - t0:.9f}\n"
                )

