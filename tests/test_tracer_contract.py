"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py wraps nevdiff's functions by name.  A renamed one is
reported as an absent layer, and a non-finite layer value makes the
benchmark's last line invalid JSON; either breaks a traced benchmark run
without failing a call.  This runs the seed-0 calls of every workload
traced.
"""

from __future__ import annotations

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from nevdiff import cli  # noqa: E402

# reported by perfbench/run.py itself, not by the tracer
RUN_METRICS = ("trace.overhead_s", "src.lines")


def _traced_table(name, tmp_path):
    """The layer table of a traced run of workload `name`'s seed-0 calls, and
    the wrapped name of each span in the order the spans started."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        layer_names = [m["name"] for m in json.load(fh)["per_layer"]]
    calls = workloads.build(name, 0).calls

    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(list(c.argv) + ["--out", str(tmp_path / "report.txt")])
                 for c in calls]
    finally:
        tracer.uninstall()
    assert codes == [c.exit_code for c in calls]
    assert tracer.missing == []
    table = tracer.summary()
    assert sorted(set(layer_names) - set(RUN_METRICS) - set(table)) == []
    assert all(math.isfinite(v) for v in table.values()), table
    json.dumps(table, allow_nan=False)
    return table, [tracer.names[i] for i in tracer.name_ids]


def test_traced_shift_product_reports_every_layer(tmp_path):
    table, _ = _traced_table("shift-product", tmp_path)
    assert table["charfn.model.calls"] > 0 and table["charfn.model.points"] > 0


def test_traced_product_window_does_the_same_quadrature_work(tmp_path):
    table, _ = _traced_table("product-window", tmp_path)
    # the model points of product-example --levels 3 and the product's
    # log-difference scan, as when each product row was three one-radius calls
    assert table["charfn.model.points"] == 40682


def test_traced_classify_batch_reports_the_symbolic_layers(tmp_path):
    table, _ = _traced_table("classify-batch", tmp_path)
    # one parse_equation and one validate_no_common_factors span per call
    assert table["eqparse.calls"] == 300
    assert table["clunie.calls"] > 0


def test_traced_logdiff_scan_reports_the_growth_layer(tmp_path):
    table, spans = _traced_table("logdiff-scan", tmp_path)
    assert table["growth.self_s"] > 0
    # the model work of the two scans' circle means
    assert table["charfn.model.calls"] == 692
    assert table["charfn.model.points"] == 1841706
    # each scan builds its exception set and densities through the names
    # charfn imports from growth, which the growth layer wraps
    assert spans.count("charfn.exception_set_from_grid") == 2
    assert spans.count("charfn.densities") == 2
