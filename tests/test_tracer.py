"""perfbench's span tracer rebinds condisc names from outside the package.

``perfbench/spans.py`` looks up each name in its ``TARGETS``, and
``XGraph.neighbors``, where the package defines them; renaming one breaks
the traced benchmark, so the tracer is installed here against the imported
package and removed again.
"""

import sys
from pathlib import Path

import condisc
import condisc.instancefile  # every module TARGETS names must be loaded
import condisc.render
from condisc.conductor import Report
from condisc.dualgraph import XGraph
from condisc.valuation import Instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every name bound in a condisc module, and the methods of the classes TARGETS names."""
    out = {k: dict(vars(m)) for k, m in sys.modules.items() if k == "condisc" or k.startswith("condisc.")}
    for cls in (Instance, Report, XGraph):
        out[cls.__qualname__] = dict(vars(cls))
    return out


def test_perfbench_tracer_installs_and_uninstalls(monkeypatch, fixture_b):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import spans

        before = _bindings()
        tracer = spans.Tracer()
        tracer.install()
        try:
            report = condisc.analyze(fixture_b)  # looked up at call time, so the traced one
            report.to_json()
            condisc.render.render_text(report)
            assert list(report.xgraph.neighbors(0))
        finally:
            tracer.uninstall()
        assert _bindings() == before
    finally:
        sys.modules.pop("spans", None)
    calls = tracer.calls()
    for name in ("conductor.analyze", "dualgraph.build_tx", "dualgraph.genus_check", "render.to_json",
                 "render.render_text"):
        assert calls[name] == 1, name
    assert tracer.counts["dualgraph.neighbors.calls"] == 1


def test_tracer_counts_tree_vertices_and_reports_stay_mutable(monkeypatch, fixture_a):
    # spans.py counts `len(result)` of build_cluster_tree as its vertices, and
    # perfbench's tests change a report's nu_df in place
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            report = condisc.analyze(fixture_a)
        finally:
            tracer.uninstall()
    finally:
        sys.modules.pop("spans", None)
    assert len(report.tree.vertices) == 4  # not 2, the field count of a two-field record
    assert tracer.counts["cluster.tb_vertices"] == len(report.tree.vertices)
    nu_df = report.nu_df
    report.nu_df += 1
    assert report.nu_df == nu_df + 1
