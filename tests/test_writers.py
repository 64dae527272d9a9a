"""The report writers against their independent routes.

``Report.to_json`` and ``Report.to_json_line`` write each row from a
per-vertex template; ``json.dumps`` of ``Report.to_json_dict`` is the route
they must match byte for byte.  ``render_text`` has no second route, so on
trees with cut chains all three writers are compared with the per-depth
pipeline's output.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from condisc import Instance, analyze, build_matrix, matrix_from_rows
from condisc.harness import default_specs, gen_instance, per_depth_oracle
from condisc.render import render_text
from conftest import FIXTURE_B, chain_cases, cluster_rows, make


def _assert_json_routes(r):
    doc = r.to_json_dict()
    assert r.to_json() == json.dumps(doc, indent=2)
    assert r.to_json_line() == json.dumps(doc, separators=(",", ":"))


def test_writers_match_json_dumps_on_the_fuzz_specs_and_their_twins():
    for spec in default_specs(1000):
        inst = gen_instance(spec)
        for source in (inst, build_matrix(inst)):
            _assert_json_routes(analyze(source))


def test_writers_match_json_dumps_on_chains_of_length_1_to_50():
    for length in range(1, 51):
        for name, rows in chain_cases(length):
            _assert_json_routes(analyze(matrix_from_rows(rows), label=name))


def test_writers_match_json_dumps_on_labels_that_need_escaping_and_on_warnings():
    small = analyze(Instance.from_values(3, (0, 1, 2, 3)), allow_small=True)  # warns: genus 1
    assert small.warnings
    _assert_json_routes(small)
    r = analyze(make(FIXTURE_B))
    for label in ('say "hi"', "back\\slash", "bell\x07 tab\t nul\x00", "café ∞ \U0001F600", None):
        for warnings in ((), ("quoted \"warning\"", "  and \x1f"), small.warnings):
            r.label, r.warnings = label, warnings
            _assert_json_routes(r)


@st.composite
def _laminar_rows(draw):
    """Valuation rows of a laminar family of clusters: each cluster splits into
    2 or 3 runs of roots, each run of 2 or more roots sitting 1 to 30 steps
    deeper, so sibling chains sit side by side, chains nest, and their
    lengths (and so their repeats) differ."""
    n = draw(st.sampled_from((6, 8, 10)))
    top = draw(st.integers(0, 12))  # > 0: every root in one residue disc, a chain at the root
    clusters = [(range(n), top)] if top else []
    todo = [(list(range(n)), top)]
    while todo:
        members, floor = todo.pop()
        k = draw(st.integers(2, min(3, len(members))))
        cuts = sorted(draw(st.sets(st.integers(1, len(members) - 1), min_size=k - 1, max_size=k - 1)))
        for a, b in zip([0, *cuts], [*cuts, len(members)]):
            if b - a >= 2:
                run = (members[a:b], floor + draw(st.integers(1, 30)))
                clusters.append(run)
                todo.append(run)
    return cluster_rows(n, clusters)


@settings(max_examples=60, deadline=None)
@given(rows=_laminar_rows())
def test_writers_on_laminar_families_match_the_per_depth_pipeline(rows):
    m = matrix_from_rows(rows)
    ours, oracle = analyze(m, label="laminar"), per_depth_oracle(m, label="laminar")
    assert ours.tree.expand() == oracle.tree
    doc = oracle.to_json_dict()
    assert ours.to_json() == oracle.to_json() == json.dumps(doc, indent=2)
    assert ours.to_json_line() == oracle.to_json_line() == json.dumps(doc, separators=(",", ":"))
    assert render_text(ours) == render_text(oracle)
