import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condisc import (
    EVEN_ALL_EVEN_CHILDREN_WT2,
    ODD_WT2,
    ODD_WT3_NO_EVEN_CHILDREN,
    STRICT,
    Instance,
    analyze,
    build_cluster_tree,
    build_matrix,
    compare_vertex,
    local_artin,
)
from condisc.harness import default_specs, gen_instance, local_disc, local_shift

from conftest import (
    DEEP_PAIR,
    FIXTURE_A,
    FIXTURE_B,
    FIXTURE_C,
    GOOD_RED,
    NON_MINIMAL,
    ODD_CHAIN,
    WEIGHT2,
    make,
)


def ledger_map(inst):
    tree = build_cluster_tree(build_matrix(inst))
    return tree, [compare_vertex(tree, vid) for vid in range(len(tree))]


def row(led):
    return (led.d, led.D, led.E, led.D_prime, led.D_double_prime, led.equality, led.reason)


def test_fixture_a_ledgers(fixture_a):
    tree, led = ledger_map(fixture_a)
    assert row(led[0]) == (6, 6, 0, 6, 6, True, EVEN_ALL_EVEN_CHILDREN_WT2)
    for c in tree.root.children:
        assert row(led[c]) == (0, 0, 0, 0, 0, True, EVEN_ALL_EVEN_CHILDREN_WT2)


def test_fixture_b_ledgers(fixture_b):
    tree, led = ledger_map(fixture_b)
    assert row(led[0]) == (6, 2, 4, 6, 6, True, EVEN_ALL_EVEN_CHILDREN_WT2)
    assert row(led[1]) == (0, 4, -4, 0, 0, True, ODD_WT3_NO_EVEN_CHILDREN)


def test_fixture_c_ledgers(fixture_c):
    tree, led = ledger_map(fixture_c)
    rows = sorted(map(row, led))
    assert rows == sorted(
        [
            (2, 2, 0, 2, 2, True, EVEN_ALL_EVEN_CHILDREN_WT2),
            (2, 2, 0, 2, 2, True, EVEN_ALL_EVEN_CHILDREN_WT2),
            (0, 0, 0, 0, 0, True, EVEN_ALL_EVEN_CHILDREN_WT2),
        ]
    )


def test_odd_chain_ledgers():
    tree, led = ledger_map(make(ODD_CHAIN))
    a = next(vid for vid, v in enumerate(tree) if v.odd and v.wt == 3)
    b = next(vid for vid, v in enumerate(tree) if v.odd and v.wt == 2)
    assert row(led[0]) == (6, 2, 4, 6, 6, True, EVEN_ALL_EVEN_CHILDREN_WT2)
    assert row(led[a]) == (2, 3, -3, 0, 2, True, ODD_WT3_NO_EVEN_CHILDREN)
    assert led[a].L_count == 1
    assert row(led[b]) == (0, 3, -1, 2, 0, True, ODD_WT2)


def test_weight2_strict_vertex():
    tree, led = ledger_map(make(WEIGHT2))
    root = tree.root
    assert row(led[0]) == (12, 2, 0, 2, 2, False, STRICT)
    # defect equals the even-children surplus sum(wt(wt-1) - 2)
    defect = led[0].d - led[0].D_double_prime
    assert defect == sum(
        tree[c].wt * (tree[c].wt - 1) - 2 for c in root.children if not tree[c].odd
    )


def test_nonminimal_ledgers():
    tree, led = ledger_map(make(NON_MINIMAL))
    v = next(vid for vid, u in enumerate(tree) if u.odd)
    w = tree[v].children[0]
    assert row(led[0]) == (6, 2, 4, 6, 6, True, EVEN_ALL_EVEN_CHILDREN_WT2)
    assert row(led[v]) == (6, -1, -3, -4, -4, False, STRICT)
    assert row(led[w]) == (0, 1, -1, 0, 0, True, EVEN_ALL_EVEN_CHILDREN_WT2)


def test_analyze_fixture_a(fixture_a):
    r = analyze(fixture_a)
    assert (r.nu_df, r.artin, r.artin_local_sum) == (6, 6, 6)
    assert (r.n_components, r.f_tilde) == (5, 2)
    assert r.inequality_holds and r.equality_holds and r.x_minimal
    assert r.component_bound_ok
    assert r.genus == 2 and r.p == 3


def test_verdicts_that_a_raise_decides_are_not_stored(fixture_a):
    # _report raises on artin > nu_df and on f_tilde < 0 (tests/test_ledger_checks.py), so a
    # report it returns reads both verdicts from the class; _check_conductor_decomposition
    # raises unless the per-vertex sum is artin, so artin_local_sum reads artin
    r = analyze(fixture_a)
    assert r.inequality_holds is True and r.component_bound_ok is True
    assert {"inequality_holds", "component_bound_ok", "artin_local_sum"}.isdisjoint(vars(r))
    r.artin = 7
    assert r.artin_local_sum == 7
    with pytest.raises(AttributeError):
        r.artin_local_sum = 6


def test_analyze_fixture_c(fixture_c):
    r = analyze(fixture_c)
    assert (r.nu_df, r.artin, r.n_components, r.f_tilde) == (4, 4, 4, 1)
    assert r.equality_holds and r.x_minimal


def test_analyze_good_reduction(good_reduction):
    r = analyze(good_reduction)
    assert (r.nu_df, r.artin, r.n_components, r.f_tilde) == (0, 0, 1, 0)
    assert r.equality_holds


def test_analyze_matrix_mode():
    m = build_matrix(make(FIXTURE_B))
    r = analyze(m, label="as-matrix")
    assert r.p is None and r.label == "as-matrix"
    assert (r.nu_df, r.artin) == (6, 6)


def test_global_identities_hold():
    for fx in (FIXTURE_A, FIXTURE_B, FIXTURE_C, GOOD_RED, ODD_CHAIN, WEIGHT2, NON_MINIMAL, DEEP_PAIR):
        r = analyze(make(fx))
        assert sum(l.E for l in r.ledgers) == 0
        assert sum(l.D for l in r.ledgers) == r.artin
        assert sum(l.D_double_prime for l in r.ledgers) == sum(l.D_prime for l in r.ledgers)
        assert all(l.D_prime == l.D + l.E for l in r.ledgers)
        assert all(l.D_double_prime <= l.d for l in r.ledgers)
        assert r.artin <= r.nu_df
        assert r.equality_holds == all(l.equality for l in r.ledgers)
        assert r.equality_holds == (r.artin == r.nu_df)
        assert r.f_tilde == r.artin - r.n_components + 1 >= 0
        assert r.n_components <= r.artin + 1 <= r.nu_df + 1


def test_equality_requires_minimal():
    r = analyze(make(NON_MINIMAL))
    assert not r.x_minimal and not r.equality_holds
    assert r.contractible != ()


def test_report_json_shape(fixture_a):
    r = analyze(fixture_a)
    doc = r.to_json_dict()
    assert list(doc) == [
        "label", "nu_df", "artin_conductor", "artin_local_sum", "n_components",
        "f_tilde", "inequality_holds", "equality_holds", "x_minimal",
        "component_bound_ok", "warnings", "vertices",
    ]
    assert doc["artin_conductor"] == 6
    assert doc["label"] == "fixtureA"
    vert = doc["vertices"][0]
    assert list(vert) == [
        "id", "depth", "wt", "l_prime", "r", "s", "l", "parity",
        "d", "D", "E", "D_prime", "D_double_prime", "equality", "reason",
    ]
    # round trip is byte-identical
    text = r.to_json()
    assert json.dumps(json.loads(text), indent=2) == text


def test_small_genus_flag():
    from condisc import Instance, TooFewRootsError

    inst = Instance.from_values(3, [0, 1, 2, 3])
    with pytest.raises(TooFewRootsError):
        analyze(inst)
    r = analyze(inst, allow_small=True)
    assert r.genus == 1
    assert any("out of scope" in w for w in r.warnings)


@pytest.mark.parametrize("roots, artin, nu_df, n_components", [
    ([0, 1], 0, 0, 1),  # the difference is a unit
    ([0, 3], 2, 2, 3),  # the difference has valuation 1
])
def test_two_roots_are_analyzed_under_allow_small(roots, artin, nu_df, n_components):
    r = analyze(Instance.from_values(3, roots), allow_small=True)
    assert (r.genus, r.artin, r.nu_df, r.n_components) == (0, artin, nu_df, n_components)


def _fixtures_and_specs(count):
    for fx in (FIXTURE_A, FIXTURE_B, FIXTURE_C, GOOD_RED, ODD_CHAIN, WEIGHT2, NON_MINIMAL, DEEP_PAIR):
        yield make(fx)
    for spec in default_specs(count):
        yield gen_instance(spec)


def test_one_scan_ledger_matches_the_per_term_walks():
    for inst in _fixtures_and_specs(200):
        tree = build_cluster_tree(build_matrix(inst))
        for vid, v in enumerate(tree):
            led = compare_vertex(tree, vid)
            assert (led.d, led.D, led.E) == (local_disc(v, tree), local_artin(v), local_shift(v, tree))
            wt2 = sum(1 for c in v.children if tree[c].wt == 2)
            assert led.L_count == (wt2 if v.odd and v.wt > 2 else 0)


def test_to_json_is_json_dumps_with_indent_two():
    reports = []
    for inst in _fixtures_and_specs(200):
        reports += [analyze(inst), analyze(build_matrix(inst))]
    reports.append(analyze(Instance.from_values(3, (0, 3**400, 1, 2, 4, 5))))  # a chain of depth 400
    for r in reports:
        assert r.to_json() == json.dumps(r.to_json_dict(), indent=2)


_TEXT = st.text(
    st.one_of(
        st.characters(categories=["Cc", "Cs", "Zs", "Ll", "Lo", "So"]),  # controls, lone surrogates, non-BMP
        st.sampled_from('"\\/\n\r\t\x7f\u2028\U0001F600'),
    )
)


@settings(max_examples=150, deadline=None)
@given(label=st.none() | _TEXT, warnings=st.lists(_TEXT, max_size=3))
def test_to_json_writes_any_label_and_warnings_as_json_does(label, warnings):
    r = analyze(make(FIXTURE_B))
    r.label, r.warnings = label, tuple(warnings)
    assert r.to_json() == json.dumps(r.to_json_dict(), indent=2)
    assert r.to_json_line() == json.dumps(r.to_json_dict(), separators=(",", ":"))
