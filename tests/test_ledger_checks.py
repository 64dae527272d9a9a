"""Each identity the ledger pass checks fails, with its own message, on data
tampered to break it.

The helpers of :mod:`condisc.conductor` are called directly on a report's
tree, graph and ledgers, one of them changed.  The checks inside ``_report``
run on FIXTURE_A (equality holds, nu(d_f) = -Art = 6), with ``nu_df``, the
root's ledger or one of the graph functions changed, each case passing every
check before the one it targets."""

import re

import pytest

import condisc.conductor as conductor
from condisc import (
    ClusterTree,
    XGraph,
    analyze,
    build_cluster_tree,
    build_matrix,
    compare_vertex,
)
from condisc.conductor import (
    _check_bound_bijection,
    _check_conductor_decomposition,
    _check_shift_identities,
    _report,
)
from condisc.errors import InequalityViolated, InternalInvariantViolation
from condisc.harness import default_specs, gen_instance

from conftest import FIXTURE_A, FIXTURE_B, make


def _with_vertex(tree, vid, **change):
    """A copy of `tree` whose vertex `vid` has the fields in `change`."""
    return ClusterTree(
        tuple(v._replace(**change) if i == vid else v for i, v in enumerate(tree)), tree.num_roots, tree.nu_df
    )


def _with_ledger(ledgers, vid, **change):
    return tuple(led._replace(**change) if i == vid else led for i, led in enumerate(ledgers))


@pytest.fixture
def report_a():
    return analyze(make(FIXTURE_A))


@pytest.mark.parametrize(
    "fixture, vid, field, message",
    [
        (FIXTURE_A, 0, "f_val", "odd/even weight"),   # an odd root: its weight term has no parent to cancel it
        (FIXTURE_A, 1, "r", "parent-parity"),
        (FIXTURE_B, 1, "wt", "odd-parent count"),     # the odd vertex now reads an odd parent
    ],
)
def test_rebalancing_that_does_not_cancel_rejected(fixture, vid, field, message):
    r = analyze(make(fixture))
    tree = _with_vertex(r.tree, vid, **{field: getattr(r.tree[vid], field) + 1})
    with pytest.raises(InternalInvariantViolation, match=f"^{message} rebalancing does not cancel$"):
        _check_shift_identities(tree, r.ledgers)


def test_shift_terms_that_do_not_sum_to_zero_rejected(report_a):
    ledgers = _with_ledger(report_a.ledgers, 1, E=report_a.ledgers[1].E + 1)
    with pytest.raises(InternalInvariantViolation, match="^shift terms E do not sum to zero$"):
        _check_shift_identities(report_a.tree, ledgers)


def test_chain_heads_that_miss_the_odd_weight_2_leaves_rejected(report_a):
    ledgers = _with_ledger(report_a.ledgers, 0, L_count=1)
    message = re.escape("odd weight-2 leaves (0) != weight-2 chain heads (1)")
    with pytest.raises(InternalInvariantViolation, match=message):
        _check_bound_bijection(report_a.tree, ledgers)


def test_moves_that_change_the_sum_of_d_prime_rejected(report_a):
    ledgers = _with_ledger(report_a.ledgers, 0, D_double_prime=5)
    with pytest.raises(InternalInvariantViolation, match="^sum of D'' differs from sum of D'$"):
        _check_bound_bijection(report_a.tree, ledgers)


def test_conductor_split_by_vertex_checks_each_share_and_the_total(report_a):
    r = report_a
    ledgers = _with_ledger(r.ledgers, 2, D=1)  # read by its position: vertex 2
    message = re.escape("component terms over the vertex sum to 0, formula gives 1 (at vertex 2)")
    with pytest.raises(InternalInvariantViolation, match=message):
        _check_conductor_decomposition(r.tree, r.xgraph, ledgers, r.artin)
    with pytest.raises(InternalInvariantViolation, match="^local conductor terms do not sum to the graph conductor$"):
        _check_conductor_decomposition(r.tree, r.xgraph, r.ledgers, r.artin + 1)


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({"wt": 2}, InequalityViolated, re.escape("D'' = 2 exceeds d = 0 (at vertex 1)")),
        ({"sep_roots": (1, 2)}, InternalInvariantViolation,
         re.escape("equality clause disagrees with the computed values (at vertex 1)")),
    ],
)
def test_vertex_comparison_that_fails_rejected(change, error, message):
    tree = analyze(gen_instance(default_specs(1)[0])).tree
    v = tree[1]
    assert (v.wt, v.is_leaf, v.sep_roots) == (3, True, (0, 1, 2))
    with pytest.raises(error, match=message):
        compare_vertex(_with_vertex(tree, 1, **change), 1)


def _tree_a(nu_df_drop=0):
    tree = build_cluster_tree(build_matrix(make(FIXTURE_A)))
    tree.nu_df -= nu_df_drop
    return tree


def _tamper_root_ledger(monkeypatch, **change):
    original = conductor.compare_vertex

    def compare(tree, vid):
        led = original(tree, vid)
        return led._replace(**change) if vid == 0 else led

    monkeypatch.setattr(conductor, "compare_vertex", compare)


def test_untampered_fixture_a_passes_every_check():
    r = _report(_tree_a(), 3, "fixtureA")
    assert (r.nu_df, r.artin, r.equality_holds, r.n_components) == (6, 6, True, 5)
    assert r.ledgers[0][:5] == (6, 6, 0, 6, 6)  # d, D, E, D', D'' at the root


@pytest.mark.parametrize(
    "root_ledger, error, message",
    [
        ({}, InternalInvariantViolation, r"^local discriminant shares do not sum to nu\(d_f\)$"),
        ({"d": 5}, InequalityViolated, re.escape("sum of D'' = 6 exceeds nu(d_f) = 5")),
        ({"d": 5, "D_prime": 5, "D_double_prime": 5}, InequalityViolated, "^conductor 6 exceeds discriminant 5$"),
    ],
)
def test_totals_above_the_discriminant_rejected(monkeypatch, root_ledger, error, message):
    _tamper_root_ledger(monkeypatch, **root_ledger)
    with pytest.raises(error, match=message):
        _report(_tree_a(nu_df_drop=1), 3, "fixtureA")


def test_global_equality_that_the_ledger_denies_rejected(monkeypatch):
    _tamper_root_ledger(monkeypatch, equality=False)
    with pytest.raises(InternalInvariantViolation, match="^global equality disagrees with the per-vertex ledger$"):
        _report(_tree_a(), 3, "fixtureA")


def test_equality_with_a_contractible_component_rejected(monkeypatch):
    monkeypatch.setattr(conductor, "detect_nonminimal", lambda tree: [0])
    with pytest.raises(InternalInvariantViolation, match="^equality with a contractible component present$"):
        _report(_tree_a(), 3, "fixtureA")


def test_conductor_off_the_euler_characteristic_route_rejected(monkeypatch):
    original = conductor.artin_conductor
    monkeypatch.setattr(conductor, "artin_conductor", lambda x: original(x) + 2)
    with pytest.raises(InternalInvariantViolation, match="^conductor disagrees with the Euler-characteristic route$"):
        _report(_tree_a(), 3, "fixtureA")


def test_negative_representation_conductor_rejected(monkeypatch):
    monkeypatch.setattr(XGraph, "n_components", property(lambda x: 10**6))
    with pytest.raises(InternalInvariantViolation, match="^negative representation conductor -999993$"):
        _report(_tree_a(), 3, "fixtureA")
