import sys
import time

import pytest

import condisc.cluster
from condisc import (
    ClusterTree,
    ClusterVertex,
    Instance,
    InstanceError,
    TooFewRootsError,
    UltrametricViolationError,
    InternalInvariantViolation,
    build_cluster_tree,
    build_matrix,
    check_tree_invariants,
    equation_discriminant,
    matrix_from_rows,
    validate_ultrametric,
)
from condisc.harness import (
    GenSpec,
    default_specs,
    disc_oracle,
    gen_instance,
    local_disc,
    member_sets,
    mutate_entry,
    naive_tree_oracle,
    trees_agree,
)
from condisc.valuation import Residues, residues

from conftest import DEEP_PAIR, FIXTURE_C, cluster_rows, make


def tree_of(inst: Instance):
    return build_cluster_tree(build_matrix(inst))


def by_members(tree, members, depth):
    """The id of the one vertex with these members at this depth."""
    sets = member_sets(tree)
    hits = [vid for vid, v in enumerate(tree) if sets[vid] == frozenset(members) and v.depth == depth]
    assert len(hits) == 1
    return hits[0]


def test_fixture_a_tree(fixture_a):
    tree = tree_of(fixture_a)
    assert len(tree) == 4
    root = tree.root
    assert (root.wt, root.parity, root.l_prime, root.r, root.s, root.l) == (6, "even", 0, 0, 3, 0)
    kids = [tree[c] for c in root.children]
    assert [member_sets(tree)[c] for c in root.children] == [frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})]
    for k in kids:
        assert (k.wt, k.parity, k.l_prime, k.r, k.s, k.l, k.f_val) == (2, "even", 2, 0, 0, 2, 2)
    check_tree_invariants(tree)


def test_fixture_b_tree(fixture_b):
    tree = tree_of(fixture_b)
    assert len(tree) == 2
    root, child = tree.root, tree[1]
    assert (root.wt, root.parity, root.l_prime, root.r, root.s, root.l) == (6, "even", 3, 1, 0, 4)
    assert member_sets(tree)[1] == frozenset({0, 1, 2})
    assert (child.wt, child.f_val, child.parity, child.l_prime, child.r, child.s, child.l) == (
        3, 3, "odd", 3, 0, 0, 3,
    )
    check_tree_invariants(tree)


def test_fixture_c_tree(fixture_c):
    tree = tree_of(fixture_c)
    assert len(tree) == 3
    root = tree.root
    assert (root.wt, root.parity, root.l_prime, root.r, root.s, root.l) == (6, "even", 4, 0, 1, 4)
    i1, i2 = by_members(tree, {0, 1}, 1), by_members(tree, {0, 1}, 2)
    c1, c2 = tree[i1], tree[i2]
    assert (c1.parity, c1.l_prime, c1.s, c1.l, c1.f_val) == ("even", 0, 1, 0, 2)
    assert (c2.parity, c2.l_prime, c2.l, c2.f_val) == ("even", 2, 2, 4)
    assert i1 in root.children and i2 in c1.children
    check_tree_invariants(tree)


def test_chain_materialization():
    tree = tree_of(make(DEEP_PAIR))
    sets = member_sets(tree)
    pair_depths = sorted(v.depth for v, s in zip(tree, sets) if s == frozenset({0, 1}))
    assert pair_depths == [1, 2, 3]
    inner = [v for v, s in zip(tree, sets) if s == frozenset({0, 1}) and v.depth < 3]
    assert all(v.l_prime == 0 and len(v.children) == 1 for v in inner)


def test_ids_sorted_by_depth_then_member(fixture_a):
    tree = tree_of(fixture_a)
    sets = member_sets(tree)
    keys = [(v.depth, min(s)) for v, s in zip(tree, sets)]
    assert keys == sorted(keys)


def test_local_disc_values(fixture_a, fixture_b):
    ta = tree_of(fixture_a)
    assert local_disc(ta.root, ta) == 6
    assert all(local_disc(ta[c], ta) == 0 for c in ta.root.children)
    tb = tree_of(fixture_b)
    assert local_disc(tb.root, tb) == 6
    assert local_disc(tb[1], tb) == 0


def test_equation_discriminant_matches_big_integer_oracle(fixture_a, fixture_b, good_reduction):
    for inst, expect in ((fixture_a, 6), (fixture_b, 6), (good_reduction, 0)):
        m = build_matrix(inst)
        assert equation_discriminant(m) == expect
        assert disc_oracle(inst) == expect


def test_local_disc_sums_to_discriminant():
    for fx in (FIXTURE_C, DEEP_PAIR):
        inst = make(fx)
        m = build_matrix(inst)
        tree = build_cluster_tree(m)
        assert sum(local_disc(v, tree) for v in tree) == equation_discriminant(m)


def test_too_few_roots():
    m = matrix_from_rows([[None, 1, 0, 0], [1, None, 0, 0], [0, 0, None, 1], [0, 0, 1, None]])
    with pytest.raises(TooFewRootsError):
        build_cluster_tree(m)
    tree = build_cluster_tree(m, allow_small=True)
    assert tree.root.wt == 4
    check_tree_invariants(tree)


def test_non_ultrametric_matrix_rejected():
    m = matrix_from_rows(
        [[None, 2, 0, 0, 0, 0],
         [2, None, 2, 0, 0, 0],
         [0, 2, None, 0, 0, 0],
         [0, 0, 0, None, 0, 0],
         [0, 0, 0, 0, None, 0],
         [0, 0, 0, 0, 0, None]]
    )
    with pytest.raises(UltrametricViolationError, match=r"\(0, 1, 2\)"):
        build_cluster_tree(m)


def test_all_roots_congruent_gives_root_chain():
    inst = Instance.from_values(3, [0, 3, 6, 9, 12, 15])
    tree = tree_of(inst)
    root = tree.root
    assert root.l_prime == 0 and len(root.children) == 1
    child = tree[root.children[0]]
    sets = member_sets(tree)
    assert sets[root.children[0]] == sets[0] and child.depth == 1


def _frames_above():
    frame, count = sys._getframe(1), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def test_caterpillar_builds_without_recursion():
    # m[i][j] = min(i, j): root i separates at depth i, so 118 splits nest one inside the next
    n = 120
    m = matrix_from_rows([[None if i == j else min(i, j) for j in range(n)] for i in range(n)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames_above() + 50)
    try:
        tree = build_cluster_tree(m)
        oracle = naive_tree_oracle(m)
    finally:
        sys.setrecursionlimit(limit)
    assert len(tree) == n - 1 and max(v.depth for v in tree) == n - 2
    assert all(len(v.children) == 1 and v.sep_roots == (v.depth,) for v in tree if v.depth < n - 2)
    check_tree_invariants(tree)
    assert trees_agree(tree, oracle)


def test_vertex_budget_bounds_the_tree(monkeypatch):
    # six roots, of which 0 and 1 stay together down to depth 7: the root, then {0, 1} at depths 1..7
    m = matrix_from_rows([[None if i == j else (7 if {i, j} == {0, 1} else 0) for j in range(6)] for i in range(6)])
    monkeypatch.setattr(condisc.cluster, "TREE_VERTEX_BUDGET", 8)
    assert len(build_cluster_tree(m)) == 8
    monkeypatch.setattr(condisc.cluster, "TREE_VERTEX_BUDGET", 7)
    with pytest.raises(InstanceError, match="budget of 7 vertices"):
        build_cluster_tree(m)


def test_the_budget_names_the_first_cluster_past_it(monkeypatch):
    # {0, 1} stay together to depth 9 and {2, 3} to depth 7; the work list reaches {2, 3} first,
    # and the build goes on past it to certify the rest
    m = cluster_rows(6, [((0, 1), 9), ((2, 3), 7)])
    monkeypatch.setattr(condisc.cluster, "TREE_VERTEX_BUDGET", 7)
    with pytest.raises(InstanceError) as err:
        build_cluster_tree(matrix_from_rows(m))
    assert str(err.value) == (
        "the refinement tree would exceed its budget of 7 vertices (TREE_VERTEX_BUDGET): "
        "2 roots stay together from depth 1 to 7"
    )


def _wide_matrix_past_the_budget():  # 300 roots, of which 0 and 1 stay together to depth 2 * 10**6
    n = 300
    rows = [[None if i == j else 0 for j in range(n)] for i in range(n)]
    rows[0][1] = rows[1][0] = 2 * 10**6
    return matrix_from_rows(rows)


def test_budget_rejection_of_a_wide_ultrametric_matrix_skips_the_triple_scan(monkeypatch):
    # the certificate passes on the cut tree, O(n^2), before the budget is decided
    m = _wide_matrix_past_the_budget()
    start = time.perf_counter()
    with pytest.raises(InstanceError, match="budget of 1000000 vertices"):
        build_cluster_tree(m)
    assert time.perf_counter() - start < 0.5
    monkeypatch.setattr(condisc.cluster, "validate_ultrametric", lambda m: pytest.fail("triple scan ran"))
    with pytest.raises(InstanceError, match="budget"):
        build_cluster_tree(m)


def test_roots_mode_budget_rejection_builds_no_matrix(monkeypatch):
    import condisc.conductor
    import condisc.valuation

    for module in (condisc.valuation, condisc.cluster, condisc.conductor):
        for name in ("build_matrix", "validate_ultrametric", "equation_discriminant"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("the n x n route ran"))
    monkeypatch.setattr(condisc.cluster, "TREE_VERTEX_BUDGET", 7)
    inst = Instance.from_values(3, (0, 3**7, 1, 2, 4, 5))  # {0, 1} stay together to depth 7
    with pytest.raises(InstanceError, match="budget of 7 vertices"):
        condisc.conductor.analyze(inst)


def test_certificate_agrees_with_the_triple_scan():
    # single-entry mutations, +1 or -1 (kept nonnegative), of generated matrices
    checked = rejected = 0
    for spec in default_specs(250, base_seed=3000):
        m = build_matrix(gen_instance(spec))
        pairs = [(i, j) for i in range(m.n) for j in range(i + 1, m.n)]
        for k in range(5):
            i, j = pairs[(spec.seed * 7 + 11 * k) % len(pairs)]
            delta = 1 if k % 2 == 0 or m.entries[i][j] == 0 else -1
            mutated = mutate_entry(m, i, j, delta)
            violations = validate_ultrametric(mutated)
            checked += 1
            if not violations:
                tree = build_cluster_tree(mutated)
                assert trees_agree(tree, naive_tree_oracle(mutated))
                continue
            rejected += 1
            with pytest.raises(UltrametricViolationError) as err:
                build_cluster_tree(mutated)
            assert err.value.violations == violations
    assert checked >= 1000
    assert 0 < rejected < checked


def _violation_beside_a_long_chain():
    # {0, 1, 2} breaks the strong triangle rule at depth 1; {4, 5} stay together to depth 10**9,
    # and the work list reaches them first
    rows = [[None if i == j else 0 for j in range(6)] for i in range(6)]
    for (i, j), v in {(0, 1): 2, (1, 2): 2, (0, 2): 1, (4, 5): 10**9}.items():
        rows[i][j] = rows[j][i] = v
    return matrix_from_rows(rows)


def test_non_ultrametric_matrix_past_the_budget_gets_the_ultrametric_error():
    m = _violation_beside_a_long_chain()
    with pytest.raises(UltrametricViolationError, match=r"triples \(0, 1, 2\)$"):
        build_cluster_tree(m)


def test_certificate_mismatch_under_a_clean_scan_is_internal(monkeypatch):
    monkeypatch.setattr(condisc.cluster, "validate_ultrametric", lambda m: ())
    with pytest.raises(InternalInvariantViolation, match="differs from the split depth"):
        build_cluster_tree(matrix_from_rows(
            [[None, 2, 0, 0, 0, 0],
             [2, None, 2, 0, 0, 0],
             [0, 2, None, 0, 0, 0],
             [0, 0, 0, None, 0, 0],
             [0, 0, 0, 0, None, 0],
             [0, 0, 0, 0, 0, None]]
        ))
    # a failure the scan does not explain is raised as it is, even past the vertex budget
    with pytest.raises(InternalInvariantViolation, match="differs from the split depth"):
        build_cluster_tree(_violation_beside_a_long_chain())


def _shift_the_residue_floor(monkeypatch, by):
    """Report each positive floor of the residue route ``by`` off its true value."""
    floor = condisc.cluster._ResiduePairs.floor

    def shifted(self, members):
        f = floor(self, members)
        return f + by if f else f

    monkeypatch.setattr(condisc.cluster._ResiduePairs, "floor", shifted)


@pytest.mark.parametrize("by, message", [
    (1, r"valuation 1 differs from the split depth 2 \(at vertex \(2, 5\)\)"),  # the work list's last class
    (-1, r"the cluster does not split at its floor 0"),
], ids=["too-high", "too-low"])
def test_the_residue_certificate_rejects_a_wrong_floor(fixture_a, monkeypatch, by, message):
    # the root splits at floor 0 into {0, 3}, {1, 4} and {2, 5}, each of floor 1
    res = residues(fixture_a)
    _shift_the_residue_floor(monkeypatch, by)
    with pytest.raises(InternalInvariantViolation, match=message):
        build_cluster_tree(res)


def test_the_residue_certificate_rejects_equal_residues():
    with pytest.raises(InternalInvariantViolation, match="infinite valuation inside a cluster"):
        build_cluster_tree(Residues(3, (5,) * 6))


def _counting_grow(monkeypatch):
    calls = []
    grow = condisc.cluster._grow

    def counted(*args):
        calls.append(args)
        return grow(*args)

    monkeypatch.setattr(condisc.cluster, "_grow", counted)
    return calls


def _six_roots_with_a_cut_chain():  # {0, 1} stay together to depth 12: a chain the cut shortens
    return matrix_from_rows(cluster_rows(6, [((0, 1), 12)]))


@pytest.mark.parametrize("case", ["accepted", "over-budget", "not-ultrametric", "roots-over-budget"])
def test_the_certificate_runs_once_per_build(monkeypatch, case):
    calls = _counting_grow(monkeypatch)
    if case == "accepted":
        assert len(build_cluster_tree(_six_roots_with_a_cut_chain())) == 7
    elif case == "over-budget":
        monkeypatch.setattr(condisc.cluster, "validate_ultrametric", lambda m: pytest.fail("triple scan ran"))
        with pytest.raises(InstanceError, match="budget of 1000000 vertices"):
            build_cluster_tree(_wide_matrix_past_the_budget())
    elif case == "not-ultrametric":
        with pytest.raises(UltrametricViolationError, match=r"triples \(0, 1, 2\)$"):
            build_cluster_tree(_violation_beside_a_long_chain())
    else:
        monkeypatch.setattr(condisc.cluster, "TREE_VERTEX_BUDGET", 7)
        with pytest.raises(InstanceError, match="budget of 7 vertices"):
            condisc.conductor.analyze(Instance.from_values(3, (0, 3**7, 1, 2, 4, 5)))
    assert len(calls) == 1


@pytest.mark.parametrize("edit, message", [
    # 3 moved from v1 to v2: still a partition, but v1's weight no longer counts its roots
    ({1: (0,), 2: (1, 4, 3)}, r"wt != l_prime \+ sum of child weights \(at vertex 1\)"),
    ({1: (0,)}, r"root 3 separates at no vertex \(at vertex 0\)"),
    ({1: (0, 1)}, r"root 1 separates at two vertices or is out of range \(at vertex 2\)"),
    ({1: (0, 6)}, r"root 6 separates at two vertices or is out of range \(at vertex 1\)"),
    ({1: (0, -3)}, r"root -3 separates at two vertices or is out of range \(at vertex 1\)"),
], ids=["moved", "dropped", "duplicated", "above-range", "negative"])
def test_separating_roots_that_do_not_partition_the_roots_rejected(fixture_a, edit, message):
    tree = tree_of(fixture_a)
    assert [v.sep_roots for v in tree] == [(), (0, 3), (1, 4), (2, 5)]
    verts = list(tree.vertices)
    for vid, sep in edit.items():
        verts[vid] = verts[vid]._replace(sep_roots=sep)
    with pytest.raises(InternalInvariantViolation, match=message):
        check_tree_invariants(ClusterTree(tuple(verts), tree.num_roots))


# GenSpec(seed=5, p=3, genus=3, max_depth=2, chain_prob=0.3): vertex 0 has children 1 and 2
# (both odd, depth 1), which have one child each, 3 and 4; 5 is 3's child
@pytest.mark.parametrize("edit, message", [
    ({2: {"children": (3, 4)}}, r"child 3 is named by two vertices \(at vertex 2\)"),
    ({2: {"children": ()}}, r"vertex is not a child of any vertex \(at vertex 4\)"),
    ({0: {"children": (2,)}}, r"vertex is not a child of any vertex \(at vertex 1\)"),
    ({1: {"children": ()}, 4: {"children": (3,)}},
     r"child id 3 is out of range or not above its parent's \(at vertex 4\)"),
    ({4: {"children": (6,)}}, r"child id 6 is out of range or not above its parent's \(at vertex 4\)"),
    # named by itself: the rules after this one would reject it with another message
    ({5: {"children": (5,)}}, r"child id 5 is out of range or not above its parent's \(at vertex 5\)"),
    ({0: {"f_val": 2}}, r"root f_val != 0 \(at vertex 0\)"),
    ({5: {"f_val": 13}}, r"f_val != parent's f_val \+ wt \(at vertex 5\)"),  # parity still agrees
    # the children of the equal-parity siblings 1 and 2 swapped: depths and parities still agree
    ({1: {"children": (4,)}, 2: {"children": (3,)}}, r"wt != l_prime \+ sum of child weights \(at vertex 1\)"),
    # root 2 moved from 5 to its parent 3, which counts 5 as odd: only 5's own weight is wrong
    ({3: {"sep_roots": (2, 3, 4), "r": 1}, 5: {"wt": 1, "sep_roots": (1,)}}, r"vertex weight below 2 \(at vertex 5\)"),
    ({5: {"depth": 4}}, r"child depth != parent depth \+ 1 \(at vertex 5\)"),
], ids=["named-twice", "orphan", "orphan-1", "child-before-parent", "child-out-of-range", "self-child", "root-f_val",
        "f_val-off-by-2", "swapped-children", "weight-1", "depth-skips"])
def test_children_that_do_not_form_the_tree_rejected(edit, message):
    tree = build_cluster_tree(build_matrix(gen_instance(GenSpec(seed=5, p=3, genus=3, max_depth=2, chain_prob=0.3))))
    assert [v.children for v in tree] == [(1, 2), (3,), (4,), (5,), (), ()]
    assert [v.f_val for v in tree] == [0, 5, 3, 9, 6, 11]
    assert [v.sep_roots for v in tree] == [(), (0,), (), (3, 4), (5, 6, 7), (1, 2)]
    check_tree_invariants(tree)
    verts = list(tree.vertices)
    for vid, fields in edit.items():
        verts[vid] = verts[vid]._replace(**fields)
    with pytest.raises(InternalInvariantViolation, match=message):
        check_tree_invariants(ClusterTree(tuple(verts), tree.num_roots))


def test_children_out_of_id_order_rejected():
    # {0, 1} is a chain of 12 vertices, cut; {2, 3} and {4, 5} are leaves beside it
    m = matrix_from_rows(cluster_rows(8, [((0, 1), 12), ((2, 3), 1), ((4, 5), 1)]))
    tree = build_cluster_tree(m)
    assert tree.root.children == (1, 2, 3) and tree.repeats
    verts = list(tree.vertices)
    verts[0] = verts[0]._replace(children=(2, 1, 3))
    relabelled = ClusterTree(tuple(verts), tree.num_roots)
    assert trees_agree(relabelled, naive_tree_oracle(m))  # expand() renumbers the siblings
    with pytest.raises(InternalInvariantViolation, match=r"child 1 is listed after child 2 \(at vertex 0\)"):
        check_tree_invariants(relabelled)


# the same seed-5 tree: the root has r = 2 (children of weights 5 and 3), s = 0 and l = l_prime + r = 2;
# s and l are read from r, so r = 0 also makes s = 2 and l = 0
@pytest.mark.parametrize("fields, message", [
    ({"r": 0}, r"r != number of odd-weight children \(at vertex 0\)"),
], ids=["r"])
def test_child_counts_that_disagree_with_the_children_rejected(fields, message):
    tree = build_cluster_tree(build_matrix(gen_instance(GenSpec(seed=5, p=3, genus=3, max_depth=2, chain_prob=0.3))))
    root = tree.root
    assert (root.l_prime, root.r, root.s, root.l) == (0, 2, 0, 2)
    verts = [root._replace(**fields), *tree.vertices[1:]]
    assert (verts[0].s, verts[0].l) == (2, 0)
    with pytest.raises(InternalInvariantViolation, match=message):
        check_tree_invariants(ClusterTree(tuple(verts), tree.num_roots))


@pytest.mark.parametrize("derived", ["l_prime", "s", "l", "odd"])
def test_derived_values_cannot_be_set(fixture_a, derived):
    """They are properties of the stored fields, so no vertex holds a copy that disagrees."""
    # a vertex's id is its position in the tree, not a field
    assert ClusterVertex._fields == ("depth", "children", "wt", "r", "f_val", "sep_roots", "repeat")
    v = tree_of(fixture_a).root
    with pytest.raises(ValueError, match=derived):
        v._replace(**{derived: 1})
    with pytest.raises(AttributeError):
        setattr(v, derived, 1)


def test_odd_root_count_rejected():
    # three roots: 2 separates at the root, 0 and 1 at its child; every other rule holds, and
    # the root's l = l_prime + r = 1 is odd
    tree = ClusterTree((
        ClusterVertex(0, (1,), 3, 0, 0, (2,)),
        ClusterVertex(1, (), 2, 0, 2, (0, 1)),
    ), 3)
    assert tree.root.l == 1
    with pytest.raises(InternalInvariantViolation, match=r"root count must be even \(at vertex 0\)"):
        check_tree_invariants(tree)


def test_root_whose_weight_is_not_the_root_count_rejected(fixture_a):
    tree = tree_of(fixture_a)
    verts = list(tree.vertices)
    verts[0] = verts[0]._replace(wt=8)
    with pytest.raises(InternalInvariantViolation, match=r"root must hold all roots at depth 0 \(at vertex 0\)"):
        check_tree_invariants(ClusterTree(tuple(verts), tree.num_roots))


def test_a_tree_is_unequal_to_a_non_tree_and_its_repr_names_its_vertices():
    tree = build_cluster_tree(build_matrix(make(FIXTURE_C)))
    assert tree.__eq__(tree.vertices) is NotImplemented
    assert tree != tree.vertices and tree != object()
    text = repr(tree)
    assert text.startswith("ClusterTree(vertices=(") and text.endswith(f"num_roots={tree.num_roots})")
    assert all(repr(v) in text for v in tree)
