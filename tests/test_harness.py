import pytest

import condisc.cluster
import condisc.harness
from condisc import (
    ClusterTree,
    Instance,
    InternalInvariantViolation,
    UltrametricViolationError,
    analyze,
    build_cluster_tree,
    build_matrix,
    check_tree_invariants,
    matrix_from_rows,
    val,
    validate_ultrametric,
)
from condisc.cli import main
from condisc.harness import (
    GenSpec,
    default_specs,
    disc_oracle,
    gen_instance,
    member_sets,
    mutate_entry,
    naive_tree_oracle,
    per_depth_oracle,
    run_trial,
    trees_agree,
)

from conftest import FIXTURE_A, FIXTURE_B, FIXTURE_C, GOOD_RED, cluster_rows, make


def test_generator_collisions_are_an_invariant_violation(monkeypatch):
    # _realize gives distinct values by construction; a repeated one must not pass as an instance
    monkeypatch.setattr(condisc.harness, "_realize", lambda *args: [0, 0, 1, 2, 4, 5])
    with pytest.raises(InternalInvariantViolation, match="generator produced colliding roots"):
        gen_instance(GenSpec(seed=1, p=3, genus=2))


def test_generation_is_deterministic():
    a = gen_instance(GenSpec(seed=1, p=3, genus=2))
    b = gen_instance(GenSpec(seed=1, p=3, genus=2))
    assert a.roots == b.roots
    c = gen_instance(GenSpec(seed=2, p=3, genus=2))
    assert a.roots != c.roots


def test_generation_counts_and_distinctness():
    for g in range(2, 7):
        inst = gen_instance(GenSpec(seed=g, p=5, genus=g))
        assert inst.num_roots == 2 * g + 2
        assert len(set(inst.roots)) == inst.num_roots


def test_max_depth_zero_forces_good_reduction():
    # with p >= 2g + 2 every root can land in its own residue class
    inst = gen_instance(GenSpec(seed=3, p=13, genus=2, max_depth=0))
    m = build_matrix(inst)
    assert all(m.entries[i][j] == 0 for i in range(m.n) for j in range(i + 1, m.n))


def test_disc_oracle_fixtures(fixture_a, fixture_b, good_reduction):
    assert disc_oracle(fixture_a) == 6
    assert disc_oracle(fixture_b) == 6
    assert disc_oracle(good_reduction) == 0


@pytest.mark.parametrize("roots, expected", [
    (("1/3", "0", "1", "2", "4", "5"), -6),
    (("1/9", "2/3", "0", "1", "2", "5"), -26),
    (("1/3", "2/3", "4/3", "5/9", "7", "8"), -36),
])
def test_disc_oracle_divides_p_out_of_the_denominator(roots, expected):
    # roots with p in their denominators, which analyze turns down: the oracle's product
    # then has p in its denominator, and only its second loop counts it
    inst = Instance.from_values(3, roots)
    pairwise = 2 * sum(val(a - b, 3) for i, a in enumerate(inst.roots) for b in inst.roots[i + 1:])
    assert disc_oracle(inst) == pairwise == expected


def test_naive_oracle_matches_fixtures():
    for fx in (FIXTURE_A, FIXTURE_B, FIXTURE_C, GOOD_RED):
        m = build_matrix(make(fx))
        assert trees_agree(build_cluster_tree(m), naive_tree_oracle(m))


def _edited(tree, edit):
    verts = list(tree.vertices)
    edit(verts)
    return ClusterTree(tuple(verts), tree.num_roots)


def test_trees_agree_rejects_an_f_val_that_is_off(fixture_c):
    m = build_matrix(fixture_c)
    tree = build_cluster_tree(m)
    assert trees_agree(tree, naive_tree_oracle(m)) and not tree.repeats  # nothing cut: expand() is the tree itself

    def edit(verts):
        verts[2] = verts[2]._replace(f_val=verts[2].f_val + 2)  # the parity stays

    assert not trees_agree(_edited(tree, edit), naive_tree_oracle(m))


def _cut_chain():
    """A chain of 12 vertices, cut to 6: the matrix, its tree and the ids of the repeated pair."""
    m = matrix_from_rows(cluster_rows(6, [((0, 1), 12)]))
    tree = build_cluster_tree(m)
    pair = sorted(tree.repeats)
    assert len(pair) == 2 and trees_agree(tree, naive_tree_oracle(m))
    assert [(v.depth, v.repeat) for v in tree] == [(0, 1), (1, 1), (2, 1), (3, 4), (4, 4), (11, 1), (12, 1)]
    return m, tree, pair


@pytest.mark.parametrize("delta", [-1, 1])
def test_tree_invariants_reject_a_cut_pair_whose_repeat_alone_is_off_by_one(delta):
    """The child of the pair's second vertex sits below every copy of the pair,
    so its depth no longer fits a repeat changed alone."""
    _, tree, pair = _cut_chain()

    def edit(verts):
        for vid in pair:
            verts[vid] = verts[vid]._replace(repeat=verts[vid].repeat + delta)

    gap = 2 * (4 + delta) - 1
    with pytest.raises(InternalInvariantViolation, match=rf"child depth != parent depth \+ {gap} \(at vertex 5\)"):
        check_tree_invariants(_edited(tree, edit))


@pytest.mark.parametrize("delta", [-1, 1])
def test_trees_agree_rejects_a_cut_pair_whose_repeat_is_off_by_one(delta):
    """The repeat changed, and every vertex below the pair moved with it, so
    the tree is consistent: only the oracle tells it from the matrix's."""
    m, tree, pair = _cut_chain()
    below = range(pair[1] + 1, len(tree))  # the pair's descendants, a path
    assert tree[pair[1]].children == (below[0],) and tree[below[0]].children == (below[1],)

    def edit(verts):
        for vid in pair:
            verts[vid] = verts[vid]._replace(repeat=verts[vid].repeat + delta)
        for vid in below:
            v = verts[vid]
            verts[vid] = v._replace(depth=v.depth + 2 * delta, f_val=v.f_val + 2 * delta * v.wt)

    edited = _edited(tree, edit)
    check_tree_invariants(edited)
    assert not trees_agree(edited, naive_tree_oracle(m))


def test_trees_agree_rejects_siblings_whose_ids_are_swapped(fixture_a):
    m = build_matrix(fixture_a)
    tree = build_cluster_tree(m)
    assert tree.root.children == (1, 2, 3) and all(tree[c].is_leaf for c in (1, 2, 3))

    def edit(verts):  # the same tree, its leaves {0, 3} and {1, 4} at each other's positions (ids)
        verts[1], verts[2] = verts[2], verts[1]

    # keyed by depth and member set, the two trees are the same
    assert not trees_agree(_edited(tree, edit), naive_tree_oracle(m))


def test_per_depth_oracle_does_not_grow_the_tree(monkeypatch):
    m = matrix_from_rows(cluster_rows(6, [((0, 1), 12)]))
    ours = analyze(m)

    def grow(*args):
        raise AssertionError("the per-depth oracle grew its tree with _grow")

    monkeypatch.setattr(condisc.cluster, "_grow", grow)
    oracle = per_depth_oracle(m)
    assert len(oracle.tree) == 13 and oracle.tree == ours.tree.expand() == naive_tree_oracle(m)
    assert (oracle.nu_df, oracle.artin) == (ours.nu_df, ours.artin)
    with pytest.raises(AssertionError, match="grew its tree"):
        analyze(m)


def test_naive_oracle_sees_fixture_c_chain(fixture_c):
    oracle = naive_tree_oracle(build_matrix(fixture_c))
    sets = member_sets(oracle)
    chain = [v.depth for v, s in zip(oracle, sets) if s == frozenset({0, 1})]
    assert chain == [1, 2]


def test_naive_oracle_trivial_instance(good_reduction):
    oracle = naive_tree_oracle(build_matrix(good_reduction))
    assert len(oracle) == 1 and oracle.num_roots == 6
    root = oracle.root
    assert (root.wt, root.l_prime, root.depth, root.f_val, root.sep_roots) == (6, 6, 0, 0, tuple(range(6)))


def test_oracles_agree_on_generated_instances():
    for spec in default_specs(60, base_seed=400):
        inst = gen_instance(spec)
        m = build_matrix(inst)
        assert trees_agree(build_cluster_tree(m), naive_tree_oracle(m))


def test_mutation_probe_of_validator():
    flagged = 0
    for spec in default_specs(20, base_seed=900):
        m = build_matrix(gen_instance(spec))
        for i in range(m.n):
            for j in range(i + 1, m.n):
                mutated = mutate_entry(m, i, j)
                violations = validate_ultrametric(mutated)
                if not violations:
                    continue
                flagged += 1
                # the reported triple must genuinely break the min-twice rule
                for (a, b, c) in violations:
                    vals = (mutated.entries[a][b], mutated.entries[b][c], mutated.entries[a][c])
                    lo = min(vals)
                    assert sum(1 for v in vals if v == lo) == 1
                    assert mutated.entries[a][c] < min(mutated.entries[a][b], mutated.entries[b][c])
                with pytest.raises(UltrametricViolationError):
                    build_cluster_tree(mutated)
    assert flagged > 0


def test_run_trial_executes_all_cross_checks():
    report = run_trial(GenSpec(seed=11, p=5, genus=3, max_depth=3))
    assert report.inequality_holds


@pytest.mark.parametrize("oracle, message", [
    ("disc_oracle", "discriminant oracle disagrees"),
    ("naive_tree_oracle", "tree oracle disagrees"),
])
def test_an_oracle_that_disagrees_fails_the_trial_and_the_fuzz_run(monkeypatch, capsys, oracle, message):
    spec = default_specs(1)[0]
    other = naive_tree_oracle(build_matrix(make(FIXTURE_B)))
    assert other != naive_tree_oracle(build_matrix(gen_instance(spec)))
    wrong = {"disc_oracle": lambda inst: analyze(inst).nu_df + 1, "naive_tree_oracle": lambda m: other}[oracle]
    monkeypatch.setattr(condisc.harness, oracle, wrong)
    with pytest.raises(InternalInvariantViolation) as exc:
        run_trial(spec)
    assert str(exc.value) == f"{message} ({spec})"
    assert main(["fuzz", "--trials", "1"]) == 2
    assert capsys.readouterr() == ("", f"internal invariant violation: {message} ({spec})\n")


def test_every_exported_name_resolves_on_the_package():
    import condisc

    assert len(set(condisc.__all__)) == len(condisc.__all__)
    assert [name for name in condisc.__all__ if not hasattr(condisc, name)] == []
