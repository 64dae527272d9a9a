from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from condisc import (
    Instance,
    analyze,
    build_cluster_tree,
    build_matrix,
    check_tree_invariants,
    equation_discriminant,
    matrix_from_rows,
    val,
    validate_ultrametric,
)
from condisc.harness import GEN_PRIMES, GenSpec, disc_oracle, gen_instance, mutate_entry
from condisc.valuation import residues

from conftest import chain_cases

primes = st.sampled_from(GEN_PRIMES)
nonzero_rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**4
).filter(lambda q: q != 0)


@given(nonzero_rationals, nonzero_rationals, primes)
def test_val_is_multiplicative(a, b, p):
    assert val(a * b, p) == val(a, p) + val(b, p)


@given(nonzero_rationals, nonzero_rationals, primes)
def test_val_strong_triangle(a, b, p):
    lhs = val(a + b, p)
    lo = min(val(a, p), val(b, p))
    assert lhs >= lo
    if val(a, p) != val(b, p):
        assert lhs == lo


gen_specs = st.builds(
    GenSpec,
    seed=st.integers(min_value=0, max_value=10**6),
    p=primes,
    genus=st.integers(min_value=2, max_value=6),
    max_depth=st.integers(min_value=0, max_value=4),
    chain_prob=st.sampled_from((0.0, 0.15, 0.3)),
)


@given(gen_specs)
@settings(max_examples=60, deadline=None)
def test_generated_matrices_are_ultrametric(spec):
    m = build_matrix(gen_instance(spec))
    assert validate_ultrametric(m) == ()


@given(gen_specs)
@settings(max_examples=40, deadline=None)
def test_pipeline_identities_on_random_instances(spec):
    inst = gen_instance(spec)
    report = analyze(inst)  # every internal identity is asserted inside
    assert report.nu_df == disc_oracle(inst)
    assert report.artin <= report.nu_df
    assert report.equality_holds == all(l.equality for l in report.ledgers)
    assert report.f_tilde >= 0


@given(gen_specs, st.integers(min_value=1, max_value=97), st.integers(min_value=-500, max_value=500))
@settings(max_examples=40, deadline=None)
def test_unit_scale_and_shift_invariance(spec, unit, shift):
    inst = gen_instance(spec)
    while unit % inst.p == 0:
        unit += 1
    moved = Instance.from_values(inst.p, [unit * r + shift for r in inst.roots])
    assert build_matrix(moved).entries == build_matrix(inst).entries


@given(gen_specs)
@settings(max_examples=30, deadline=None)
def test_scaling_by_p_shifts_every_entry(spec):
    inst = gen_instance(spec)
    m = build_matrix(inst)
    scaled = build_matrix(Instance.from_values(inst.p, [inst.p * r for r in inst.roots]))
    n = m.n
    for i in range(n):
        for j in range(n):
            if i != j:
                assert scaled.entries[i][j] == m.entries[i][j] + 1
    assert equation_discriminant(scaled) == equation_discriminant(m) + n * (n - 1)


@given(gen_specs, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_mutated_matrices_either_pass_or_get_flagged(spec, pick):
    m = build_matrix(gen_instance(spec))
    pairs = [(i, j) for i in range(m.n) for j in range(i + 1, m.n)]
    i, j = pairs[pick % len(pairs)]
    mutated = mutate_entry(m, i, j)
    violations = validate_ultrametric(mutated)
    if not violations:
        analyze(mutated)  # still a legal instance; pipeline must accept it
    else:
        a, b, c = violations[0]
        assert mutated.entries[a][c] < min(mutated.entries[a][b], mutated.entries[b][c])


def assert_tree_theorems(tree):
    """The facts check_tree_invariants once tested rule by rule, on every vertex:
    with l_prime, s, l and odd read from the stored fields, its remaining rules
    imply them."""
    check_tree_invariants(tree)
    verts = tree.vertices
    up = {c: vid for vid, v in enumerate(verts) for c in v.children}
    assert tree.root.l % 2 == 0
    for vid, v in enumerate(verts):
        assert v.wt >= v.l_prime + 3 * v.r + 2 * v.s
        if v.r == v.s == 0:
            assert v.wt == v.l_prime
        parent_odd = vid in up and verts[up[vid]].odd
        assert parent_odd == v.parent_odd
        # parity table: an odd child of an even parent has odd weight, of an odd parent even
        # weight; the root, of even weight, reads as the even child of an even parent
        assert v.odd == (parent_odd != (v.wt % 2 == 1))
        if not v.odd:  # an even vertex has odd l exactly when its parent exists and is odd
            assert (v.l % 2 == 1) == parent_odd


@given(gen_specs)
@settings(max_examples=40, deadline=None)
def test_dropped_tree_rules_hold_as_theorems(spec):
    inst = gen_instance(spec)
    assert_tree_theorems(build_cluster_tree(residues(inst)))
    assert_tree_theorems(build_cluster_tree(build_matrix(inst)))


def test_dropped_tree_rules_hold_on_cut_and_expanded_chains():
    for length in range(1, 13):
        for _, rows in chain_cases(length):
            tree = build_cluster_tree(matrix_from_rows(rows))
            assert_tree_theorems(tree)
            assert_tree_theorems(tree.expand())
