"""Every refinement-tree shape of 6 roots, with gaps 0, 1 and 7, in both modes.

A gap of 7 makes a chain of 8 vertices, which the tree cuts.  Each shape is
realized as a valuation matrix and as integer roots at p = 7
(``conftest.realize_shape``).  Matrix mode is checked against the
shift-and-divide tree and the pipeline run on it, roots mode against the
big-integer discriminant and its matrix twin; in both, each vertex of the cut
tree must be its first per-depth copy, with f_val the nu of its disc.  The
counts at the end pin how the corpus is classified, so a change in
classification shows.
"""

from collections import Counter

from condisc import Instance, analyze, matrix_from_rows
from condisc.harness import disc_oracle, per_depth_oracle, trees_agree

from conftest import first_copy_mismatches, nu_mismatches, realize_shape, tree_shapes


def test_every_six_root_shape_in_both_modes():
    shapes = tree_shapes(6, (0, 1, 7))
    assert len(shapes) == 2346
    reasons, trees = Counter(), set()
    root_case = contractible = cut = equality = 0
    for k, shape in enumerate(shapes):
        rows, roots = realize_shape(shape, 6, 7)
        label = f"shape-{k}"
        m = matrix_from_rows(rows)
        ours, oracle = analyze(m, label=label), per_depth_oracle(m, label=label)
        assert trees_agree(ours.tree, oracle.tree), shape
        out = ours.to_json()
        assert oracle.to_json() == out, shape
        inst = Instance.from_values(7, roots, label=label)
        by_roots = analyze(inst)
        assert disc_oracle(inst) == by_roots.nu_df, shape
        assert by_roots.to_json() == out, shape
        for tree in (ours.tree, by_roots.tree):  # each vertex is its first per-depth copy, f_val its nu
            assert first_copy_mismatches(tree, oracle.tree) == [] and nu_mismatches(tree, rows) == [], shape

        trees.add(oracle.tree.vertices)
        reasons.update(led.reason for led in oracle.ledgers)  # one per vertex of the per-depth tree
        root = ours.tree.root
        root_case += root.l_prime == 0 and len(root.children) == 1  # every root in one residue disc
        contractible += not ours.x_minimal
        cut += bool(ours.tree.repeats)
        equality += ours.equality_holds
    assert len(trees) == len(shapes)  # no two shapes realize the same tree
    assert reasons == {
        "EVEN_ALL_EVEN_CHILDREN_WT2": 17520, "ODD_WT2": 2937, "ODD_WT3_NO_EVEN_CHILDREN": 684, "STRICT": 16402,
    }
    assert (root_case, contractible, cut, equality) == (1564, 1416, 1912, 46)
