"""Cut chains against the per-depth pipeline.

``analyze`` runs on the refinement tree with each long chain cut to 6 or 7
vertices, two of them carrying a ``repeat``; ``per_depth_oracle`` runs the
same pipeline on the per-depth tree of the shift-and-divide oracle.  Every
report field, every ledger total and every output must agree.
"""

import random
import tracemalloc

import pytest

from condisc import (
    ClusterTree,
    InternalInvariantViolation,
    analyze,
    artin_conductor,
    build_cluster_tree,
    build_matrix,
    build_tx,
    build_ty,
    check_tree_invariants,
    genus_check,
    matrix_from_rows,
)
from condisc.harness import (
    default_specs,
    gen_instance,
    member_sets,
    naive_tree_oracle,
    per_depth_oracle,
)
from condisc.render import dot_cover, dot_model, dot_tree, render_text, text_rows, write_dot
from conftest import chain_cases, cluster_rows, first_copy_mismatches, nu_mismatches

LEDGER_FIELDS = ("d", "D", "E", "D_prime", "D_double_prime", "L_count", "equality")
REPORT_FIELDS = (
    "label", "p", "num_roots", "genus", "nu_df", "artin", "artin_local_sum", "n_components", "f_tilde",
    "inequality_holds", "equality_holds", "x_minimal", "component_bound_ok", "warnings", "contractible",
)


def _totals(report):
    """Each ledger field summed over the per-depth tree, and T_X's repeat-weighted totals."""
    verts, x = report.tree.vertices, report.xgraph
    totals = {f: sum(getattr(led, f) * v.repeat for v, led in zip(verts, report.ledgers)) for f in LEDGER_FIELDS}
    totals.update(
        edge_weight=x.total_edge_weight(), artin=artin_conductor(x), adjunction=genus_check(x, report.self_int)
    )
    return totals


def _outputs(report):
    """Every output but the DOT files, with T_B's DOT from the report's tree."""
    return report.to_json(), report.to_json_line(), render_text(report), dot_tree(report.tree)


def _written_dots(report, directory):
    """The three DOT files as ``--dot-dir`` writes them."""
    write_dot(report, directory)
    return tuple((directory / f"{name}.dot").read_text(encoding="utf-8") for name in ("t_b", "t_y", "t_x"))


def _oracle_dots(oracle):
    """The three DOT graphs of the per-depth oracle's own T_B, T_Y and T_X."""
    return dot_tree(oracle.tree), dot_cover(oracle.ygraph), dot_model(oracle.xgraph)


def test_chain_cases_agree_with_the_per_depth_pipeline(tmp_path):
    covered = 0
    for length in range(1, 51):
        for name, rows in chain_cases(length):
            m = matrix_from_rows(rows)
            ours, oracle = analyze(m, label=name), per_depth_oracle(m, label=name)
            assert all(v.repeat == 1 for v in oracle.tree)
            # every chain of 8 or more vertices is cut; the nested case has one of 9, and
            # the siblings case one of length + 9
            assert (len(ours.tree) < len(oracle.tree)) == (length >= 8 or name in ("nested", "siblings"))
            covered += 1
            for field in REPORT_FIELDS:
                assert getattr(ours, field) == getattr(oracle, field), (name, length, field)
            assert _totals(ours) == _totals(oracle), (name, length)
            assert ours.tree.expand() == oracle.tree
            assert _outputs(ours) == _outputs(oracle)
            assert _written_dots(ours, tmp_path) == _oracle_dots(oracle)
    assert covered == 50 * 14


def _chain_case_trees():
    """(case, matrix, tree) for every chain case of lengths 1 to 59."""
    for length in range(1, 60):
        for name, rows in chain_cases(length):
            m = matrix_from_rows(rows)
            yield (name, length), m, build_cluster_tree(m)


def test_each_cut_tree_vertex_is_its_first_per_depth_copy():
    """Depth, f_val and the rest of a vertex are those of its first copy."""
    below_a_cut = 0
    for case, m, tree in _chain_case_trees():
        assert first_copy_mismatches(tree, naive_tree_oracle(m)) == [], case
        below_a_cut += any(tree[c].repeat < v.repeat for v in tree for c in v.children)
    assert below_a_cut == 52 * 14 + 7 * 2  # every case from length 8, and the nested and siblings ones below it


def test_f_val_is_nu_of_the_disc():
    """A vertex's f_val is nu of its disc D(b, depth), read from the matrix: on
    generated instances, whose chains are too short to cut, and on cut chains."""
    for spec in default_specs(300):
        m = build_matrix(gen_instance(spec))
        assert nu_mismatches(build_cluster_tree(m), m.entries) == [], spec
    for case, m, tree in _chain_case_trees():
        assert nu_mismatches(tree, m.entries) == [], case


def _random_laminar_rows(rng):
    """Valuation rows of a random laminar family: each cluster splits into 2 to 4
    runs of roots, and each run of two or more sits 1 to 24 steps deeper, so
    chains of different lengths run side by side, beside bushy subtrees, and
    nest."""
    n = rng.choice((6, 8, 10, 12))
    top = rng.choice((0, 0, 1, 9, 12))  # > 0: every root in one residue disc, a chain at the root
    clusters = [(range(n), top)] if top else []
    todo = [(list(range(n)), top)]
    while todo:
        members, floor = todo.pop()
        cuts = sorted(rng.sample(range(1, len(members)), min(rng.randint(1, 3), len(members) - 1)))
        for a, b in zip([0, *cuts], [*cuts, len(members)]):
            if b - a >= 2:
                run = (members[a:b], floor + rng.choice((1, 2, 3, rng.randint(8, 24), rng.randint(8, 24))))
                clusters.append(run)
                todo.append(run)
    return cluster_rows(n, clusters)


def test_random_laminar_families_agree_with_the_per_depth_pipeline(tmp_path):
    rng = random.Random(20261019)
    side_by_side = 0
    for k in range(500):
        m = matrix_from_rows(_random_laminar_rows(rng))
        ours, oracle = analyze(m, label=f"laminar-{k}"), per_depth_oracle(m, label=f"laminar-{k}")
        assert ours.tree.expand() == oracle.tree
        assert _outputs(ours) == _outputs(oracle)
        assert _written_dots(ours, tmp_path) == _oracle_dots(oracle)
        side_by_side += any(len(band.vids) > 2 and band.stop - band.start > 1 for band in ours.tree.expansion.bands)
    assert side_by_side >= 150  # 187: two cut chains share a band of several depths


@pytest.mark.parametrize("compact", [False, True], ids=["indented", "compact"])
def test_json_rows_of_a_deep_chain_take_constant_memory(compact):
    report = analyze(matrix_from_rows(cluster_rows(6, [((0, 1), 10**5)])))
    tracemalloc.start()
    try:
        rows = sum(1 for _ in report.json_rows(compact))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 10**5 + 3  # the header, a row per per-depth vertex, the close
    assert peak < 2**20


def test_per_depth_runs_of_a_deep_chain_take_constant_memory():
    tree = build_cluster_tree(matrix_from_rows(cluster_rows(6, [((0, 1), 10**5)])))
    tree.expansion  # O(cut tree), built once
    tracemalloc.start()
    try:
        ids = sum(1 for run in tree.per_depth_runs() for r in run[0] for _ in r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ids == 10**5 + 1
    assert peak < 64 * 2**10


def test_deep_text_rows_come_in_pieces_below_the_mmap_threshold():
    """At depth 70000 a row is indented by up to 140002 spaces.  Written whole, each
    such row would pass glibc's 128 KiB mmap threshold, and malloc would map and
    unmap it on every row; a long indent comes first as copies of one 32 KiB pad,
    then as one shared string of a multiple of 256 spaces."""
    depth = 70000
    pieces = text_rows(analyze(matrix_from_rows(cluster_rows(6, [((0, 1), depth)]))))
    while not next(pieces).startswith("\ntree"):
        pass
    indent = fid = 0  # the chain is a path: the per-depth id of each row is its depth
    for piece in pieces:
        assert len(piece) < 2**17
        if piece.endswith("\n"):
            spaces = piece.index("v")
            assert indent + spaces == 2 * fid + 2 and piece.startswith(f"v{fid} ", spaces)
            indent, fid = 0, fid + 1
        else:
            indent += len(piece)
    assert fid == depth + 1


def _naive_row(v):
    """A tree row of the text report built the plain way from a vertex of the JSON document."""
    tag = "=" if v["equality"] else f"<  (defect {v['d'] - v['D_double_prime']})"
    return (
        f"{' ' * (2 * v['depth'] + 2)}v{v['id']}  wt={v['wt']}  {v['parity']:4}  "
        f"d={v['d']}  D''={v['D_double_prime']}  {tag}\n"
    )


# the pair chain's deepest indents, 2 * depth + 2, run from 254 to 262 (depths 126 to 130), and
# chain_cases(128) puts rows of several chains, some beside a bushy subtree, past 256 and 512
@pytest.mark.parametrize("rows", [
    *(cluster_rows(6, [((0, 1), depth)]) for depth in range(126, 131)),
    *(rows for _, rows in chain_cases(128)),
], ids=[*(f"pair-{depth}" for depth in range(126, 131)), *(name for name, _ in chain_cases(128))])
def test_text_rows_match_rows_indented_the_plain_way(rows):
    m = matrix_from_rows(rows)
    report = analyze(m)
    assert any(v.repeat > 1 for v in report.tree)
    vertices = {v["id"]: v for v in report.to_json_dict()["vertices"]}
    oracle = naive_tree_oracle(m)  # the per-depth tree, walked in preorder
    expected, stack = [], [0]
    while stack:
        vid = stack.pop()
        expected.append(_naive_row(vertices[vid]))
        stack.extend(reversed(oracle[vid].children))
    assert len(expected) == len(vertices)
    assert render_text(report).partition("tree (wt, parity, d, D'', =?):\n")[2] == "".join(expected)


def test_text_rows_past_one_pad_block_rebuild_to_their_plain_form():
    """At depth 16390 the deepest rows are indented past 2**15 spaces, one whole
    block of the shared pad; every row, read as a stream of pieces, is its plain form."""
    depth = 16390
    report = analyze(matrix_from_rows(cluster_rows(6, [((0, 1), depth)])))
    vertices = report.to_json_dict()["vertices"]  # a path: its rows come in id order
    pieces = text_rows(report)
    while not next(pieces).startswith("\ntree"):
        pass
    row, fid = [], 0
    for piece in pieces:
        assert len(piece) < 2**17
        row.append(piece)
        if piece.endswith("\n"):
            assert "".join(row) == _naive_row(vertices[fid])
            row, fid = [], fid + 1
    assert not row and fid == depth + 1 and 2 * depth + 2 > 2**15


def test_render_text_holds_its_output_once():
    report = analyze(matrix_from_rows(cluster_rows(6, [((0, 1), 5000)])))
    tracemalloc.start()
    try:
        text = render_text(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 25 * 10**6
    assert peak <= 1.25 * len(text)


@pytest.mark.parametrize("length", [8, 9, 10, 11, 50])
def test_cut_chain_keeps_six_or_seven_vertices(length):
    tree = build_cluster_tree(matrix_from_rows(cluster_rows(6, [((0, 1), length)])))
    sets = member_sets(tree)
    chain = [v for v, s in zip(tree, sets) if s == frozenset((0, 1))]
    kept = 6 if length % 2 == 0 else 7
    assert len(chain) == kept and len(tree) == 1 + kept
    assert [v.repeat for v in chain] == [1, 1, 1 + (length - kept) // 2, 1 + (length - kept) // 2] + [1] * (kept - 4)
    assert sum(v.repeat for v in tree) == 1 + length


def _twins():
    for spec in default_specs(200):
        inst = gen_instance(spec)
        yield build_matrix(inst)
    for length in (8, 9, 23, 50):
        for _, rows in chain_cases(length):
            yield matrix_from_rows(rows)


def test_expansion_is_the_per_depth_tree():
    for m in _twins():
        tree = build_cluster_tree(m)
        check_tree_invariants(tree)
        assert tree.expand() == naive_tree_oracle(m)  # what trees_agree compares


def test_components_and_edges_carry_the_repeat_of_their_owner():
    """A component is owned by the tree vertex its cover vertex sits over, an
    edge by the tree vertex under its upper end."""
    cut = 0
    for m in _twins():
        tree = build_cluster_tree(m)
        y = build_ty(tree)
        x = build_tx(y)
        owner = [tree[v.origin[0]] for v in y.vertices]
        for cid, c in enumerate(x.components):
            assert x.repeats.get(cid, 1) == owner[c.over].repeat
        for a, b in x.edges:
            up = a if y.parent.get(x.components[b].over) == x.components[a].over else b
            assert x.edge_repeats.get((a, b), 1) == owner[x.components[up].over].repeat
        assert 1 not in x.repeats.values() and 1 not in x.edge_repeats.values()
        cut += bool(x.repeats)
    assert cut >= 4 * 14  # every chain instance of length 8, 9, 23 and 50


def test_deep_matrix_chain_is_analyzed_on_a_tree_of_constant_size():
    n, depth = 6, 10**5
    m = matrix_from_rows(cluster_rows(n, [((0, 1), depth)]))
    report = analyze(m)
    assert len(report.tree) <= 2 * n + 7
    assert sum(v.repeat for v in report.tree) == depth + 1
    # a chain of depth d (d <= 50 checked against the per-depth pipeline above) has 2d components
    assert report.n_components == report.nu_df == report.artin == 2 * depth


def test_repeat_outside_the_middle_of_a_chain_rejected():
    tree = build_cluster_tree(matrix_from_rows(cluster_rows(6, [((0, 1), 12)])))
    sets = member_sets(tree)
    chain = [vid for vid, s in enumerate(sets) if s == frozenset((0, 1))]
    first = next(vid for vid in chain if tree[vid].repeat > 1)
    for moved in (first - 1, first + 1, chain[-1], 0):  # one step up, the second alone, the split, the root
        verts = [v._replace(repeat=1) for v in tree]
        verts[moved] = verts[moved]._replace(repeat=4)
        with pytest.raises(InternalInvariantViolation, match="repeated vertex outside the middle of a chain"):
            check_tree_invariants(ClusterTree(tuple(verts), tree.num_roots))
    verts = list(tree.vertices)
    verts[first] = verts[first]._replace(repeat=0)
    with pytest.raises(InternalInvariantViolation, match="repeated vertex outside the middle of a chain"):
        check_tree_invariants(ClusterTree(tuple(verts), tree.num_roots))
    # both vertices of the pair at repeat 0: the lower one's parent has its repeat, and the upper one is named
    verts[first + 1] = verts[first + 1]._replace(repeat=0)
    assert tree[first].children == (first + 1,)
    with pytest.raises(InternalInvariantViolation, match=rf"outside the middle of a chain \(at vertex {first}\)"):
        check_tree_invariants(ClusterTree(tuple(verts), tree.num_roots))
    # the pair one step up: the repeats along its path read 1, 1, 4, 4, 1, 1, but the path
    # starts at the root, whose weight is not the chain's
    verts = [v._replace(repeat=1) for v in tree]
    for vid in (first - 1, first):
        verts[vid] = verts[vid]._replace(repeat=4)
    assert any(first - 1 in tree[c].children for c in tree.root.children)  # two steps below the root
    with pytest.raises(InternalInvariantViolation, match="repeated vertex outside the middle of a chain"):
        check_tree_invariants(ClusterTree(tuple(verts), tree.num_roots))

