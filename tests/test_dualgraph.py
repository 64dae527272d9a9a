import re

import pytest

from condisc import (
    InternalInvariantViolation,
    analyze,
    artin_conductor,
    build_cluster_tree,
    build_matrix,
    build_tx,
    build_ty,
    compare_vertex,
    detect_nonminimal,
    genus_check,
    self_intersections,
)
from condisc.conductor import _check_conductor_decomposition
from condisc.dualgraph import (
    INSERT,
    LEAF,
    ST,
    XComponent,
    XGraph,
    YVertex,
    _check_connected,
    check_x_invariants,
    check_y_invariants,
)
from condisc.harness import default_specs, gen_instance

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


def graphs_of(inst):
    tree = build_cluster_tree(build_matrix(inst))
    y = build_ty(tree)
    return tree, y, build_tx(y)


def over(x, vid):
    """Ids of the components over cover vertex ``vid``, in id order."""
    return [cid for cid, c in enumerate(x.components) if c.over == vid]


def test_records_are_positional():
    # a cover vertex's or a component's id is its position, and T_X keeps one map to T_Y
    assert YVertex._fields == ("kind", "origin", "odd", "attached_roots")
    assert XComponent._fields == ("over", "m", "chi")
    assert "over" not in XGraph._fields
    _, _, x = graphs_of(make(ODD_CHAIN))
    si = self_intersections(x)
    assert type(si) is list and len(si) == len(x.components)


def test_fixture_a_cover_and_model(fixture_a):
    tree, y, x = graphs_of(fixture_a)
    # no odd vertices: the cover graph adds nothing
    assert len(y.vertices) == len(tree)
    assert all(v.kind == ST for v in y.vertices)
    assert y.vertices[0].attached_roots == ()
    for c in tree.root.children:
        assert len(y.vertices[c].attached_roots) == 2
    # root splits into two sheets, children stay irreducible
    sheets = over(x, 0)
    assert sheets == [0, 1]
    others = [cid for cid in range(len(x.components)) if cid not in sheets]
    assert len(others) == 3 and all((c.m, c.chi) == (1, 2) for c in x.components)
    assert x.n_components == 5
    assert sorted(x.edges.values()) == [1] * 6
    assert artin_conductor(x) == 6
    si = self_intersections(x)
    assert sorted(si[c] for c in sheets) == [-3, -3]
    assert sorted(si[c] for c in others) == [-2, -2, -2]
    assert genus_check(x, si) == 2


def test_fixture_b_cover_and_model(fixture_b):
    tree, y, x = graphs_of(fixture_b)
    leaves = [vid for vid, v in enumerate(y.vertices) if v.kind == LEAF]
    assert len(leaves) == 3
    assert all(y.parent[vid] == 1 for vid in leaves)  # all under the odd vertex
    assert len(y.vertices[0].attached_roots) == 3
    assert all(len(y.vertices[vid].attached_roots) == 1 for vid in leaves)

    root_comp = over(x, 0)
    odd_comp = over(x, 1)
    assert len(root_comp) == 1 and len(odd_comp) == 1
    assert (x.components[root_comp[0]].m, x.components[root_comp[0]].chi) == (1, 0)   # beta = 4
    assert (x.components[odd_comp[0]].m, x.components[odd_comp[0]].chi) == (2, 2)
    assert x.n_components == 5
    # star through the multiplicity-2 component
    hub = odd_comp[0]
    assert all(hub in (a, b) for (a, b) in x.edges)
    assert sorted(x.edges.values()) == [1] * 4
    assert artin_conductor(x) == 6
    si = self_intersections(x)
    assert set(si) == {-2}
    assert genus_check(x, si) == 2


def test_fixture_c_four_cycle(fixture_c):
    tree, y, x = graphs_of(fixture_c)
    assert x.n_components == 4
    root_comp = over(x, 0)[0]
    assert x.components[root_comp].chi == 0
    split = [vid for vid in range(len(y.vertices)) if len(over(x, vid)) == 2]
    assert len(split) == 1
    s0, s1 = over(x, split[0])
    # the two sheets join the root component and the deeper component: a 4-cycle
    degrees = {cid: sum(1 for e in x.edges if cid in e) for cid in range(len(x.components))}
    assert set(degrees.values()) == {2}
    assert x.edges[min(root_comp, s0), max(root_comp, s0)] == x.edges[min(root_comp, s1), max(root_comp, s1)] == 1
    assert artin_conductor(x) == 4


def test_good_reduction_single_component(good_reduction):
    tree, y, x = graphs_of(good_reduction)
    assert x.n_components == 1
    comp = x.components[0]
    assert (comp.m, comp.chi) == (1, -2)
    assert x.edges == {}
    assert artin_conductor(x) == 0
    si = self_intersections(x)
    assert si == [0]
    assert genus_check(x, si) == 2


def test_odd_odd_edge_gets_one_insert():
    tree, y, x = graphs_of(make(ODD_CHAIN))
    inserts = [v for v in y.vertices if v.kind == INSERT]
    assert len(inserts) == 1
    ins = inserts[0]
    assert not ins.odd
    a, b = ins.origin
    assert tree[a].odd and tree[b].odd
    comp = over(x, y.vertices.index(ins))
    assert len(comp) == 1 and (x.components[comp[0]].m, x.components[comp[0]].chi) == (2, 2)
    assert artin_conductor(x) == 8


def test_odd_fiber_partition():
    tree, y, x = graphs_of(make(ODD_CHAIN))
    odd_vertices = [vid for vid, v in enumerate(tree) if v.odd]
    assert len(odd_vertices) == 2
    for vid in odd_vertices:
        bv = tree[vid]
        fiber = [c for c in x.components if x.ygraph.vertices[c.over].origin[0] == vid]
        strict = [c for c in fiber if y.vertices[c.over].kind == ST]
        ins = [c for c in fiber if y.vertices[c.over].kind == INSERT]
        leaf = [c for c in fiber if y.vertices[c.over].kind == LEAF]
        assert len(strict) == 1 and strict[0].m == 2
        assert len(ins) == bv.s and all(c.m == 2 for c in ins)
        assert len(leaf) == bv.l_prime and all(c.m == 1 for c in leaf)


def test_weight_two_edges():
    tree, y, x = graphs_of(make(WEIGHT2))
    assert sorted(x.edges.values()) == [2, 2]
    for (a, b), w in x.edges.items():
        assert not y.vertices[x.components[a].over].odd and not y.vertices[x.components[b].over].odd
        assert y.branch_degrees[x.components[a].over] > 0 and y.branch_degrees[x.components[b].over] > 0
    assert artin_conductor(x) == 4
    si = self_intersections(x)
    assert sorted(si) == [-4, -2, -2]
    assert genus_check(x, si) == 2


def test_semistable_conductor_is_edge_weight(fixture_a, fixture_c):
    for inst in (fixture_a, fixture_c):
        _, _, x = graphs_of(inst)
        assert all(c.m == 1 for c in x.components)
        assert artin_conductor(x) == x.total_edge_weight()


def test_beta_even_and_strict_transform_count(fixture_b):
    tree, y, x = graphs_of(make(ODD_CHAIN))
    for v, beta in zip(y.vertices, y.branch_degrees):
        if not v.odd:
            assert beta % 2 == 0
        if v.kind == ST and not tree[v.origin[0]].odd:
            bvert = tree[v.origin[0]]
            assert beta == bvert.l + (bvert.l % 2)


def test_detect_nonminimal(fixture_a, fixture_b, fixture_c):
    for inst in (fixture_a, fixture_b, fixture_c):
        tree = build_cluster_tree(build_matrix(inst))
        assert detect_nonminimal(tree) == []
    tree = build_cluster_tree(build_matrix(make(NON_MINIMAL)))
    flagged = detect_nonminimal(tree)
    assert len(flagged) == 1
    v = tree[flagged[0]]
    assert v.odd and v.l_prime == 0 and len(v.children) == 1
    parent = next(u for u in tree if flagged[0] in u.children)
    assert not parent.odd and not tree[v.children[0]].odd
    # the flagged chain carries the contractible rational curve
    _, y, x = graphs_of(make(NON_MINIMAL))
    si = self_intersections(x)
    contractible = [cid for cid, c in enumerate(x.components) if si[cid] == -1 and c.chi == 2]
    assert len(contractible) == 1
    assert x.ygraph.vertices[x.components[contractible[0]].over].origin[0] == flagged[0]


def test_good_reduction_has_no_pattern(good_reduction):
    tree = build_cluster_tree(build_matrix(good_reduction))
    assert all(not v.odd for v in tree)
    assert detect_nonminimal(tree) == []


def _models():
    """T_X of every fixture, and of the roots and matrix twins of default_specs(200)."""
    for fx in (FIXTURE_A, FIXTURE_B, FIXTURE_C, GOOD_RED, ODD_CHAIN, WEIGHT2, NON_MINIMAL, DEEP_PAIR):
        yield graphs_of(make(fx))[2]
    for spec in default_specs(200):
        inst = gen_instance(spec)
        for source in (inst, build_matrix(inst)):
            yield analyze(source).xgraph


def _edge_scan(x, cid):
    """Neighbours of one component by a scan of the whole edge list."""
    out = []
    for (a, b), w in x.edges.items():
        if a == cid:
            out.append((b, w))
        elif b == cid:
            out.append((a, w))
    return sorted(out)


def test_neighbors_match_an_edge_scan():
    for x in _models():
        for cid in range(len(x.components)):
            assert sorted(x.neighbors(cid)) == _edge_scan(x, cid)


def test_self_intersections_match_the_neighbour_walk():
    for x in _models():
        comps = x.components
        walked = [-sum(comps[w].m * wt for w, wt in x.neighbors(cid)) // c.m for cid, c in enumerate(comps)]
        assert self_intersections(x) == walked


def _walked_by_vertex(x):
    """The conductor per tree vertex by a walk of each component's neighbours:
    (1 - m) chi, plus (m_w - 1) wt per neighbour w, plus wt per neighbour below it."""
    out = dict.fromkeys(range(len(x.ygraph.tree)), 0)
    for cid, c in enumerate(x.components):
        term = (1 - c.m) * c.chi
        for w, wt in x.neighbors(cid):
            term += (x.components[w].m - 1) * wt
            if x.ygraph.parent.get(x.components[w].over) == c.over:
                term += wt
        out[x.ygraph.vertices[c.over].origin[0]] += term
    return out


def test_component_terms_group_by_tree_vertex(fixture_b):
    tree, y, x = graphs_of(fixture_b)
    grouped = _walked_by_vertex(x)
    assert grouped == {0: 2, 1: 4}
    assert grouped == {vid: compare_vertex(tree, vid).D for vid in range(len(tree))}


def test_conductor_from_the_edge_list_alone():
    for x in _models():
        per_component = sum((1 - c.m) * c.chi for c in x.components)
        per_edge = sum((x.components[a].m + x.components[b].m - 1) * w for (a, b), w in x.edges.items())
        assert artin_conductor(x) == per_component + per_edge
        assert artin_conductor(x) == sum(_walked_by_vertex(x).values())


def test_conductor_matches_the_per_component_neighbour_walk():
    for x in _models():
        tree = x.ygraph.tree
        assert _walked_by_vertex(x) == {vid: compare_vertex(tree, vid).D for vid in range(len(tree))}


def test_conductor_decomposition_names_the_vertex_an_edge_weight_breaks(fixture_b):
    report = analyze(fixture_b)
    x = report.xgraph
    (root_comp,) = over(x, 0)
    edge = next(e for e in x.edges if root_comp in e)
    broken = x._replace(edges={**x.edges, edge: x.edges[edge] + 1})
    with pytest.raises(InternalInvariantViolation, match=r"formula gives 2 \(at vertex 0\)"):
        _check_conductor_decomposition(report.tree, broken, report.ledgers, artin_conductor(broken))


def _with_component(x, cid, **fields):
    comps = list(x.components)
    comps[cid] = comps[cid]._replace(**fields)
    return x._replace(components=tuple(comps))


# ODD_CHAIN's model: component 0 lies over the even root (m = 1, chi = 0); 1 and 2 over the odd
# tree vertices 1 and 2 (m = 2); 3 over the vertex inserted between them (m = 2); 4, 5 and 6
# over leaves, for root 2 at vertex 1 and roots 0 and 1 at vertex 2 (m = 1)
@pytest.mark.parametrize("tamper, message", [
    # component 6's cover vertex hangs from 2's, not from 0's
    (lambda x: x._replace(edges={**x.edges, (0, 6): 1}), r"edge joins components over non-adjacent cover vertices"),
    (lambda x: _with_component(x, 0, m=2), r"multiplicity contradicts the cover rule \(at vertex 0\)"),
    (lambda x: _with_component(x, 1, chi=0), r"multiplicity-2 component must be rational \(at vertex 1\)"),
    (lambda x: x._replace(edges={**x.edges, (0, 1): 2}), r"weight-2 intersection in a forbidden position"),
    # the leaf component of root 1 dropped, with its one edge
    (lambda x: x._replace(components=x.components[:6], edges={e: w for e, w in x.edges.items() if 6 not in e}),
     r"odd fiber does not split as 1 \+ s \+ l' \(at vertex 2\)"),
], ids=["non-adjacent", "multiplicity", "m2-not-rational", "weight-2-at-odd", "leaf-missing"])
def test_model_that_breaks_the_cover_rules_rejected(tamper, message):
    _, y, x = graphs_of(make(ODD_CHAIN))
    assert [y.parent.get(c.over) for c in x.components] == [None, 0, 3, 1, 1, 2, 2]
    assert [(c.m, c.chi) for c in x.components] == [(1, 0), (2, 2), (2, 2), (2, 2), (1, 2), (1, 2), (1, 2)]
    assert x.edges == {(0, 1): 1, (1, 3): 1, (2, 3): 1, (1, 4): 1, (2, 5): 1, (2, 6): 1}
    with pytest.raises(InternalInvariantViolation, match=message):
        check_x_invariants(tamper(x))


# a weight-2 edge between a split sheet (beta = 0) and a single even component, both of m = 1
# and over even cover vertices: only the weight-2 rule's branch-degree clauses see it, one on
# each end (the sheet is the lower id in FIXTURE_A's edge, the higher in FIXTURE_C's)
@pytest.mark.parametrize("fixture, edge, betas", [
    (FIXTURE_A, (0, 2), (0, 2)),
    (FIXTURE_C, (0, 1), (4, 0)),
], ids=["sheet-first", "sheet-second"])
def test_weight_two_at_a_split_sheet_rejected(fixture, edge, betas):
    _, y, x = graphs_of(make(fixture))
    ends = [x.components[c] for c in edge]
    assert x.edges[edge] == 1
    assert tuple(y.branch_degrees[c.over] for c in ends) == betas
    assert all(c.m == 1 and not y.vertices[c.over].odd for c in ends)
    with pytest.raises(InternalInvariantViolation, match=re.escape(f"forbidden position (at vertex {edge})")):
        check_x_invariants(x._replace(edges={**x.edges, edge: 2}))


def test_self_intersection_that_is_not_an_integer_rejected():
    _, _, x = graphs_of(make(ODD_CHAIN))
    # component 1 (m = 2) meets 0 (m = 1), 3 (m = 2) and 4 (m = 1): 1 + 2 + 1 = 4, now 5
    tampered = x._replace(edges={**x.edges, (1, 4): 2})
    with pytest.raises(InternalInvariantViolation, match=r"self-intersection -5/2 is not an integer \(at vertex 1\)"):
        self_intersections(tampered)


def test_adjunction_that_misses_the_genus_rejected(fixture_b):
    _, _, x = graphs_of(fixture_b)
    si = self_intersections(x)
    si[0] -= 1  # component 0 has m = 1: the adjunction total rises by 1
    with pytest.raises(InternalInvariantViolation, match=r"adjunction total 3 != 2g - 2 = 2"):
        genus_check(x, si)


def test_branch_degrees_match_the_neighbour_count():
    for x in _models():
        y = x.ygraph
        verts = y.vertices
        parent = y.parent
        counted = tuple(  # odd children (a scan of parent), the odd parent, the attached roots
            sum(verts[c].odd for c, p in parent.items() if p == vid)
            + (vid in parent and verts[parent[vid]].odd)
            + len(v.attached_roots)
            for vid, v in enumerate(verts)
        )
        assert y.branch_degrees == counted


def test_branch_degree_that_disagrees_with_the_tree_rejected(fixture_b):
    tree, y, _ = graphs_of(fixture_b)
    beta = list(y.branch_degrees)
    beta[0] += 2  # still even, so only the comparison with l + (l mod 2) can see it
    with pytest.raises(InternalInvariantViolation, match=r"branch degree != l \+ \(l mod 2\)"):
        check_y_invariants(y._replace(branch_degrees=tuple(beta)))


def test_odd_branch_degree_at_an_even_vertex_rejected(fixture_b):
    tree, y, _ = graphs_of(fixture_b)
    beta = list(y.branch_degrees)
    beta[0] += 1
    with pytest.raises(InternalInvariantViolation, match=r"odd branch degree at an even vertex \(at vertex 0\)"):
        check_y_invariants(y._replace(branch_degrees=tuple(beta)))


def test_adjacent_odd_cover_vertices_rejected():
    _, y, _ = graphs_of(make(ODD_CHAIN))
    ins = next(vid for vid, v in enumerate(y.vertices) if v.kind == INSERT)  # sits between two odd vertices
    assert (ins, y.parent[ins]) == (3, 1) and y.parent[2] == ins
    verts = list(y.vertices)
    verts[ins] = verts[ins]._replace(odd=True)
    with pytest.raises(InternalInvariantViolation, match=r"two odd cover vertices are adjacent \(at vertex \(1, 3\)\)"):
        check_y_invariants(y._replace(vertices=tuple(verts)))


def _reached_by_neighbour_walk(x):
    seen, stack = {0}, [0]
    while stack:
        for w, _ in x.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def test_cover_with_one_edge_removed_is_disconnected(fixture_b):
    _, _, x = graphs_of(fixture_b)  # a star through the multiplicity-2 component
    edge = next(iter(x.edges))
    cut = x._replace(edges={e: w for e, w in x.edges.items() if e != edge})
    with pytest.raises(InternalInvariantViolation, match="cover graph is disconnected"):
        _check_connected(cut)


def test_union_find_halves_the_path_of_a_second_endpoint():
    # each edge's second endpoint is already a child when the edge is read, which build_tx's edge
    # order never gives: the path-halving loop over b runs twice, then once with (0, 1) left out
    path = XGraph(components=(None,) * 4, edges={(2, 3): 1, (1, 2): 1, (0, 1): 1},
                  ygraph=None, repeats={}, edge_repeats={})
    _check_connected(path)
    with pytest.raises(InternalInvariantViolation, match="cover graph is disconnected"):
        _check_connected(path._replace(edges={(2, 3): 1, (1, 2): 1}))


def test_cover_with_no_components_rejected(fixture_b):
    _, _, x = graphs_of(fixture_b)
    with pytest.raises(InternalInvariantViolation, match="cover graph has no components"):
        _check_connected(x._replace(components=()))


def test_union_find_agrees_with_the_neighbour_walk():
    # each edge removed in turn: bridges disconnect, edges on a cycle do not
    for x in list(_models())[:60]:
        _check_connected(x)
        assert _reached_by_neighbour_walk(x) == x.n_components
        for edge in x.edges:
            cut = x._replace(edges={e: w for e, w in x.edges.items() if e != edge})
            if _reached_by_neighbour_walk(cut) == x.n_components:
                _check_connected(cut)
            else:
                with pytest.raises(InternalInvariantViolation):
                    _check_connected(cut)
