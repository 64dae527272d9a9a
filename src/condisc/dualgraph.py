"""Dual graphs of the intermediate and final regular models.

The cover graph is produced in two steps that mirror the geometry:

* ``build_ty``: start from the refinement tree, subdivide every edge whose
  two endpoints are both odd with an (even) inserted vertex, and hang one
  even leaf per root separating at an odd vertex.  Afterwards no two odd
  vertices are adjacent, which is exactly what makes the double cover of the
  next step regular.
* ``build_tx``: take the double cover branched along the odd vertices and
  the attached root divisors.  An even vertex meeting the branch locus at
  ``beta`` points carries one component of Euler characteristic ``4 - beta``;
  an even vertex disjoint from it splits into two rational sheets; odd and
  inserted vertices carry one component of multiplicity 2.

Over each T_Y edge the components of the two fibers meet by one rule: two
split fibers meet sheet by sheet; otherwise every pair meets once, or twice
where two single components over even vertices meet.  The two sheets of a
split region are interchangeable by a graph automorphism, so every numeric
invariant computed here is independent of which sheet meets which.  A sheet
is known only by its position among the components whose ``over`` is its
cover vertex (the first or second of the two), and joining first to first
and second to second makes output reproducible byte for byte.

``build_ty`` computes each cover vertex's branch degree ``beta`` once, in
one pass over the T_Y edges, and stores it on the graph; ``build_tx`` and
both invariant checks read it there, while ``check_y_invariants`` still
compares it with ``l + (l mod 2)`` read from the refinement tree.

``YGraph.parent`` (child id -> parent id, in the order ``build_ty`` makes the
edges) is T_Y's one adjacency: the branch degrees, ``build_tx``,
``check_y_invariants`` and the DOT export each read every edge from it once,
and ``check_x_invariants`` looks each T_X edge's ends up in it.  ``build_tx``
only joins components over the two ends of a T_Y edge, so T_X keeps no
adjacency of its own.  ``XGraph.neighbors`` scans ``parent`` for the children
of a component's cover vertex and ``components`` for the components over
them; nothing on the analysis path calls it.
Connectivity (a union-find), the conductor and the self-intersections are
each read from ``edges`` in one pass, and the checks index ``components``
and T_Y's ``vertices`` directly.

Both graphs and their vertices are named tuples.  A cover vertex's or a
component's id is its position in ``YGraph.vertices`` or
``XGraph.components``, and no record stores it; a component's ``over`` is
the id of its cover vertex.  Iterating a graph itself yields its fields, as
for any tuple.

Both graphs are built on the cut refinement tree (see :mod:`condisc.cluster`),
and every check runs on each of their vertices as it stands.  The ownership
rule: a component belongs to the tree vertex its cover vertex sits over
(``origin[0]``), and an edge to the tree vertex its upper end sits over; each
stands for ``repeat`` of that vertex's copies in the per-depth fiber.
``build_tx`` records it as it creates each component and edge, in
``XGraph.repeats`` and ``XGraph.edge_repeats``, and every total over the
per-depth fiber (the conductor, the component count, the edge total, the
adjunction total) is :func:`~condisc.cluster.per_depth_total` over them.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .cluster import ClusterTree, per_depth_total
from .errors import InternalInvariantViolation

ST = "strict"    # strict transform of a tree vertex
INSERT = "insert"  # subdivision vertex on an odd-odd edge
LEAF = "leaf"    # blow-up of an odd component / root divisor intersection
_KIND_SLOT = {ST: 0, INSERT: 1, LEAF: 2}


class YVertex(NamedTuple):
    kind: str                      # ST | INSERT | LEAF
    origin: tuple[int, ...]        # ST: (b,)  INSERT: (parent_b, child_b)  LEAF: (b, root_index)
    odd: bool
    attached_roots: tuple[int, ...]


class YGraph(NamedTuple):
    vertices: tuple[YVertex, ...]            # a vertex's id is its position
    parent: dict[int, int]                   # child id -> parent id: every edge once, in build order
    tree: ClusterTree
    branch_degrees: tuple[int, ...]          # beta of each vertex, by id


def build_ty(tree: ClusterTree) -> YGraph:
    vertices: list[YVertex] = []
    parent: dict[int, int] = {}

    # records are built positionally, in field order, as in build_cluster_tree:
    # keyword arguments cost about 2.5 times as much
    for vid, v in enumerate(tree):  # strict transforms take the tree's ids; later loops read their parity
        odd = v.f_val % 2 == 1
        vertices.append(YVertex(ST, (vid,), odd, v.sep_roots if not odd else ()))

    for vid, v in enumerate(tree):
        for c in v.children:
            if vertices[vid].odd and vertices[c].odd:
                parent[len(vertices)] = vid
                parent[c] = len(vertices)
                vertices.append(YVertex(INSERT, (vid, c), False, ()))
            else:
                parent[c] = vid
    for vid, v in enumerate(tree):
        if vertices[vid].odd:
            for i in v.sep_roots:
                parent[len(vertices)] = vid
                vertices.append(YVertex(LEAF, (vid, i), False, (i,)))

    beta = [len(v.attached_roots) for v in vertices]
    for c, p in parent.items():  # each T_Y edge once
        beta[c] += vertices[p].odd
        beta[p] += vertices[c].odd
    g = YGraph(vertices=tuple(vertices), parent=parent, tree=tree, branch_degrees=tuple(beta))
    check_y_invariants(g)
    return g


def check_y_invariants(y: YGraph) -> None:
    verts, tverts = y.vertices, y.tree.vertices
    for c, p in y.parent.items():
        if verts[c].odd and verts[p].odd:
            raise InternalInvariantViolation("two odd cover vertices are adjacent", vertex=(p, c))
    for vid, (v, beta) in enumerate(zip(verts, y.branch_degrees)):
        if v.odd:
            continue
        if beta % 2 != 0:
            raise InternalInvariantViolation("odd branch degree at an even vertex", vertex=vid)
        if v.kind == ST:
            l = tverts[v.origin[0]].l
            if beta != l + (l % 2):
                raise InternalInvariantViolation(
                    "branch degree != l + (l mod 2) at an even strict transform", vertex=vid
                )


class XComponent(NamedTuple):
    over: int              # YVertex id
    m: int                 # multiplicity in the special fiber, 1 or 2
    chi: int               # etale Euler characteristic


class XGraph(NamedTuple):
    components: tuple[XComponent, ...]        # a component's id is its position
    edges: dict[tuple[int, int], int]          # (a, b) with a < b -> intersection number
    ygraph: YGraph
    repeats: dict[int, int]                    # component id -> repeat, where it is not 1
    edge_repeats: dict[tuple[int, int], int]   # edge -> repeat, where it is not 1

    @property
    def n_components(self) -> int:
        """Components of the per-depth fiber: each counted ``repeat`` times."""
        return len(self.components) + sum(r - 1 for r in self.repeats.values())

    def neighbors(self, cid: int):
        """Each component meeting ``cid``, with the intersection number: over the
        children of its cover vertex (a scan of T_Y's ``parent``), then over its parent,
        each cover vertex's components in id order (a scan of ``components``)."""
        vid, parent = self.components[cid].over, self.ygraph.parent
        around = {c: [] for c, p in parent.items() if p == vid}
        if vid in parent:
            around[parent[vid]] = []
        for w, c in enumerate(self.components):
            if c.over in around:
                around[c.over].append(w)
        for ids in around.values():
            for w in ids:
                wt = self.edges.get((min(cid, w), max(cid, w)), 0)
                if wt:
                    yield w, wt

    def total_edge_weight(self) -> int:
        """Intersection points of the per-depth fiber: each edge weighted by its repeat."""
        return per_depth_total(self.edges, self.edge_repeats)


def build_tx(y: YGraph) -> XGraph:
    comps: list[XComponent] = []
    over: list[tuple[int, ...]] = []  # cover vertex -> its component ids
    tverts = y.tree.vertices
    repeats: dict[int, int] = {}
    edge_repeats: dict[tuple[int, int], int] = {}

    for vid, (v, b) in enumerate(zip(y.vertices, y.branch_degrees)):
        if v.odd:
            ids = (len(comps),)
            comps.append(XComponent(vid, 2, 2))  # positional, as in build_ty
        else:
            if b == 0:
                ids = (len(comps), len(comps) + 1)
                comps.append(XComponent(vid, 1, 2))
                comps.append(XComponent(vid, 1, 2))
            else:
                ids = (len(comps),)
                mult = 2 if v.kind == INSERT else 1
                comps.append(XComponent(vid, mult, 4 - b))
        over.append(ids)
        r = tverts[v.origin[0]].repeat
        if r != 1:
            repeats.update(dict.fromkeys(ids, r))

    verts = y.vertices
    edges: dict[tuple[int, int], int] = {}
    for c_id, p_id in y.parent.items():
        up, dn = over[p_id], over[c_id]
        r = tverts[verts[p_id].origin[0]].repeat
        pairs = zip(up, dn) if len(up) == len(dn) == 2 else product(up, dn)
        w = 2 if len(up) == len(dn) == 1 and not verts[p_id].odd and not verts[c_id].odd else 1
        for a, b in pairs:
            edge = (min(a, b), max(a, b))
            edges[edge] = w
            if r != 1:
                edge_repeats[edge] = r

    x = XGraph(components=tuple(comps), edges=edges, ygraph=y, repeats=repeats, edge_repeats=edge_repeats)
    _check_connected(x)
    check_x_invariants(x)
    return x


def _check_connected(x: XGraph) -> None:
    """Union-find over the edge list: connected iff n - 1 edges join two classes."""
    n = len(x.components)
    if not n:
        raise InternalInvariantViolation("cover graph has no components")
    root = list(range(n))
    joined = 0
    for a, b in x.edges:
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[a] = b
            joined += 1
    if joined != n - 1:
        raise InternalInvariantViolation("cover graph is disconnected; construction rule violated")


def check_x_invariants(x: XGraph) -> None:
    y = x.ygraph
    comps, verts, parent, beta = x.components, y.vertices, y.parent, y.branch_degrees
    tverts = y.tree.vertices
    odd = [v.f_val % 2 == 1 for v in tverts]  # the tree's parities, not T_Y's copies
    split: dict[int, list[int]] = {}  # odd tree vertex -> components over [ST, INSERT, LEAF] cover vertices
    for cid, c in enumerate(comps):
        yv = verts[c.over]
        base = yv.origin[0]
        expect_m2 = odd[base] and yv.kind != LEAF
        if (c.m == 2) != expect_m2:
            raise InternalInvariantViolation("multiplicity contradicts the cover rule", vertex=cid)
        if c.m == 2 and c.chi != 2:
            raise InternalInvariantViolation("multiplicity-2 component must be rational", vertex=cid)
        if odd[base]:
            if base not in split:
                split[base] = [0, 0, 0]
            split[base][_KIND_SLOT[yv.kind]] += 1
    for (a, b), w in x.edges.items():
        ca, cb = comps[a], comps[b]
        va, vb = ca.over, cb.over
        if parent.get(va) != vb and parent.get(vb) != va:
            raise InternalInvariantViolation("edge joins components over non-adjacent cover vertices", vertex=(a, b))
        if w == 2:
            ok = (
                not verts[va].odd
                and not verts[vb].odd
                and beta[va] > 0
                and beta[vb] > 0
                and ca.m == 1
                and cb.m == 1
            )
            if not ok:
                raise InternalInvariantViolation("weight-2 intersection in a forbidden position", vertex=(a, b))
    # over an odd tree vertex the fiber splits as 1 + s + l' components
    for vid, bv in enumerate(tverts):
        if odd[vid] and split.get(vid) != [1, bv.s, bv.l_prime]:
            raise InternalInvariantViolation("odd fiber does not split as 1 + s + l'", vertex=vid)


def artin_conductor(x: XGraph) -> int:
    """Degeneracy of the model: -(chi of generic fiber) + chi of special fiber,
    sum_c (1 - m_c) chi_c + sum over edges ab of (m_a + m_b - 1) w_ab, each
    term weighted by its repeat."""
    comps = x.components
    return per_depth_total([(1 - c.m) * c.chi for c in comps], x.repeats) + per_depth_total(
        {(a, b): (comps[a].m + comps[b].m - 1) * w for (a, b), w in x.edges.items()}, x.edge_repeats
    )


def self_intersections(x: XGraph) -> list[int]:
    """Self-intersection of each component, by id, from (whole fiber) . (component) = 0."""
    comps = x.components
    sums = [0] * len(comps)  # sum of m_w * wt over c's neighbours w, from each edge's two ends
    for (a, b), wt in x.edges.items():
        sums[a] += comps[b].m * wt
        sums[b] += comps[a].m * wt
    out: list[int] = []
    for cid, (c, s) in enumerate(zip(comps, sums)):
        q, rem = divmod(-s, c.m)
        if rem:
            raise InternalInvariantViolation(f"self-intersection -{s}/{c.m} is not an integer", vertex=cid)
        out.append(q)
    return out


def genus_check(x: XGraph, selfint: list[int]) -> int:
    """Recompute 2g - 2 from the graph via adjunction, each component weighted
    by its repeat, and compare it with 2g - 2 of the root count; raises on
    mismatch."""
    total = per_depth_total([c.m * (-c.chi - si) for c, si in zip(x.components, selfint, strict=True)], x.repeats)
    expected = 2 * ((x.ygraph.tree.num_roots - 2) // 2) - 2
    if total != expected:
        raise InternalInvariantViolation(f"adjunction total {total} != 2g - 2 = {expected}")
    return total


def detect_nonminimal(tree: ClusterTree) -> list[int]:
    """Vertices whose component chain contracts: odd, no separating roots,
    even parent, and a single even child.  Empty list means the model built
    here is already the minimal regular model."""
    found = []
    for vid, v in enumerate(tree):
        if (
            len(v.children) == 1
            and v.odd
            and v.l_prime == 0
            and not v.parent_odd  # the root is even, so v has a parent
            and not tree[v.children[0]].odd
        ):
            found.append(vid)
    return found
