"""Rooted refinement tree of the valuation matrix, with vertex statistics.

Vertices are in bijection with blow-up generations: one vertex per depth
``d >= 1`` and per equivalence class of indices under ``m[i][j] >= d`` that
still holds two or more roots, plus the root vertex (all indices, depth 0).
A cluster persisting across several depths therefore becomes a chain, one
vertex per depth step; collapsing those chains would change the separation
statistics that every formula downstream is stated in.

The tree is built from a work list of clusters not yet split, with no
recursion.  Each split records its vertex's separating roots and child
clusters as soon as its classes are known, and the statistics below are
read from those records, not reconstructed afterwards.

The same loop certifies that the matrix is ultrametric.  At each split,
every pair of roots in two different classes must have valuation exactly
the split's depth.  Each pair is checked once, at its lowest common
ancestor, so the check costs O(n^2) in all, and when it passes the matrix
equals the ultrametric of the tree, which proves it ultrametric (a matrix is
ultrametric exactly when it equals the ultrametric of its single-linkage
tree; Gower and Ross, 1969).  On any failure of the loop -- a pair that
disagrees, the vertex budget, an infinite valuation inside a cluster -- the
O(n^3) triple scan :func:`~condisc.valuation.validate_ultrametric` runs
first and its verdict, listing every violating triple, takes precedence.

Per vertex we track:

* ``wt``       -- number of roots in the vertex's disk,
* ``l_prime``  -- roots that separate here (singleton at the next depth),
* ``r`` / ``s``-- children of odd / even weight,
* ``l``        -- l_prime + r,
* ``f_val``    -- order of vanishing of f along the component (root: 0,
  child: parent + child weight), whose parity drives the double cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import InstanceError, InternalInvariantViolation, TooFewRootsError, UltrametricViolationError
from .valuation import INFINITY, ValuationMatrix, validate_ultrametric

# most vertices T_B may have: a chain emits one vertex per depth step, so a
# valuation of v forces more than v of them.  `analyze --format json` costs
# about 0.05 ms and 3 KB per vertex (depth-10**5 chain: 5.0-5.7 s, 301 MB peak
# RSS; 2-vCPU Xeon, Python 3.11), so a tree at the budget takes about a
# minute and 3 GB.
TREE_VERTEX_BUDGET = 10**6


@dataclass(frozen=True)
class ClusterVertex:
    id: int
    depth: int
    members: frozenset[int]
    parent: int | None
    children: tuple[int, ...]
    wt: int
    l_prime: int
    r: int
    s: int
    l: int
    f_val: int
    sep_roots: tuple[int, ...]

    @property
    def odd(self) -> bool:
        return self.f_val % 2 == 1

    @property
    def parity(self) -> str:
        return "odd" if self.odd else "even"

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class ClusterTree:
    vertices: tuple[ClusterVertex, ...]
    num_roots: int

    @property
    def root(self) -> ClusterVertex:
        return self.vertices[0]

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, vid: int) -> ClusterVertex:
        v = self.vertices[vid]
        assert v.id == vid
        return v

    def parent_odd(self, v: ClusterVertex) -> bool:
        return v.parent is not None and self[v.parent].odd


def _grow(m: ValuationMatrix) -> list[list]:
    """Split clusters from a work list, certifying each split; returns the vertex
    records [members (ascending), depth, parent record, sep, child records]."""
    root: list = [tuple(range(m.n)), 0, None, (), []]
    records = [root]
    work = [root]
    while work:
        rec = work.pop()
        members, depth = rec[0], rec[1]
        # the cluster minimum, taken on the first row: a smaller pair elsewhere in the
        # cluster would meet this floor or a deeper one in the certificate and fail
        first = m.entries[members[0]]
        floor = min(first[j] for j in members[1:])
        if floor is INFINITY:
            raise InternalInvariantViolation("infinite valuation inside a cluster", vertex=members)
        if len(records) + floor - depth > TREE_VERTEX_BUDGET:
            raise InstanceError(
                f"the refinement tree would exceed its budget of {TREE_VERTEX_BUDGET} vertices "
                f"(TREE_VERTEX_BUDGET): {len(members)} roots stay together from depth {depth} to {floor}"
            )
        # chain: the cluster survives unchanged, one vertex per depth step, until depth == floor
        while depth < floor:
            depth += 1
            link = [members, depth, rec, (), []]
            rec[4].append(link)
            records.append(link)
            rec = link
        # split at depth floor into classes of m >= floor + 1, ordered by smallest member
        classes: list[list[int]] = []
        for i in members:
            row = m.entries[i]
            for cls in classes:
                if row[cls[0]] >= floor + 1:
                    cls.append(i)
                    break
            else:
                classes.append([i])
        # certificate: every pair across two classes has valuation exactly floor
        later: list[int] = []
        for cls in reversed(classes):
            for i in cls:
                row = m.entries[i]
                if [row[j] for j in later].count(floor) != len(later):
                    j = next(j for j in later if row[j] != floor)
                    raise InternalInvariantViolation(
                        f"valuation {row[j]} differs from the split depth {floor}", vertex=(i, j)
                    )
            later += cls
        rec[3] = tuple(cls[0] for cls in classes if len(cls) == 1)
        for cls in classes:
            if len(cls) >= 2:
                child = [tuple(cls), floor + 1, rec, (), []]
                rec[4].append(child)
                records.append(child)
                work.append(child)
    return records


def build_cluster_tree(m: ValuationMatrix, *, allow_small: bool = False) -> ClusterTree:
    """Build the annotated refinement tree from a valuation matrix.

    The root count must be even and at least 6 (2 with ``allow_small``); a
    matrix that is not ultrametric, and a tree of more than
    :data:`TREE_VERTEX_BUDGET` vertices, are rejected.  For a cluster whose
    minimum internal valuation exceeds its depth, chain vertices are emitted
    one per intermediate depth before the split.

    The ultrametric rule is certified while the tree grows, in O(n^2): see
    the module docstring.  Any failure of the loop runs
    :func:`validate_ultrametric` first, so a matrix that is not ultrametric
    always gets the scan's :class:`UltrametricViolationError`, whatever else
    is wrong with it.  ``m`` must be symmetric, as ``check_shape`` ensures.
    """
    n = m.n
    if n % 2 != 0:
        raise InstanceError(f"root count must be even (2g + 2), got {n}")
    if n < 2:
        raise InstanceError(f"need at least 2 roots, got {n}")
    if n < 6 and not allow_small:
        raise TooFewRootsError(n)
    try:
        records = _grow(m)
    except (InstanceError, InternalInvariantViolation):
        verdict = validate_ultrametric(m)
        if not verdict.ok:
            raise UltrametricViolationError(verdict.violations) from None
        raise

    # canonical ids: sort by (depth, smallest member), so a parent precedes its
    # children and siblings keep their class order; each id goes in slot 5.
    # Clusters at one depth are disjoint, so (depth, members) is that order.
    records.sort(key=itemgetter(1, 0))
    for new, rec in enumerate(records):
        rec.append(new)
    vertices: list[ClusterVertex] = []
    for new, (members, depth, parent, sep, kids, _) in enumerate(records):
        wt = len(members)
        r = sum(len(kid[0]) % 2 for kid in kids)
        pid = parent[5] if parent is not None else None
        vertices.append(
            ClusterVertex(
                id=new,
                depth=depth,
                members=frozenset(members),
                parent=pid,
                children=tuple(kid[5] for kid in kids),
                wt=wt,
                l_prime=len(sep),
                r=r,
                s=len(kids) - r,
                l=len(sep) + r,
                f_val=vertices[pid].f_val + wt if pid is not None else 0,
                sep_roots=sep,
            )
        )
    return ClusterTree(tuple(vertices), num_roots=n)


def local_disc(v: ClusterVertex, tree: ClusterTree) -> int:
    """Per-vertex share of the equation discriminant: sum of wt(wt-1) over children."""
    return sum(tree[c].wt * (tree[c].wt - 1) for c in v.children)


def equation_discriminant(m: ValuationMatrix) -> int:
    """Valuation of disc(f) as a degree-(2g+2) polynomial: twice the sum of pairwise valuations."""
    return 2 * sum(sum(row[i + 1:]) for i, row in enumerate(m.entries))


def check_tree_invariants(tree: ClusterTree) -> None:
    """Structural identities every refinement tree satisfies; bugs raise.

    Each vertex's id must equal its position, since the checks below and the
    per-vertex ledgers index ``tree.vertices`` by id directly."""
    verts = tree.vertices
    for pos, v in enumerate(verts):
        if v.id != pos:
            raise InternalInvariantViolation(f"vertex id differs from its position {pos}", vertex=v.id)
    root = tree.root
    if root.depth != 0 or root.members != frozenset(range(tree.num_roots)):
        raise InternalInvariantViolation("root must hold all roots at depth 0", vertex=root.id)
    if root.l % 2 != 0:
        raise InternalInvariantViolation("root must have even l", vertex=root.id)
    for v in verts:
        kids = [verts[c] for c in v.children]
        if v.wt < 2:
            raise InternalInvariantViolation("vertex weight below 2", vertex=v.id)
        if v.wt != v.l_prime + sum(c.wt for c in kids):
            raise InternalInvariantViolation("wt != l_prime + sum of child weights", vertex=v.id)
        if v.wt < v.l_prime + 3 * v.r + 2 * v.s:
            raise InternalInvariantViolation("wt < l_prime + 3r + 2s", vertex=v.id)
        if v.r == v.s == 0 and v.wt != v.l_prime:
            raise InternalInvariantViolation("leaf with wt != l_prime", vertex=v.id)
        parent_odd = False
        if v.parent is not None:
            p = verts[v.parent]
            parent_odd = p.odd
            if not v.members <= p.members:
                raise InternalInvariantViolation("child members not inside parent", vertex=v.id)
            if v.depth != p.depth + 1:
                raise InternalInvariantViolation("child depth != parent depth + 1", vertex=v.id)
            # parity table: odd child of even parent <=> odd weight, of odd parent <=> even weight
            expect_odd = (v.wt % 2 == 1) if not parent_odd else (v.wt % 2 == 0)
            if v.odd != expect_odd:
                raise InternalInvariantViolation("child parity contradicts weight parity rule", vertex=v.id)
        if not v.odd:
            # an even vertex has odd l exactly when its parent exists and is odd
            if (v.l % 2 == 1) != parent_odd:
                raise InternalInvariantViolation("even vertex with l parity contradicting parent parity", vertex=v.id)
        # children of one vertex hold disjoint member sets
        seen: set[int] = set()
        for c in kids:
            if seen & c.members:
                raise InternalInvariantViolation("overlapping child member sets", vertex=v.id)
            seen |= c.members
