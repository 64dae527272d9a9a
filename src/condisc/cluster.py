"""Rooted refinement tree of the valuation matrix, with vertex statistics.

Vertices are in bijection with blow-up generations: one vertex per depth
``d >= 1`` and per equivalence class of indices under ``m[i][j] >= d`` that
still holds two or more roots, plus the root vertex (all indices, depth 0).
A cluster persisting across several depths therefore becomes a chain, one
vertex per depth step.

Long chains are cut, so that the tree analyzed does not grow with valuation
depth.  Every term computed downstream is local: a vertex's share of the
discriminant, of the conductor and of the shifts, and the T_Y and T_X pieces
it owns, read only the vertex's own statistics, the parity of its parent,
and the weights and parities of the vertices at most two steps below it (the
components over a child depend on the child's branch degree, which reads the
grandchild's parity).  Inside a chain -- the cluster's first vertex, whose
parent lies outside it, down to the split vertex at depth ``floor`` --
every vertex but the last has the chain's weight, ``l' = 0`` and one child
of the same weight, and parity is constant (even weight) or alternates (odd
weight).  So a chain of ``L >= 8`` vertices is cut by an even number of
steps to 6 or 7 vertices (the length keeping the parity of ``L``), and its
third and fourth vertices, each at least two steps from both ends, carry
``repeat = 1 + cut / 2``: they stand for the ``cut / 2`` pairs removed.  Each
removed pair had, up to two steps in every direction, the same statistics
and parities as the kept pair, so each of its terms equals the kept pair's
term, and every total over the per-depth tree is the total over the cut
tree with each vertex weighted by its ``repeat``.  Each vertex of the cut
tree stores the statistics of its first copy in the per-depth tree, so the
two trees share one depth scale, and every per-vertex check holds on the cut
tree as it stands; only :func:`check_tree_invariants` states that the child
of a pair's second vertex sits below every copy of the pair.  For output,
:attr:`ClusterTree.expansion` gives back the per-depth tree, its ids ordered
by depth and then by smallest member, as bands of depths and each column's
ids, computed from the cut tree, and :meth:`ClusterTree.expand` builds it
whole.

The tree is built from a work list of clusters not yet split, with no
recursion.  Each split records its vertex's separating roots and child
clusters as soon as its classes are known, and the statistics below are
read from those records, not reconstructed afterwards.

The loop reads pair valuations through one of two accessors: entries of a
valuation matrix, or root residues (:func:`~condisc.valuation.residues`), from
which it computes the valuations it needs, with no n x n matrix.  The same
loop certifies that the valuations are ultrametric.  At each split, every
pair of roots in two different classes must have valuation exactly the
split's depth.  Each pair is checked at its lowest common ancestor: in a
matrix by reading its entry in both orientations, so every entry off the
diagonal is read once, n(n - 1) reads in all; in residues once, through the
first member of each class, since a pair across two classes has valuation
``floor`` exactly when their residues agree mod p^floor and differ mod
p^(floor + 1), and the members of a class agree mod p^(floor + 1); a split
then costs the size of its cluster.  When the check passes, the valuations
equal the ultrametric of the tree, which proves them ultrametric (a matrix is
ultrametric exactly when it equals the ultrametric of its single-linkage
tree; Gower and Ross, 1969), and ``nu_df`` is twice their sum: twice the sum
over splits of the floor times the pairs the split separates.  For a matrix
it proves more: entry (i, j) and entry (j, i) both equal the floor of the
split that separates i and j, so the matrix is symmetric; and a cluster's
floor lies above its parent's (its members were placed in it by entries above
the parent's floor), so no entry is below the root's floor, and a negative
floor is turned down.  The loop runs once, to the end of the cut tree.  When
a matrix fails it, or has a root count turned down,
:meth:`~condisc.valuation.ValuationMatrix._scan` first names its first defect,
as ``check_shape``, which ran before the loop, would; then the O(n^3) triple scan
:func:`~condisc.valuation.validate_ultrametric` names every violating triple,
as an :class:`UltrametricViolationError`, also past the vertex budget; a
failure neither scan explains, or one on residues (ultrametric by
construction), is a bug and is raised as it is.  Only then is the vertex
budget decided, on the finished cut tree: O(n) vertices whatever the
valuations.

Per vertex we track (*property*: read from the other fields, never stored):

* ``depth``    -- depth of the vertex's first per-depth copy: the d of its disc D(b, d),
* ``children`` -- child ids, each above the vertex's: the tree's one adjacency,
* ``wt``       -- number of roots in the vertex's disk,
* ``l_prime``  -- *property*: ``len(sep_roots)``, the roots that separate here,
* ``r`` / ``s``-- children of odd / even weight; ``s`` is a *property*, ``len(children) - r``,
* ``l``        -- *property*: l_prime + r,
* ``f_val``    -- at the first copy, nu of the vertex's disc: the order of
  vanishing of f along the component (root: 0, then one weight more per depth
  step), whose parity drives the double cover,
* ``odd``      -- *property*: ``f_val`` odd; the analysis's per-vertex loops read
  ``f_val % 2`` itself, as a property read costs about four field reads (Python 3.11),
* ``repeat``   -- copies of the vertex in the per-depth tree.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, cycle, islice, repeat
from math import gcd
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import InstanceError, InternalInvariantViolation, TooFewRootsError, UltrametricViolationError
from .valuation import INFINITY, Residues, ValuationMatrix, _int_val, validate_ultrametric

# most vertices the per-depth tree may have: a chain has one vertex per depth
# step, so a valuation of v forces more than v of them.  A cut chain is
# analyzed as 6 or 7 vertices, but output still writes every vertex, so the
# budget bounds the output's time, not its memory: `analyze --format json` on a
# 6-root depth-10**5 chain takes 0.27-0.44 s and 16 MB peak RSS (2-vCPU Xeon,
# Python 3.11; the README's depth table), nearly all of it output, and text
# output grows with the square of the depth.
TREE_VERTEX_BUDGET = 10**6

SHORTEST_CUT_CHAIN = 8  # a chain of 6 or 7 vertices keeps a pair two steps from both ends


class ClusterVertex(NamedTuple):
    depth: int
    children: tuple[int, ...]
    wt: int
    r: int
    f_val: int
    sep_roots: tuple[int, ...]
    repeat: int = 1

    @property
    def l_prime(self) -> int:
        return len(self.sep_roots)

    @property
    def s(self) -> int:
        return len(self.children) - self.r

    @property
    def l(self) -> int:
        return len(self.sep_roots) + self.r

    @property
    def odd(self) -> bool:
        return self.f_val % 2 == 1

    @property
    def parity(self) -> str:
        return "odd" if self.odd else "even"

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def parent_odd(self) -> bool:
        # f_val - wt is the f_val of the parent's last copy, which has the parent's parity:
        # a vertex's copies lie two steps apart.  The root reads even
        return (self.f_val - self.wt) % 2 == 1


class Band(NamedTuple):
    """Depths ``start`` to ``stop - 1`` of the per-depth tree, over which the
    same columns are active.  At each depth the ids run on from ``first``, one
    per column in order of smallest member; ``vids`` holds the vertex of the
    cut tree each copies at depth ``start``, then at ``start + 1``, and repeats."""

    start: int
    stop: int
    first: int
    vids: tuple[int, ...]


class Expansion(NamedTuple):
    """The per-depth tree a cut tree stands for, as depth bands."""

    size: int                      # vertices of the per-depth tree
    bands: tuple[Band, ...]        # by depth
    # by the first vertex of each column: its per-depth ids, by depth, as a range per band
    # whose step is the band's column count
    columns: dict[int, list[range]]


class ClusterTree:
    """The vertices, a vertex's id being its position, and the number of roots.

    A plain class rather than a record: ``len(tree)`` counts vertices, and
    ``repeats`` is filled once, here, because every analysis reads it."""

    def __init__(self, vertices: tuple[ClusterVertex, ...], num_roots: int, nu_df: int | None = None) -> None:
        self.vertices = vertices
        self.num_roots = num_roots
        self.nu_df = nu_df  # twice the certified pair valuations, from build_cluster_tree
        # the repeat of each vertex whose repeat is not 1, by id: empty when
        # nothing is cut.  See per_depth_total.
        self.repeats: dict[int, int] = {vid: v.repeat for vid, v in enumerate(vertices) if v.repeat != 1}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterTree):
            return NotImplemented
        return (self.vertices, self.num_roots) == (other.vertices, other.num_roots)

    def __repr__(self) -> str:
        return f"ClusterTree(vertices={self.vertices!r}, num_roots={self.num_roots!r})"

    @property
    def root(self) -> ClusterVertex:
        return self.vertices[0]

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, vid: int) -> ClusterVertex:
        return self.vertices[vid]

    @cached_property
    def expansion(self) -> Expansion:
        """The depth bands, from the cut tree.  A vertex of repeat 1 is a column
        of one depth, and a pair (a vertex and its only child, of one repeat R)
        one of 2R depths, with the first vertex at even offsets.  A sweep over
        the columns' ends in depth order gives at most two bands per column.
        It reads a tree :func:`check_tree_invariants` accepts, as ``analyze``
        checks every tree first: each vertex's depth is its first copy's."""
        verts = self.vertices
        low = [0] * len(verts)  # smallest member: children have larger ids than their parent
        for vid, v in zip(reversed(range(len(verts))), reversed(verts)):
            low[vid] = min([*v.sep_roots, *[low[c] for c in v.children]])
        cols = []  # (first depth, depth past the last, smallest member, vertex at even offsets, at odd ones)
        for vid, v in enumerate(verts):
            if v.repeat == 1:
                cols.append((v.depth, v.depth + 1, low[vid], vid, vid))
            elif verts[v.children[0]].repeat == v.repeat:  # the first of a pair
                cols.append((v.depth, v.depth + 2 * v.repeat, low[vid], vid, v.children[0]))
        bounds = sorted({c[0] for c in cols}.union([c[1] for c in cols]))
        columns = {c[3]: [] for c in cols}
        cols.sort(reverse=True)  # the next column to start is last
        active, bands, first = [], [], 0
        for d0, d1 in zip(bounds, bounds[1:]):
            active = [c for c in active if c[1] > d0]
            while cols and cols[-1][0] == d0:
                active.append(cols.pop())
            active.sort(key=itemgetter(2))
            k, end = len(active), first + len(active) * (d1 - d0)
            for fid, c in enumerate(active, first):
                columns[c[3]].append(range(fid, end, k))
            # the vertex of each column at depth d0, then at d0 + 1
            at, after = zip(*[(v, w) if (d0 - s) % 2 == 0 else (w, v) for s, _, _, v, w in active])
            bands.append(Band(d0, d1, first, at + after))
            first = end
        return Expansion(first, tuple(bands), columns)

    def rows(self):
        """(per-depth id, vertex of the cut tree, depth) for each vertex of the
        per-depth tree, by id: band by band, in arithmetic on the band."""
        if not self.repeats:  # nothing cut: the tree is its own per-depth tree
            return ((vid, vid, v.depth) for vid, v in enumerate(self.vertices))
        return chain.from_iterable(map(_band_rows, self.expansion.bands))

    def per_depth_runs(self):
        """In preorder, each column's run of per-depth ids, which hang one from the
        next: its ranges (one per band, read in turn), the depth of its first id
        and the vertices its ids copy in turn; the children of the last of them
        hang from the last id.  An explicit stack, since chains outgrow the
        recursion limit."""
        verts, columns = self.vertices, self.expansion.columns
        stack = [0]
        while stack:
            v = verts[vid := stack.pop()]
            vids = (vid,) if v.repeat == 1 else (vid, v.children[0])
            yield columns[vid], v.depth, vids
            stack += reversed(verts[vids[-1]].children)

    def expand(self) -> ClusterTree:
        """The per-depth tree: this tree if nothing is cut, else one vertex per copy,
        each built once, in one pass over the columns' runs.  An id's child is the
        next id of its run; the run's last id takes the first ids of the columns
        below it, sorted, so siblings come in id order."""
        if not self.repeats:
            return self
        verts, columns = self.vertices, self.expansion.columns
        out: list = [None] * self.expansion.size
        for ranges, depth, vids in self.per_depth_runs():
            below = tuple(sorted([columns[c][0][0] for c in verts[vids[-1]].children]))
            # zip of one iterable makes each next id a 1-tuple
            kids = chain(zip(islice(chain.from_iterable(ranges), 1, None)), [below])
            for fid, v, kid in zip(chain.from_iterable(ranges), cycle([verts[u] for u in vids]), kids):
                # v's first copy plus one weight per step; positional, in field order:
                # about 2.5 times as fast as _replace (timeit, Python 3.11)
                out[fid] = ClusterVertex(depth, kid, v.wt, v.r, v.f_val + (depth - v.depth) * v.wt, v.sep_roots)
                depth += 1
        return ClusterTree(tuple(out), self.num_roots, self.nu_df)


def _band_rows(band: Band):
    """The rows of one band, as :meth:`ClusterTree.rows` gives them."""
    start, stop, first, vids = band
    k = len(vids) // 2
    depths = range(start, stop) if k == 1 else chain.from_iterable(map(repeat, range(start, stop), repeat(k)))
    return zip(range(first, first + k * (stop - start)), cycle(vids), depths)


def per_depth_total(terms, repeats: dict) -> int:
    """Total over the per-depth tree of one term per item of the cut tree: the
    plain sum plus ``(repeat - 1)`` times the term of each item ``repeats``
    lists.  ``terms`` is a list indexed by id or a dict keyed like ``repeats``."""
    total = sum(terms.values() if isinstance(terms, dict) else terms)
    for k, r in repeats.items():
        total += terms[k] * (r - 1)
    return total


class _MatrixPairs:
    """Pair valuations read from a valuation matrix.

    A row's entries for many members are read at once, through
    :func:`operator.itemgetter`, and compared with the floor by
    ``tuple.count``: the floor and the certificate take one Python step per
    member of a split, and the n^2 entries they read are compared in C."""

    def __init__(self, m: ValuationMatrix) -> None:
        self.entries = m.entries

    def floor(self, members: tuple[int, ...]):
        """The least v(b_i - b_j) from the first member i to a later member j."""
        return min(_getter(members[1:])(self.entries[members[0]]))

    def split(self, members: tuple[int, ...], floor: int) -> list[list[int]]:
        """The classes of m >= floor + 1, ordered by smallest member, after
        certifying that every pair across two classes has valuation floor, in
        both orientations: each member's row is read at every member outside
        its class."""
        entries = self.entries
        classes: list[list[int]] = []
        for i in members:
            row = entries[i]
            for cls in classes:
                if row[cls[0]] >= floor + 1:
                    cls.append(i)
                    break
            else:
                classes.append([i])
        if len(classes) < 2:
            return classes  # no pair to certify: _grow rejects a cluster that does not split
        order = list(chain.from_iterable(classes))
        start = 0
        for cls in classes:
            stop = start + len(cls)
            outside = order[:start] + order[stop:]
            get = _getter(outside)
            for i in cls:
                row = entries[i]
                if get(row).count(floor) != len(outside):
                    j = next(j for j in outside if row[j] != floor)
                    raise _off_floor(row[j], floor, i, j)
            start = stop
        return classes


def _getter(indices: Sequence[int]):
    """``itemgetter(*indices)``, but a tuple also for one index, where
    itemgetter returns the bare item."""
    if len(indices) == 1:
        j = indices[0]
        return lambda row: (row[j],)
    return itemgetter(*indices)


class _ResiduePairs:
    """Pair valuations read from root residues: v(b_i - b_j) = v(r_i - r_j)."""

    def __init__(self, res: Residues) -> None:
        self.p, self.values = res.p, res.values

    def floor(self, members: tuple[int, ...]):
        """The least v(r_i - r_j) from the first member i to a later member j,
        in one call: the valuation of their gcd (INFINITY for a gcd of 0)."""
        values = self.values
        first = values[members[0]]
        g = gcd(*[first - values[j] for j in members[1:]])
        return _int_val(g, self.p) if g else INFINITY

    def split(self, members: tuple[int, ...], floor: int) -> list[list[int]]:
        """The classes of residues mod p^(floor + 1), ordered by smallest
        member, after certifying that every pair across two classes has
        valuation floor, in O(classes): the first members of all classes agree
        mod p^floor (see the module docstring).  No two classes agree mod
        p^(floor + 1), as each holds the members of one residue."""
        values, p = self.values, self.p
        high = p ** (floor + 1)
        low = high // p
        groups: dict[int, list[int]] = {}
        for i in members:
            key = values[i] % high
            if key in groups:
                groups[key].append(i)
            else:
                groups[key] = [i]
        classes = list(groups.values())
        first = members[0]
        base = values[first] % low
        for cls in classes:
            j = cls[0]
            if values[j] % low != base:
                raise _off_floor(_int_val(values[first] - values[j], p), floor, first, j)
        return classes


def _off_floor(v, floor: int, i: int, j: int) -> InternalInvariantViolation:
    return InternalInvariantViolation(f"valuation {v} differs from the split depth {floor}", vertex=(i, j))


def _grow(pairs: _MatrixPairs | _ResiduePairs, n: int) -> tuple[list[list], int, str | None]:
    """Split clusters from a work list, certifying each split; returns the vertex
    records [depth, smallest member, weight, f_val, sep, child records, repeat],
    with the depth and f_val of the vertex's first per-depth copy, the sum of the
    certified valuations over all pairs, and the budget message of the first
    cluster that takes the per-depth tree past TREE_VERTEX_BUDGET, or None.  Only
    the clusters on the work list hold members."""
    root: list = [0, 0, n, 0, (), [], 1]
    records = [root]
    work = [(root, tuple(range(n)))]  # (record, members ascending)
    size = 1  # vertices of the per-depth tree so far
    total = 0
    over = None
    while work:
        rec, members = work.pop()
        top, f_top, wt = rec[0], rec[3], rec[2]
        # the cluster minimum, taken on the first member's pairs: a smaller pair elsewhere
        # in the cluster would meet this floor or a deeper one in the certificate and fail
        floor = pairs.floor(members)
        if floor is INFINITY:
            raise InternalInvariantViolation("infinite valuation inside a cluster", vertex=members)
        if floor < 0:  # each valuation certified in the cluster is at least its floor (module docstring)
            raise InternalInvariantViolation(f"negative valuation {floor} inside a cluster", vertex=members)
        if over is None and size + floor - top > TREE_VERTEX_BUDGET:
            over = (
                f"the refinement tree would exceed its budget of {TREE_VERTEX_BUDGET} vertices "
                f"(TREE_VERTEX_BUDGET): {len(members)} roots stay together from depth {top} to {floor}"
            )
        size += floor - top
        # chain: the cluster survives unchanged from depth top to floor, one vertex per
        # step; a long one loses an even number of steps and its third and fourth
        # vertices stand for the pairs lost.  Each kept vertex is the first copy of
        # its step: past the pair, the steps cut come first
        length = floor - top + 1
        cut = length - 6 - length % 2 if length >= SHORTEST_CUT_CHAIN else 0
        for step in range(1, length - cut):
            t = step + cut if step > 3 else step
            link = [top + t, rec[1], wt, f_top + t * wt, (), [], 1 + cut // 2 if step in (2, 3) else 1]
            rec[5].append(link)
            records.append(link)
            rec = link
        # split at depth floor, certified: every pair across two classes has valuation floor
        classes = pairs.split(members, floor)
        if len(classes) < 2:
            raise InternalInvariantViolation(f"the cluster does not split at its floor {floor}", vertex=members)
        total += floor * (len(members) ** 2 - sum(len(cls) ** 2 for cls in classes)) // 2
        rec[4] = tuple(cls[0] for cls in classes if len(cls) == 1)
        for cls in classes:
            if len(cls) >= 2:
                child = [floor + 1, cls[0], len(cls), rec[3] + len(cls), (), [], 1]
                rec[5].append(child)
                records.append(child)
                work.append((child, tuple(cls)))
                size += 1
    return records, total, over


def build_cluster_tree(source: ValuationMatrix | Residues, *, allow_small: bool = False) -> ClusterTree:
    """Build the annotated refinement tree, with long chains cut, from a valuation
    matrix or from the residues of an instance's roots (:func:`~condisc.valuation.residues`).

    The root count must be even and at least 6 (2 with ``allow_small``); a
    matrix that is not ultrametric, and a per-depth tree of more than
    :data:`TREE_VERTEX_BUDGET` vertices, are rejected.  For a cluster whose
    minimum internal valuation exceeds its depth, chain vertices are emitted
    one per intermediate depth before the split; a chain of
    :data:`SHORTEST_CUT_CHAIN` or more vertices is cut as the module
    docstring describes, and :meth:`ClusterTree.expand` gives back the
    per-depth tree.  The tree's ``nu_df`` is twice the sum of the certified
    pair valuations.

    A matrix is first checked by its ``check_shape`` (row lengths, diagonal and
    ``int`` entries), before the root count; residues come from
    :func:`~condisc.valuation.residues`, which checked their instance.  The
    tree is grown once, and the certificate runs as it grows (see the module
    docstring); it proves a matrix symmetric, nonnegative and ultrametric.
    Before any rejection of a matrix but the budget's,
    :meth:`~condisc.valuation.ValuationMatrix._scan` names its first defect, so
    a matrix rejected here is named as ``check_shape`` would name it.  Roots
    mode builds no matrix, also when it is rejected.
    """
    n = source.n
    matrix = isinstance(source, ValuationMatrix)
    if matrix:
        source.check_shape()
    try:
        if n % 2 != 0:
            raise InstanceError(f"root count must be even (2g + 2), got {n}")
        if n < 2:
            raise InstanceError(f"need at least 2 roots, got {n}")
        if n < 6 and not allow_small:
            raise TooFewRootsError(n)
        records, total, over = _grow(_MatrixPairs(source) if matrix else _ResiduePairs(source), n)
    except (InstanceError, InternalInvariantViolation) as exc:
        if matrix:
            source._scan()
            if isinstance(exc, InternalInvariantViolation) and (violations := validate_ultrametric(source)):
                raise UltrametricViolationError(violations) from None
        raise
    if over is not None:  # a matrix that reaches here has no defect the scan names
        raise InstanceError(over)

    # canonical ids: sort by (first-copy depth, smallest member), the key of the
    # per-depth ids, so a parent precedes its children and siblings keep their
    # class order; each id goes in slot 7.
    records.sort(key=itemgetter(0, 1))
    for new, rec in enumerate(records):
        rec.append(new)
    vertices: list[ClusterVertex] = []
    for depth, _, wt, f_val, sep, kids, repeat, _ in records:
        # positional, in field order: with keyword arguments a vertex costs 1.0-1.5 us
        # against 0.75 us (timeit, Python 3.11, 2-vCPU Xeon)
        vertices.append(ClusterVertex(
            depth, tuple([kid[7] for kid in kids]), wt, sum(kid[2] % 2 for kid in kids), f_val, sep, repeat,
        ))
    return ClusterTree(tuple(vertices), num_roots=n, nu_df=2 * total)


def equation_discriminant(m: ValuationMatrix) -> int:
    """Valuation of disc(f) as a degree-(2g+2) polynomial: twice the sum of pairwise
    valuations, read from the whole matrix; ``analyze`` takes it from the tree's
    certified pairs instead (``ClusterTree.nu_df``)."""
    return 2 * sum(sum(row[i + 1:]) for i, row in enumerate(m.entries))


def _check_repeats(verts, up: list[int | None]) -> None:
    """A vertex with repeat > 1 stands for its copies only as the first of a
    pair of equal repeat with its only child, inside one chain that reaches
    two steps above the pair and two steps below it (see the module docstring).
    Under the weight identity, one weight along the chain means one cluster."""
    for vid, v in enumerate(verts):
        if v.repeat == 1:
            continue
        if up[vid] is not None and verts[up[vid]].repeat == v.repeat:
            continue  # second of its pair: checked with the first (repeat < 1 is rejected at the top of its run)
        path = [vid]
        while len(path) < 3 and up[path[0]] is not None:
            path.insert(0, up[path[0]])
        while len(path) < 6 and len(verts[path[-1]].children) == 1:
            path.append(verts[path[-1]].children[0])
        if (
            v.repeat < 1
            or [verts[u].repeat for u in path] != [1, 1, v.repeat, v.repeat, 1, 1]
            or any(verts[u].wt != v.wt for u in path)
        ):
            raise InternalInvariantViolation("repeated vertex outside the middle of a chain", vertex=vid)


def check_tree_invariants(tree: ClusterTree) -> None:
    """Structural identities every refinement tree satisfies; bugs raise.

    A vertex's id is its position in ``tree.vertices``.  Each vertex but
    the root is some smaller id's child exactly once, so ``children`` form one
    tree, and each vertex lists its children in id order, the order the
    writers follow (:meth:`ClusterTree.expand` renumbers siblings, so no
    comparison of expanded trees sees it).  A vertex's members are its
    separating roots and its children's members; as each root separates at
    exactly one vertex, the root holds all roots and the children of a vertex
    hold disjoint parts of its members.
    ``l_prime``, ``s``, ``l`` and ``odd`` are read from the checked fields, so
    no rule compares them with their definitions."""
    verts, root, n = tree.vertices, tree.root, tree.num_roots
    seen = [False] * n
    up: list[int | None] = [None] * len(verts)  # parent id, by id
    for vid, v in enumerate(verts):
        last = vid
        for c in v.children:
            if not vid < c < len(verts):
                raise InternalInvariantViolation(f"child id {c} is out of range or not above its parent's", vertex=vid)
            if up[c] is not None:
                raise InternalInvariantViolation(f"child {c} is named by two vertices", vertex=vid)
            if c <= last:
                raise InternalInvariantViolation(f"child {c} is listed after child {last}", vertex=vid)
            up[c] = vid
            last = c
        for i in v.sep_roots:
            if not 0 <= i < n or seen[i]:
                raise InternalInvariantViolation(f"root {i} separates at two vertices or is out of range", vertex=vid)
            seen[i] = True
    if None in up[1:]:
        raise InternalInvariantViolation("vertex is not a child of any vertex", vertex=up.index(None, 1))
    if root.depth != 0 or root.wt != n:
        raise InternalInvariantViolation("root must hold all roots at depth 0", vertex=0)
    if root.f_val != 0:
        raise InternalInvariantViolation("root f_val != 0", vertex=0)
    if not all(seen):
        raise InternalInvariantViolation(f"root {seen.index(False)} separates at no vertex", vertex=0)
    if n % 2 != 0:  # with the rules below, the root's l is even
        raise InternalInvariantViolation("root count must be even", vertex=0)
    _check_repeats(verts, up)
    for vid, v in enumerate(verts):
        if v.wt < 2:
            raise InternalInvariantViolation("vertex weight below 2", vertex=vid)
        weights = [verts[c].wt for c in v.children]
        if v.wt != len(v.sep_roots) + sum(weights):
            raise InternalInvariantViolation("wt != l_prime + sum of child weights", vertex=vid)
        if v.r != sum(w % 2 for w in weights):
            raise InternalInvariantViolation("r != number of odd-weight children", vertex=vid)
        if up[vid] is not None:
            p = verts[up[vid]]
            # depth steps from the parent's first copy to the child's: the child of a
            # pair's second vertex sits below every copy of the pair
            gap = 2 * p.repeat - 1 if p.repeat > v.repeat else 1
            if v.depth != p.depth + gap:
                raise InternalInvariantViolation(f"child depth != parent depth + {gap}", vertex=vid)
            if v.f_val != p.f_val + gap * v.wt:
                raise InternalInvariantViolation("f_val != parent's f_val + wt", vertex=vid)
