"""Per-vertex conductor terms, the discriminant comparison, and reports.

The conductor of the constructed model decomposes into one integer per tree
vertex (``D`` below).  Directly comparing ``D(v)`` with the local
discriminant share ``d(v)`` fails, so two rebalancing passes are applied:
``E`` shifts weight between neighbouring vertices and sums to zero over the
tree, and the step from ``D' = D + E`` to ``D''`` moves 2 units from each
odd leaf of weight 2 to the ancestor where its chain begins.  After both
passes ``D''(v) <= d(v)`` holds vertex by vertex, which summed over the tree
gives the conductor-discriminant inequality.  Every intermediate identity is
asserted on concrete data; all arithmetic is exact.

The pipeline runs on the cut refinement tree of :mod:`condisc.cluster`: each
per-vertex check on each of its vertices, and each total over the per-depth
tree as the sum over its vertices weighted by ``repeat``.  A report's
output, and :attr:`Report.contractible`, expand it back to the per-depth
tree, so they cost the size of the output.  The writers format each
cut-tree vertex's row once, as a template tail; every per-depth copy of the
vertex is then written as its id, its depth and that tail, the id and depth
read from the tree's depth bands (:attr:`ClusterTree.expansion`).  One
generator, :meth:`Report.json_rows`, writes every JSON row, indented or
compact, as it is asked for, so ``analyze --format json`` and ``batch``
never hold a report's text whole.

A :class:`VertexLedger` is a named tuple.  A :class:`Report` is a namespace
built by keyword, and stays mutable: its attributes can be set after
:func:`analyze` returns it.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from typing import NamedTuple

from .cluster import (
    ClusterTree,
    ClusterVertex,
    build_cluster_tree,
    check_tree_invariants,
    per_depth_total,
)
from .dualgraph import (
    XGraph,
    YGraph,
    artin_conductor,
    build_tx,
    build_ty,
    detect_nonminimal,
    genus_check,
    self_intersections,
)
from .errors import InequalityViolated, InternalInvariantViolation
from .valuation import Instance, ValuationMatrix, residues

# equality classification tags for the per-vertex comparison
EVEN_ALL_EVEN_CHILDREN_WT2 = "EVEN_ALL_EVEN_CHILDREN_WT2"
ODD_WT2 = "ODD_WT2"
ODD_WT3_NO_EVEN_CHILDREN = "ODD_WT3_NO_EVEN_CHILDREN"
STRICT = "STRICT"


def local_artin(v: ClusterVertex) -> int:
    """Share of the conductor carried by one vertex (closed form)."""
    if not v.f_val % 2:
        return (v.l % 2) + 2 * len(v.children)
    base = -2 if not v.parent_odd else -1
    return base - v.r + 3 * v.s + 2 * v.l


def _shift(v: ClusterVertex, odd_child_shift: int) -> int:
    """E from the vertex, which knows its parent's parity, and sum(2 - wt(wt-1)) over its odd children."""
    if not v.f_val % 2:
        return -(v.l % 2) - odd_child_shift
    base = 2 if not v.parent_odd else 1
    return len(v.children) + base - v.wt * (v.wt - 1) - odd_child_shift


class VertexLedger(NamedTuple):
    d: int
    D: int
    E: int
    D_prime: int
    D_double_prime: int
    L_count: int
    equality: bool
    reason: str


def compare_vertex(tree: ClusterTree, vid: int) -> VertexLedger:
    """Evaluate all local terms at vertex ``vid`` and classify the comparison.

    The comparison quantity is D'': the shifted share D' = D + E, with 2
    moved from each odd weight-2 leaf to the ancestor where its chain begins.
    The children are scanned once, for every sum over them below."""
    verts = tree.vertices
    v = verts[vid]
    d = odd_sq = odd_shift = wt2 = 0
    odd_only = even_wt2 = True  # every child is odd / every even child has weight 2
    for c in v.children:
        child = verts[c]
        q = child.wt * (child.wt - 1)
        d += q
        wt2 += child.wt == 2
        if child.f_val % 2:
            odd_sq += q
            odd_shift += 2 - q
        else:
            odd_only = False
            even_wt2 = even_wt2 and child.wt == 2
    odd = v.f_val % 2 == 1
    D = local_artin(v)
    E = _shift(v, odd_shift)
    dp = D + E
    closed = 2 * (v.l + v.s) - v.wt * (v.wt - 1) + odd_sq if odd else 2 * v.s + odd_sq
    if dp != closed:
        raise InternalInvariantViolation("D + E disagrees with the closed form of D'", vertex=vid)
    l_count = wt2 if odd and v.wt > 2 else 0
    dpp = dp - 2 if odd and v.wt == 2 and v.is_leaf else dp + 2 * l_count

    if not odd:
        eq = even_wt2
        reason = EVEN_ALL_EVEN_CHILDREN_WT2 if eq else STRICT
    elif v.wt == 2:
        eq, reason = True, ODD_WT2
    elif v.wt == 3 and odd_only:
        eq, reason = True, ODD_WT3_NO_EVEN_CHILDREN
    else:
        eq, reason = False, STRICT

    if dpp > d:
        raise InequalityViolated(f"D'' = {dpp} exceeds d = {d}", vertex=vid)
    if eq != (dpp == d):
        raise InternalInvariantViolation("equality clause disagrees with the computed values", vertex=vid)
    return VertexLedger(d, D, E, dp, dpp, l_count, eq, reason)  # positional, as in build_ty


# a vertex's JSON object after its "depth" value, as json.dumps writes it with
# indent=2 and compact; each %s takes one cell of Report._json_cells
_FIELDS = ("wt", "l_prime", "r", "s", "l", "parity", "d", "D", "E", "D_prime", "D_double_prime", "equality", "reason")
_TAIL = "".join(f',\n      "{k}": %s' for k in _FIELDS) + "\n    }"
_TAIL_COMPACT = "".join(f',"{k}":%s' for k in _FIELDS) + "}"
# the text of each form around a row's id and depth: before the first row's id,
# before each later row's id, between the id and the depth, and after the last row
_ROW = ('\n    {\n      "id": ', ',\n    {\n      "id": ', ',\n      "depth": ', "\n  ]\n}")
_ROW_COMPACT = ('{"id":', ',{"id":', ',"depth":', "]}")


class Report(SimpleNamespace):
    """Everything the analysis pipeline establishes about one instance; the
    annotations list the keywords :func:`analyze` builds it with."""

    label: str | None
    p: int | None                     # None in matrix mode
    num_roots: int
    genus: int
    nu_df: int
    artin: int                        # conductor from the cover graph
    n_components: int
    f_tilde: int
    equality_holds: bool
    x_minimal: bool
    ledgers: tuple[VertexLedger, ...]  # by vertex id of the cut tree
    tree: ClusterTree
    ygraph: YGraph
    xgraph: XGraph
    self_int: list[int]               # by component id of T_X
    warnings: tuple[str, ...] = ()
    nonminimal: tuple[int, ...] = ()  # vertices detect_nonminimal flags, in the cut tree
    # true on every report: _report raises when artin > nu_df, and when f_tilde < 0,
    # which is n_components > artin + 1
    inequality_holds = True
    component_bound_ok = True

    @property
    def artin_local_sum(self) -> int:
        """The conductor as a sum over tree vertices: ``artin``, which
        _check_conductor_decomposition compares it with on every report."""
        return self.artin

    @property
    def contractible(self) -> tuple[int, ...]:
        """Per-depth ids of the vertices whose component chain contracts."""
        if not self.nonminimal:
            return ()
        flagged = set(self.nonminimal)
        return tuple(fid for fid, vid, _ in self.tree.rows() if vid in flagged)

    def _header(self) -> dict:
        return {
            "label": self.label,
            "nu_df": self.nu_df,
            "artin_conductor": self.artin,
            "artin_local_sum": self.artin_local_sum,
            "n_components": self.n_components,
            "f_tilde": self.f_tilde,
            "inequality_holds": self.inequality_holds,
            "equality_holds": self.equality_holds,
            "x_minimal": self.x_minimal,
            "component_bound_ok": self.component_bound_ok,
            "warnings": list(self.warnings),
        }

    def to_json_dict(self) -> dict:
        verts, ledgers = self.tree.vertices, self.ledgers
        vertices = []
        for fid, vid, depth in self.tree.rows():
            v, led = verts[vid], ledgers[vid]
            vertices.append({
                "id": fid,
                "depth": depth,
                "wt": v.wt,
                "l_prime": v.l_prime,
                "r": v.r,
                "s": v.s,
                "l": v.l,
                "parity": v.parity,
                "d": led.d,
                "D": led.D,
                "E": led.E,
                "D_prime": led.D_prime,
                "D_double_prime": led.D_double_prime,
                "equality": led.equality,
                "reason": led.reason,
            })
        return {**self._header(), "vertices": vertices}

    def _json_cells(self):
        """The values of each cut-tree vertex's row after its depth, as JSON
        literals: ints, two ASCII tags and a bool."""
        return [
            (
                v.wt, v.l_prime, v.r, v.s, v.l, f'"{v.parity}"',
                led.d, led.D, led.E, led.D_prime, led.D_double_prime,
                "true" if led.equality else "false", f'"{led.reason}"',
            )
            for v, led in zip(self.tree.vertices, self.ledgers)
        ]

    def json_rows(self, compact: bool = False):
        """:meth:`to_json`, or with ``compact`` :meth:`to_json_line`, in
        pieces: the header, one row per vertex of the per-depth tree, and the
        close.  The header and every cut-tree vertex's tail are made before
        the first piece is yielded, so an error in them is raised before any
        text is written.  ``analyze --format json`` and ``batch`` write the
        pieces as they come, so neither holds a report's text whole."""
        if compact:
            head = json.dumps(self._header(), separators=(",", ":"))[:-1] + ',"vertices":['  # less its "}"
            tail, (lead, sep, mid, close) = _TAIL_COMPACT, _ROW_COMPACT
        else:
            head = json.dumps(self._header(), indent=2)[:-2] + ',\n  "vertices": ['  # less its "\n}"
            tail, (lead, sep, mid, close) = _TAIL, _ROW
        tails = [tail % cells for cells in self._json_cells()]
        yield head
        for fid, vid, depth in self.tree.rows():
            yield f"{lead}{fid}{mid}{depth}{tails[vid]}"
            lead = sep
        yield close

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, byte for byte:
        :meth:`json_rows`, joined.

        json's indented form runs its pure-Python encoder, so only the header
        goes through json.  Each cut-tree vertex's row after ``"depth"`` is
        formatted once per report, from a template, as its tail; each row of
        the per-depth tree is then its id, its depth and its vertex's tail, so
        the copies along a cut chain cost two integers each."""
        return "".join(self.json_rows())

    def to_json_line(self) -> str:
        """``json.dumps(self.to_json_dict(), separators=(",", ":"))``, byte for
        byte: :meth:`json_rows` in compact form, joined."""
        return "".join(self.json_rows(compact=True))


def _check_shift_identities(tree: ClusterTree, ledgers) -> None:
    """The three cancellation identities behind sum(E) = 0.  Each sums one
    term per vertex: in the first two, the terms at odd vertices cancel those
    at even vertices; in the third, each odd vertex under an odd parent is
    counted once from the parent (its ``s``) and once from itself, so
    agreement is informative."""
    verts = tree.vertices
    odd = [v.f_val % 2 == 1 for v in verts]
    odd_child_shift = [sum(2 - verts[c].wt * (verts[c].wt - 1) for c in v.children if odd[c]) for v in verts]
    for terms, what in (
        ([2 - v.wt * (v.wt - 1) - k if o else -k for v, o, k in zip(verts, odd, odd_child_shift)], "odd/even weight"),
        ([v.r if o else -(v.l % 2) for v, o in zip(verts, odd)], "parent-parity"),
        ([v.s - v.parent_odd if o else 0 for v, o in zip(verts, odd)], "odd-parent count"),
    ):
        if per_depth_total(terms, tree.repeats) != 0:
            raise InternalInvariantViolation(f"{what} rebalancing does not cancel")
    if per_depth_total([led.E for led in ledgers], tree.repeats) != 0:
        raise InternalInvariantViolation("shift terms E do not sum to zero")


def _check_bound_bijection(tree: ClusterTree, ledgers) -> int:
    """Checks the moves from D' to D'' and returns the sum of D''."""
    odd_wt2_leaves = per_depth_total([v.wt == 2 and v.is_leaf and v.odd for v in tree], tree.repeats)
    chain_heads = per_depth_total([led.L_count for led in ledgers], tree.repeats)
    if odd_wt2_leaves != chain_heads:
        raise InternalInvariantViolation(
            f"odd weight-2 leaves ({odd_wt2_leaves}) != weight-2 chain heads ({chain_heads})"
        )
    bound_sum = per_depth_total([led.D_double_prime for led in ledgers], tree.repeats)
    if bound_sum != per_depth_total([led.D_prime for led in ledgers], tree.repeats):
        raise InternalInvariantViolation("sum of D'' differs from sum of D'")
    return bound_sum


def _check_conductor_decomposition(tree: ClusterTree, x: XGraph, ledgers, artin: int) -> None:
    """Split artin_conductor's sum by tree vertex and compare each share with D,
    and the sum of D over the per-depth tree with ``artin``."""
    comps, yverts, yparent = x.components, x.ygraph.vertices, x.ygraph.parent
    by_vertex = [0] * len(tree)
    for c in comps:
        by_vertex[yverts[c.over].origin[0]] += (1 - c.m) * c.chi
    for (a, b), w in x.edges.items():  # the upper end lies over the lower end's T_Y parent
        up, lo = comps[a], comps[b]
        if yparent.get(up.over) == lo.over:
            up, lo = lo, up
        by_vertex[yverts[up.over].origin[0]] += lo.m * w
        by_vertex[yverts[lo.over].origin[0]] += (up.m - 1) * w
    for vid, led in enumerate(ledgers):
        if by_vertex[vid] != led.D:
            raise InternalInvariantViolation(
                f"component terms over the vertex sum to {by_vertex[vid]}, formula gives {led.D}", vertex=vid
            )
    if per_depth_total([led.D for led in ledgers], tree.repeats) != artin:
        raise InternalInvariantViolation("local conductor terms do not sum to the graph conductor")


def analyze(source: Instance | ValuationMatrix, *, allow_small: bool = False, label: str | None = None) -> Report:
    """Run the full pipeline and return a fully cross-checked report.

    Accepts either a split-roots instance or a bare ultrametric valuation
    matrix.  Each reader checks its own input, once:
    :func:`~condisc.valuation.residues` the instance's prime, integrality and
    distinctness; :func:`~condisc.cluster.build_cluster_tree` the matrix's
    shape, then the root count and the ultrametric rule while the tree is
    built.  Raises :class:`InstanceError` for bad input and
    :class:`InternalInvariantViolation` (or a subclass) if any proved
    identity fails, which would mean a bug in this package.

    It runs on the tree with long chains cut; :func:`~condisc.harness.per_depth_oracle`
    runs it on the shift-and-divide oracle's per-depth tree, for comparison.
    """
    if isinstance(source, Instance):
        pairs = residues(source)
        p: int | None = source.p
        label = label if label is not None else source.label
    else:
        pairs, p = source, None
    return _report(build_cluster_tree(pairs, allow_small=allow_small), p, label)


def _report(tree: ClusterTree, p: int | None, label: str | None) -> Report:
    """Check a refinement tree whose ``nu_df`` is set, build T_Y and T_X on it,
    certify the inequality vertex by vertex and collect the report."""
    n = tree.num_roots
    genus = (n - 2) // 2
    warnings = (f"{n} roots: genus {genus} < 2 is out of scope for the underlying theory",) if n < 6 else ()
    check_tree_invariants(tree)

    nu_df = tree.nu_df
    y = build_ty(tree)
    x = build_tx(y)
    artin = artin_conductor(x)
    selfint = self_intersections(x)
    genus_check(x, selfint)

    # second route to the conductor: 2g - 2 plus chi of the special fiber
    chi_special = per_depth_total([c.chi for c in x.components], x.repeats) - x.total_edge_weight()
    if artin != (2 * genus - 2) + chi_special:
        raise InternalInvariantViolation("conductor disagrees with the Euler-characteristic route")

    ledgers = tuple(compare_vertex(tree, vid) for vid in range(len(tree)))
    if per_depth_total([led.d for led in ledgers], tree.repeats) != nu_df:
        raise InternalInvariantViolation("local discriminant shares do not sum to nu(d_f)")
    _check_conductor_decomposition(tree, x, ledgers, artin)
    _check_shift_identities(tree, ledgers)
    bound_sum = _check_bound_bijection(tree, ledgers)

    if bound_sum > nu_df:
        raise InequalityViolated(f"sum of D'' = {bound_sum} exceeds nu(d_f) = {nu_df}")
    if artin > nu_df:
        raise InequalityViolated(f"conductor {artin} exceeds discriminant {nu_df}")

    nonminimal = tuple(detect_nonminimal(tree))
    equality = artin == nu_df
    ledger_equality = all(led.equality for led in ledgers)
    if equality != ledger_equality:
        raise InternalInvariantViolation("global equality disagrees with the per-vertex ledger")
    if equality and nonminimal:
        raise InternalInvariantViolation("equality with a contractible component present")

    n_x = x.n_components
    f_tilde = artin - n_x + 1
    if f_tilde < 0:  # the same inequality as n_x <= artin + 1
        raise InternalInvariantViolation(f"negative representation conductor {f_tilde}")

    return Report(
        label=label,
        p=p,
        num_roots=n,
        genus=genus,
        nu_df=nu_df,
        artin=artin,
        n_components=n_x,
        f_tilde=f_tilde,
        equality_holds=equality,
        x_minimal=not nonminimal,
        ledgers=ledgers,
        tree=tree,
        ygraph=y,
        xgraph=x,
        self_int=selfint,
        warnings=warnings,
        nonminimal=nonminimal,
    )
