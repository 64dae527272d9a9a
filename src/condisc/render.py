"""Human-readable text reports and DOT exports of the three graphs.

All output is deterministic for a fixed input: vertex ids are stable, maps
are iterated in id order, and weight-2 intersections are drawn as two
parallel edges.
"""

from __future__ import annotations

from .conductor import Report
from .dualgraph import INSERT, LEAF, XGraph, YGraph


def render_text(report: Report) -> str:
    lines = []
    head = report.label or "instance"
    if report.p is not None:
        head += f"  (p = {report.p}, {report.num_roots} roots, genus {report.genus})"
    else:
        head += f"  (matrix mode, {report.num_roots} roots, genus {report.genus})"
    lines.append(head)
    lines.append(f"equation discriminant nu(d_f) = {report.nu_df}"
                 "   (= nu(Delta) iff the input equation is minimal)")
    lines.append(f"conductor -Art(X/S)            = {report.artin}   (graph route)")
    lines.append(f"conductor, summed over tree    = {report.artin_local_sum}")
    lines.append(f"components n(X) = {report.n_components}   f~ = {report.f_tilde}")
    verdict = "HOLDS with equality" if report.equality_holds else "HOLDS strictly"
    lines.append(f"inequality -Art(X/S) <= nu(d_f): {verdict}")
    lines.append(f"X minimal: {'yes' if report.x_minimal else 'no'}")
    contractible = report.contractible  # a scan of the per-depth tree
    if contractible:
        lines.append(f"contractible chain vertices: {list(contractible)}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    lines.append("")
    lines.append("tree (wt, parity, d, D'', =?):")

    tail = []  # each row after its id, once per vertex of the cut tree
    for v, row in zip(report.tree, report.ledgers):
        eq = "=" if row.equality else f"<  (defect {row.d - row.D_double_prime})"
        tail.append(f"  wt={v.wt}  {v.parity:4}  d={row.d}  D''={row.D_double_prime}  {eq}")
    # the per-depth tree, in preorder; an explicit stack, since chains can be deeper than the recursion limit
    exp = report.tree.expansion
    stack = [0]
    while stack:
        fid = stack.pop()
        lines.append(f"{'  ' * (exp.depth[fid] + 1)}v{fid}{tail[exp.rep[fid]]}")
        stack.extend(reversed(exp.children[fid]))
    return "\n".join(lines) + "\n"


def dot_tree(report: Report) -> str:
    """T_B as DOT: the per-depth tree, vertices and then edges by id."""
    exp, verts = report.tree.expansion, report.tree.vertices
    lines = ["graph t_b {"]
    for fid, vid in enumerate(exp.rep):
        v = verts[vid]
        lines.append(f'  v{fid} [label="wt={v.wt}/{v.parity}"];')
    for fid, kids in enumerate(exp.children):
        for c in kids:
            lines.append(f"  v{fid} -- v{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _y_label(y: YGraph, vid: int) -> str:
    v = y.vertices[vid]
    if v.kind == INSERT:
        core = f"insert({v.origin[0]},{v.origin[1]})"
    elif v.kind == LEAF:
        core = f"leaf({v.origin[0]}:r{v.origin[1]})"
    else:
        core = f"v{v.origin[0]}"
    tag = f"/{'odd' if v.odd else 'even'}"
    roots = f" +{len(v.attached_roots)}r" if v.attached_roots else ""
    return core + tag + roots


def dot_cover(y: YGraph) -> str:
    lines = ["graph t_y {"]
    for v in y.vertices:
        lines.append(f'  y{v.id} [label="{_y_label(y, v.id)}"];')
    for pid in sorted(y.children):
        for c in y.children[pid]:
            lines.append(f"  y{pid} -- y{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_model(x: XGraph) -> str:
    lines = ["graph t_x {"]
    for c in x.components:
        lines.append(f'  x{c.id} [label="m={c.m}, χ={c.chi}"];')
    for (a, b), w in sorted(x.edges.items()):
        for _ in range(w):
            lines.append(f"  x{a} -- x{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
