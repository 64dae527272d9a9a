"""Human-readable text reports and DOT exports of the three graphs.

All output is deterministic for a fixed input: vertex ids are stable, maps
are iterated in id order, and weight-2 intersections are drawn as two
parallel edges.
"""

from __future__ import annotations

from itertools import chain, count, cycle, repeat
from pathlib import Path

from .cluster import ClusterTree
from .conductor import Report
from .dualgraph import INSERT, LEAF, XGraph, YGraph, build_tx, build_ty


_SHORT_PADS = tuple(" " * i for i in range(256))


def text_rows(report: Report):
    """:func:`render_text` in pieces: the header lines, then one row per vertex
    of the per-depth tree, in preorder, each ending in a newline.  A row indented
    by 256 spaces or more comes in several pieces: its indent's whole 32 KiB
    blocks and then its whole 256-space steps are strings that every row shares,
    and only the last part, under 256 spaces, is copied into the row's own
    string, so joining the pieces copies each space once."""
    tree, contractible = report.tree, report.contractible
    # each row after its id, once per vertex of the cut tree
    tails = [
        f"  wt={v.wt}  {v.parity:4}  d={led.d}  D''={led.D_double_prime}  "
        f"{'=' if led.equality else f'<  (defect {led.d - led.D_double_prime})'}\n"
        for v, led in zip(tree.vertices, report.ledgers)
    ]
    # no piece reaches glibc's 128 KiB mmap threshold, past which malloc maps and unmaps
    # it on every row; steps[k] is 256 * k spaces, made the first time a row needs it
    block = 2**15
    pad = " " * block
    steps = {}

    head = report.label or "instance"
    if report.p is not None:
        head += f"  (p = {report.p}, {report.num_roots} roots, genus {report.genus})"
    else:
        head += f"  (matrix mode, {report.num_roots} roots, genus {report.genus})"
    verdict = "HOLDS with equality" if report.equality_holds else "HOLDS strictly"
    yield (
        f"{head}\n"
        f"equation discriminant nu(d_f) = {report.nu_df}   (= nu(Delta) iff the input equation is minimal)\n"
        f"conductor -Art(X/S)            = {report.artin}   (graph route)\n"
        f"conductor, summed over tree    = {report.artin_local_sum}\n"
        f"components n(X) = {report.n_components}   f~ = {report.f_tilde}\n"
        f"inequality -Art(X/S) <= nu(d_f): {verdict}\n"
        f"X minimal: {'yes' if report.x_minimal else 'no'}\n"
    )
    if contractible:
        yield f"contractible chain vertices: {list(contractible)}\n"
    for w in report.warnings:
        yield f"warning: {w}\n"
    yield "\ntree (wt, parity, d, D'', =?):\n"
    for ranges, depth, vids in tree.per_depth_runs():  # a row's indent is 2 * depth + 2, one step deeper per row
        ids = chain.from_iterable(ranges)
        for fid, indent, tail in zip(ids, count(2 * depth + 2, 2), cycle([tails[vid] for vid in vids])):
            if indent >= 256:
                if indent >= block:
                    yield from repeat(pad, indent // block)
                k = (indent % block) >> 8
                if k:
                    step = steps.get(k)
                    if step is None:
                        step = steps[k] = pad[: k << 8]
                    yield step
            yield f"{_SHORT_PADS[indent & 255]}v{fid}{tail}"


def render_text(report: Report) -> str:
    return "".join(text_rows(report))


def dot_tree(tree: ClusterTree) -> str:
    """T_B as DOT: the per-depth tree, vertices and then edges by id."""
    full = tree.expand()
    lines = ["graph t_b {"]
    lines += [f'  v{fid} [label="wt={v.wt}/{v.parity}"];' for fid, v in enumerate(full)]
    lines += [f"  v{fid} -- v{c};" for fid, v in enumerate(full) for c in v.children]
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
    for vid in range(len(y.vertices)):
        lines.append(f'  y{vid} [label="{_y_label(y, vid)}"];')
    # a stable sort by parent keeps each parent's children in build order, so
    # an inserted vertex (a large id) still comes before a smaller sibling
    for c, pid in sorted(y.parent.items(), key=lambda edge: edge[1]):
        lines.append(f"  y{pid} -- y{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_model(x: XGraph) -> str:
    lines = ["graph t_x {"]
    for cid, c in enumerate(x.components):
        lines.append(f'  x{cid} [label="m={c.m}, χ={c.chi}"];')
    for (a, b), w in sorted(x.edges.items()):
        for _ in range(w):
            lines.append(f"  x{a} -- x{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(report: Report, directory) -> None:
    """Write ``t_b.dot``, ``t_y.dot`` and ``t_x.dot`` into ``directory``, made if
    missing, in UTF-8 whatever the locale (T_X's labels hold a χ).  T_Y and T_X
    are built again, with their checks, on the per-depth tree
    (``report.tree.expand()``) before the directory is made, so a failed build
    leaves none; each file is formatted as it is written."""
    y = build_ty(report.tree.expand())
    x = build_tx(y)
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for name, dot, graph in (("t_b", dot_tree, y.tree), ("t_y", dot_cover, y), ("t_x", dot_model, x)):
        (out / f"{name}.dot").write_text(dot(graph), encoding="utf-8")
