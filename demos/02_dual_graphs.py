"""
The three graphs behind one number
==================================

The conductor is read off a weighted dual graph built in three stages:

  refinement tree  ->  branch-separated cover graph  ->  double-cover graph

This script walks a single instance through the stages and writes DOT files
you can render with graphviz (`dot -Tpng t_x.dot -o t_x.png`).
"""

from pathlib import Path

from condisc import (
    Instance,
    analyze,
    build_cluster_tree,
    build_matrix,
    build_tx,
    build_ty,
    write_dot,
)
from condisc.harness import member_sets

# Three roots share a residue mod 5, and two of those agree mod 25 as well:
# the refinement tree has an odd vertex with an odd child, which forces an
# inserted vertex and a multiplicity-2 chain in the model.
inst = Instance.from_values(p=5, roots=[0, 25, 5, 1, 2, 3], label="odd chain")

matrix = build_matrix(inst)
tree = build_cluster_tree(matrix)
print("refinement tree:")
members = member_sets(tree)  # each vertex's roots, rebuilt from its separating roots
for index, v in enumerate(tree):  # a tree vertex, too, is known by its index
    print(f"  v{index}: depth {v.depth}, roots {sorted(members[index])}, wt={v.wt}, "
          f"{v.parity}, separates {list(v.sep_roots)}")

y = build_ty(tree)
print("\ncover graph adds", sum(1 for v in y.vertices if v.kind != "strict"), "vertices:")
for index, v in enumerate(y.vertices):  # a cover vertex is known by its index
    if v.kind != "strict":
        print(f"  y{index}: {v.kind} over {v.origin}, attached roots {list(v.attached_roots)}")

x = build_tx(y)
print("\nmodel components:")
for index, c in enumerate(x.components):  # and a component by its index
    print(f"  x{index}: over y{c.over}, multiplicity {c.m}, chi {c.chi}")
print("intersections:", {e: w for e, w in sorted(x.edges.items())})

# One call does all of the above plus every cross-check, and one more writes
# the three graphs as DOT files (UTF-8, built again on the per-depth tree):
report = analyze(inst)
outdir = Path(__file__).parent / "dot_out"
write_dot(report, outdir)
print(f"\nDOT files written to {outdir}/")
print("conductor by both routes:", report.artin, "=", report.artin_local_sum)
