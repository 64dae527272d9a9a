import functools
import json
from pathlib import Path

import pytest

from condisc import Instance
from condisc.harness import member_sets

# Canonical instances used across the suite.  Expected values for these were
# derived independently (big-integer discriminant products, residue
# refinement by hand, rule-by-rule graph evaluation) before being frozen.
FIXTURE_A = dict(p=3, roots=(0, 1, 2, 3, 4, 5), label="fixtureA")
FIXTURE_B = dict(p=5, roots=(0, 5, 10, 1, 2, 3), label="fixtureB")
FIXTURE_C = dict(p=5, roots=(0, 25, 1, 2, 3, 4), label="fixtureC")
GOOD_RED = dict(p=7, roots=(0, 1, 2, 3, 4, 5), label="good")
ODD_CHAIN = dict(p=5, roots=(0, 25, 5, 1, 2, 3), label="oddchain")    # odd-odd edge
WEIGHT2 = dict(p=5, roots=(0, 25, 5, 10, 1, 2), label="w2edge")       # weight-2 intersections
NON_MINIMAL = dict(p=5, roots=(0, 25, 50, 1, 2, 3), label="nonmin")   # contractible pattern
DEEP_PAIR = dict(p=5, roots=(0, 125, 1, 2, 3, 4), label="deep")       # length-3 chain


def cluster_rows(n, clusters):
    """Matrix whose entry (i, j) is the deepest floor of a cluster holding both, else 0;
    nested clusters with deeper floors give an ultrametric."""
    rows = [[None if i == j else 0 for j in range(n)] for i in range(n)]
    for members, floor in clusters:
        for i in members:
            for j in members:
                if i != j:
                    rows[i][j] = max(rows[i][j], floor)
    return rows


def chain_cases(length):
    """(name, rows) with a chain of `length` vertices: at the root, under an even
    parent (the root) and under an odd parent (weight 7 at depth 1), of even and
    odd weight, and one between two more chains.  The last three put per-depth
    vertices of different columns at the same depths: beside a chain of
    `length + 9` vertices that starts a step higher, beside a bushy subtree, and
    above a second cut chain."""
    yield "root", cluster_rows(6, [(range(6), length - 1), ((0, 1), length + 1)])
    for w in (2, 3, 4, 5):
        yield f"even-parent-w{w}", cluster_rows(6, [(range(w), length)])
    for w in (2, 3, 4, 5, 6):
        yield f"odd-parent-w{w}", cluster_rows(8, [(range(7), 1), (range(w), 1 + length)])
    yield "nested", cluster_rows(8, [(range(6), length), (range(5), length + 9), ((0, 1), 2 * length + 9)])
    yield "siblings", cluster_rows(8, [(range(4), 1), ((0, 1), 1 + length), ((4, 5, 6), length + 9)])
    bushy = [(range(8), 1), (range(4), 2), (range(4, 8), 2), ((0, 1), 3), ((2, 3), 5), ((4, 5), 4), ((6, 7), 6)]
    yield "bushy", cluster_rows(10, [*bushy, ((8, 9), length)])
    yield "pair-under-pair", cluster_rows(8, [(range(6), length), (range(4), 2 * length)])


def first_copy_mismatches(tree, oracle):
    """Ids of the vertices of `tree` whose (depth, f_val, wt, r, sep_roots) differ
    from those of their first copy: the vertex of the per-depth tree `oracle` at
    their depth with their smallest member."""
    def stats(v):
        return v.depth, v.f_val, v.wt, v.r, v.sep_roots

    at = {(u.depth, min(s)): stats(u) for u, s in zip(oracle, member_sets(oracle))}
    return [vid for vid, (v, s) in enumerate(zip(tree, member_sets(tree))) if at.get((v.depth, min(s))) != stats(v)]


def nu_mismatches(tree, rows):
    """Ids of the vertices of `tree` whose f_val is not nu of their disc D(b, depth),
    read from the valuation rows: with S the vertex's roots, depth for each root
    of S, and each other root's valuation to a root of S."""
    return [
        vid for vid, (v, s) in enumerate(zip(tree, member_sets(tree)))
        if v.f_val != len(s) * v.depth + sum(rows[r][min(s)] for r in range(len(rows)) if r not in s)
    ]


@functools.cache
def tree_shapes(n, gaps):
    """Every refinement-tree shape of a cluster of `n` roots, once up to
    isomorphism, as `(gap, children)`: the cluster stays whole for `gap` steps
    below its depth (a chain of `gap + 1` vertices) and splits at its floor
    into two or more classes; `children` holds the `(size, shape)` of its
    classes of two or more roots, in one fixed order, and its other roots
    separate there.  `gaps` is a tuple."""
    return tuple((gap, kids) for gap in gaps for kids in _child_multisets(n, gaps))  # cached: shared, so immutable


def _child_multisets(n, gaps):
    """Each multiset of `(size, shape)` whose sizes sum to at most `n`, with at
    least two classes once the roots left over count as one class each, once,
    as a tuple in the order of `kinds`."""
    kinds = [(size, shape) for size in range(2, n) for shape in tree_shapes(size, gaps)]
    out = []

    def extend(start, left, picked):
        if len(picked) + left >= 2:
            out.append(tuple(picked))
        for k in range(start, len(kinds)):
            if kinds[k][0] <= left:
                extend(k, left - kinds[k][0], picked + [kinds[k]])

    extend(0, n, [])
    return out


def realize_shape(shape, n, p):
    """Valuation rows and integer roots with the tree `shape`: within a
    cluster at depth d, the classes of its split get roots consecutively and
    each class its own digit times p**(d + gap), so no split may have more
    than p classes."""
    rows = [[None if i == j else 0 for j in range(n)] for i in range(n)]
    roots = [0] * n
    stack = [(shape, 0, range(n))]
    while stack:
        (gap, kids), depth, members = stack.pop()
        floor = depth + gap
        classes, start = [], members.start
        for size, kid in kids:
            classes.append(range(start, start + size))
            stack.append((kid, floor + 1, classes[-1]))
            start += size
        classes += [range(i, i + 1) for i in range(start, members.stop)]
        for digit, cls in enumerate(classes):
            for i in cls:
                roots[i] += digit * p**floor
                for j in members:
                    if j != i:
                        rows[i][j] = max(rows[i][j], floor)
    return rows, roots


def make(fx) -> Instance:
    return Instance.from_values(fx["p"], fx["roots"], label=fx["label"])


@pytest.fixture
def fixture_a():
    return make(FIXTURE_A)


@pytest.fixture
def fixture_b():
    return make(FIXTURE_B)


@pytest.fixture
def fixture_c():
    return make(FIXTURE_C)


@pytest.fixture
def good_reduction():
    return make(GOOD_RED)


def write_instance(path: Path, fx) -> Path:
    payload = {"mode": "roots", "p": fx["p"], "roots": [str(r) for r in fx["roots"]]}
    if fx.get("label"):
        payload["label"] = fx["label"]
    path.write_text(json.dumps(payload))
    return path
