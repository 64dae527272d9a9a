"""Instance generation and independent brute-force oracles.

The oracles deliberately take different algorithmic routes from the main
pipeline so that agreement is evidence rather than tautology:

* :func:`disc_oracle` multiplies out the full product of root differences as
  one big integer and divides by p repeatedly, instead of summing pairwise
  valuations.
* :func:`naive_tree_oracle` builds the refinement tree by the
  shift-and-divide route (partition one depth at a time on a decremented
  submatrix) instead of global depth slicing with chain jumps;
  it returns the per-depth tree, and :func:`trees_agree` compares a tree,
  expanded, with it position by position (a position is a vertex's id),
  every field of every vertex.
* :func:`per_depth_oracle` runs the pipeline on that per-depth tree, where
  :func:`~condisc.conductor.analyze` runs it on the tree it grows with long
  chains cut and weights its totals by ``repeat``; they share no growth code.
* :func:`local_disc` and :func:`local_shift` evaluate the per-vertex terms
  ``d`` and ``E`` each by its own scan of the vertex's children, where
  :func:`~condisc.conductor.compare_vertex` reads them from one shared scan.

:func:`gen_instance` realizes a randomly sampled nesting shape with actual
integers: roots inside a cluster at depth d share everything up to p**d and
get distinct residues at p**(d+1) when they separate, so the resulting tree
is the sampled shape by construction and collisions are impossible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .cluster import ClusterTree, ClusterVertex, equation_discriminant
from .conductor import Report, _report, _shift, analyze
from .errors import InternalInvariantViolation
from .valuation import INFINITY, Instance, ValuationMatrix, build_matrix

GEN_PRIMES = (3, 5, 7, 11, 13)


class GenSpec(NamedTuple):
    """Deterministic recipe for one random instance."""

    seed: int
    p: int = 3
    genus: int = 2
    max_depth: int = 3
    chain_prob: float = 0.2

    def rng(self) -> random.Random:
        return random.Random(f"{self.seed}:{self.p}:{self.genus}:{self.max_depth}:{self.chain_prob}")


def _random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split `total` into `parts` positive summands, uniformly over cut points."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    edges = [0] + cuts + [total]
    return [edges[i + 1] - edges[i] for i in range(parts)]


def _realize(rng: random.Random, n: int, depth: int, max_depth: int, chain_prob: float, p: int) -> list[int]:
    """Integers whose pairwise valuations realize a random nesting of n >= 2 roots."""
    if depth >= max_depth:
        parts = min(p, n)
    elif rng.random() < chain_prob:
        parts = 1
    else:
        parts = rng.randint(2, min(p, n))
    sizes = _random_composition(rng, n, parts)
    residues = rng.sample(range(p), parts)
    out: list[int] = []
    for size, res in zip(sizes, residues):
        if size == 1:
            out.append(res)
        else:
            out.extend(res + p * t for t in _realize(rng, size, depth + 1, max_depth, chain_prob, p))
    return out


def gen_instance(spec: GenSpec) -> Instance:
    rng = spec.rng()
    n = 2 * spec.genus + 2
    values = _realize(rng, n, 0, spec.max_depth, spec.chain_prob, spec.p)
    # dress the roots up with a unit scale and a shift; the matrix is unchanged
    unit = rng.randrange(1, 50 * spec.p)
    while unit % spec.p == 0:
        unit += 1
    shift = rng.randrange(-1000, 1000)
    roots = [unit * v + shift for v in values]
    if len(set(roots)) != n:
        raise InternalInvariantViolation("generator produced colliding roots")
    return Instance.from_values(spec.p, roots, label=f"gen-{spec.seed}-p{spec.p}-g{spec.genus}")


# ---------------------------------------------------------------------------
# oracles


def local_disc(v: ClusterVertex, tree: ClusterTree) -> int:
    """Per-vertex share of the equation discriminant: sum of wt(wt-1) over children."""
    return sum(tree[c].wt * (tree[c].wt - 1) for c in v.children)


def local_shift(v: ClusterVertex, tree: ClusterTree) -> int:
    """Rebalancing term E; sums to zero over the whole tree."""
    odd_child_shift = sum(2 - tree[c].wt * (tree[c].wt - 1) for c in v.children if tree[c].odd)
    return _shift(v, odd_child_shift)


def disc_oracle(inst: Instance) -> int:
    """Valuation of the squared product of root differences, by brute force."""
    prod = Fraction(1)
    n = inst.num_roots
    for i in range(n):
        for j in range(i + 1, n):
            prod *= inst.roots[i] - inst.roots[j]
    prod *= prod
    num, den = prod.numerator, prod.denominator
    v = 0
    while num % inst.p == 0:
        num //= inst.p
        v += 1
    while den % inst.p == 0:
        den //= inst.p
        v -= 1
    return v


def naive_tree_oracle(m: ValuationMatrix) -> ClusterTree:
    """Refinement tree by shift-and-divide, as the per-depth tree (``nu_df`` unset),
    ordered as :func:`~condisc.cluster.build_cluster_tree` orders one: positions (the
    ids) by depth, then by smallest member, children and separating roots ascending,
    repeat 1.

    Each step partitions one vertex's indices under "local valuation >= 1" on
    its submatrix, then hands every class of two or more a copy of its block
    with the finite entries decremented.  An explicit stack holds the blocks
    not yet partitioned, so depth is not limited by the recursion limit.
    Indices and classes stay ascending, so a block's first index is its
    smallest member, and a vertex is keyed by its depth and that member.
    """
    recs: list[tuple] = []  # (depth, smallest member, wt, r, f_val, separating roots, parent's key)
    # (indices, submatrix, depth, parent's key, parent's f_val)
    stack: list[tuple] = [(tuple(range(m.n)), [list(row) for row in m.entries], 0, None, 0)]
    while stack:
        indices, sub, depth, parent, parent_f = stack.pop()
        # one refinement step: classes under "local valuation >= 1"
        classes: list[list[int]] = []
        for pos, idx in enumerate(indices):
            for cls in classes:
                ref = indices.index(cls[0])
                e = sub[pos][ref]
                if e is INFINITY or e >= 1:
                    cls.append(idx)
                    break
            else:
                classes.append([idx])
        kids = [cls for cls in classes if len(cls) >= 2]
        wt = len(indices)
        f_val = 0 if parent is None else parent_f + wt
        singles = tuple(cls[0] for cls in classes if len(cls) == 1)
        recs.append((depth, indices[0], wt, sum(len(k) % 2 for k in kids), f_val, singles, parent))
        for cls in kids:
            pos_of = [indices.index(i) for i in cls]
            shifted = [
                [sub[a][b] if sub[a][b] is INFINITY else sub[a][b] - 1 for b in pos_of]
                for a in pos_of
            ]
            stack.append((tuple(cls), shifted, depth + 1, (depth, indices[0]), f_val))
    recs.sort()  # by (depth, smallest member), unique: one depth's blocks are disjoint
    ids = {rec[:2]: k for k, rec in enumerate(recs)}
    children: list[list[int]] = [[] for _ in recs]
    for k, rec in enumerate(recs):
        if rec[6] is not None:
            children[ids[rec[6]]].append(k)  # ascending, as k is
    return ClusterTree(
        tuple(ClusterVertex(rec[0], tuple(children[k]), *rec[2:6]) for k, rec in enumerate(recs)),
        num_roots=m.n,
    )


def member_sets(tree: ClusterTree) -> list[frozenset[int]]:
    """Each vertex's roots, by id: its separating roots and its children's
    roots.  A child's id exceeds its parent's, so one reverse pass builds them."""
    sets: list[frozenset[int]] = [frozenset()] * len(tree)
    for vid, v in zip(reversed(range(len(tree))), reversed(tree.vertices)):
        sets[vid] = frozenset(v.sep_roots).union(*[sets[c] for c in v.children])
    return sets


def per_depth_oracle(m: ValuationMatrix, *, label: str | None = None) -> Report:
    """The report of the pipeline run on :func:`naive_tree_oracle`'s per-depth tree, for a valid
    matrix; its output, totals and headline fields must equal :func:`~condisc.conductor.analyze`'s."""
    tree = naive_tree_oracle(m)
    tree.nu_df = equation_discriminant(m)
    return _report(tree, None, label)


def trees_agree(tree: ClusterTree, oracle: ClusterTree) -> bool:
    """Whether ``tree``, expanded to the per-depth tree, is the oracle's, vertex for vertex."""
    return tree.expand() == oracle


def mutate_entry(m: ValuationMatrix, i: int, j: int, delta: int = 1) -> ValuationMatrix:
    """Bump one symmetric pair of entries; used to probe the validator."""
    rows = [list(row) for row in m.entries]
    rows[i][j] += delta
    rows[j][i] += delta
    return ValuationMatrix(tuple(tuple(row) for row in rows))


def default_specs(count: int, *, base_seed: int = 0) -> list[GenSpec]:
    """A deterministic spread of generator recipes across primes and genera."""
    specs = []
    for k in range(count):
        p = GEN_PRIMES[k % len(GEN_PRIMES)]
        genus = 2 + (k // len(GEN_PRIMES)) % 5
        max_depth = 1 + k % 4
        chain_prob = (k % 3) * 0.15
        specs.append(GenSpec(seed=base_seed + k, p=p, genus=genus, max_depth=max_depth, chain_prob=chain_prob))
    return specs


def run_trial(spec: GenSpec) -> Report:
    """Generate one instance, analyze it, and cross-check every oracle."""
    inst = gen_instance(spec)
    report = analyze(inst)
    if disc_oracle(inst) != report.nu_df:
        raise InternalInvariantViolation(f"discriminant oracle disagrees ({spec})")
    if not trees_agree(report.tree, naive_tree_oracle(build_matrix(inst))):
        raise InternalInvariantViolation(f"tree oracle disagrees ({spec})")
    return report
