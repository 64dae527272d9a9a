"""Seeded instance generators for the benchmark workloads.

This is the benchmark's own code: the program under test only ever sees the
instance dicts (and files) built here.  Matrix-mode twins are computed by
:func:`valuation_rows`, an integer route that shares nothing with
``condisc.valuation.build_matrix``, so agreement between a roots-mode
instance and its twin is evidence rather than a tautology.

A *shape* is a list of children of one split; each child is ``None`` (a
single root) or a pair ``(chain, subshape)``: a cluster that persists for
``chain`` further depth steps before it splits as ``subshape``.  A split has
at most ``p`` children, because siblings need distinct residues mod ``p``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

MIX_PRIMES = (3, 5, 7, 11, 13)
COMPOSITES = (9, 15, 21, 25, 27, 33, 35, 49)
INVALID_KINDS = ("duplicate", "composite_p", "p2", "non_integral", "non_ultrametric", "ragged")
WIDE_GENERA = (25, 50, 75, 100)
DEEP_DEPTHS = tuple(round(50 * 40 ** (i / 8)) for i in range(9))  # log-uniform, 50 .. 2000


def realize(rng: random.Random, p: int, shape) -> list[int]:
    """Integers whose pairwise p-adic valuations realize `shape` (split at valuation 0)."""
    out: list[int] = []
    for res, child in zip(rng.sample(range(p), len(shape)), shape):
        if child is None:
            out.append(res)
        else:
            chain, sub = child
            scale = p ** (chain + 1)
            out.extend(res + scale * x for x in realize(rng, p, sub))
    return out


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0, *cuts, total]
    return [edges[i + 1] - edges[i] for i in range(parts)]


def random_shape(rng: random.Random, n: int, p: int, max_depth: int, chain_prob: float, depth: int = 0):
    """A random nesting of n >= 2 roots; below max_depth every split is as wide as p allows."""
    parts = min(p, n) if depth >= max_depth else rng.randint(2, min(p, n))
    shape = []
    for size in _composition(rng, n, parts):
        if size == 1:
            shape.append(None)
            continue
        chain = 0
        while rng.random() < chain_prob:
            chain += 1
        shape.append((chain, random_shape(rng, size, p, max_depth, chain_prob, depth + 1 + chain)))
    return shape


def _unit(rng: random.Random, p: int, top: int) -> int:
    u = rng.randrange(1, top)
    while u % p == 0:
        u += 1
    return u


def roots_instance(rng: random.Random, p: int, shape, label: str, *, fractional: bool = False) -> dict:
    """A roots-mode instance dict realizing `shape`, dressed with a unit scale,
    a shift, a shuffle and (optionally) a common p-unit denominator."""
    values = realize(rng, p, shape)
    unit = _unit(rng, p, 50 * p)
    shift = rng.randrange(-1000, 1000)
    nums = [unit * v + shift for v in values]
    rng.shuffle(nums)
    den = _unit(rng, p, 40) if fractional else 1
    roots = [str(Fraction(a, den)) for a in nums]
    return {"mode": "roots", "p": p, "roots": roots, "label": label}


def int_valuation(a: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def valuation_rows(inst: dict) -> list[list]:
    """Pairwise valuation matrix of a roots-mode dict, over integers.

    The roots share a p-unit denominator, so valuations of numerator
    differences are the valuations of the root differences.
    """
    p = inst["p"]
    fr = [Fraction(r) for r in inst["roots"]]
    den = math.lcm(*(f.denominator for f in fr))
    nums = [int(f * den) for f in fr]
    n = len(nums)
    rows: list[list] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = int_valuation(nums[i] - nums[j], p)
    return rows


def nu_df(rows: list[list]) -> int:
    """Valuation of the discriminant: twice the sum of the pairwise valuations."""
    return 2 * sum(v for i, row in enumerate(rows) for v in row[i + 1:])


def matrix_twin(inst: dict) -> dict:
    return {"mode": "matrix", "valuations": valuation_rows(inst), "label": inst["label"] + "-m"}


# ---------------------------------------------------------------------------
# invalid inputs (mix): each must be rejected with InstanceError


def _invalid_base(rng: random.Random, label: str) -> dict:
    # a cluster {a, b} next to singletons, so a non-ultrametric edit exists
    shape = [(0, [None, None]), (0, [None, None]), None, None]
    return roots_instance(rng, 5, shape, label)


def invalid_instance(rng: random.Random, kind: str, label: str) -> dict:
    inst = _invalid_base(rng, label)
    roots = inst["roots"]
    if kind == "duplicate":
        roots[rng.randrange(1, len(roots))] = roots[0]
    elif kind == "composite_p":
        inst["p"] = rng.choice(COMPOSITES)
    elif kind == "p2":
        inst["p"] = 2
    elif kind == "non_integral":
        roots[rng.randrange(len(roots))] = f"{_unit(rng, 5, 100)}/5"
    else:
        rows = valuation_rows(inst)
        if kind == "non_ultrametric":
            # i, j share a cluster and k sits outside it: lifting m[i][k] to
            # m[i][j] leaves m[j][k] = 0 as the unique minimum of the triple
            n = len(rows)
            i, j = next((a, b) for a in range(n) for b in range(a + 1, n) if rows[a][b] >= 1)
            k = next(c for c in range(n) if rows[i][c] == 0)
            rows[i][k] = rows[k][i] = rows[i][j]
        else:  # ragged: the last row is cut short
            rows[-1] = rows[-1][:1]
        return {"mode": "matrix", "valuations": rows, "label": label}
    return inst


# ---------------------------------------------------------------------------
# workload input sets


def disguise(inst: dict, rng: random.Random, label: str) -> dict:
    """`inst` with its roots renamed: scaled by a p-unit, shifted and shuffled.

    Every pairwise valuation is kept, so the analysis does the same work and
    finds the same tree, up to the order of the roots, on an input it has
    not seen.
    """
    p = inst["p"]
    unit = _unit(rng, p, 50 * p)
    shift = rng.randrange(-10**6, 10**6)
    roots = [str(unit * Fraction(r) + shift) for r in inst["roots"]]
    rng.shuffle(roots)
    return {"mode": "roots", "p": p, "roots": roots, "label": label}


def mix_inputs(seed: int, count: int) -> list[tuple[dict, str, str | None]]:
    """About `count` small instances in the default_specs spread.

    Every 20th slot is an invalid file (the six kinds in turn); of the
    valid slots, every 5th holds the matrix-mode twin of the previous
    roots-mode instance.  Returns (instance dict, expected outcome, invalid
    kind or None) triples.
    """
    rng = random.Random(f"mix:{seed}")
    out: list[tuple[dict, str, str | None]] = []
    last_roots = None
    valid = 0
    for k in range(count):
        label = f"mix-{seed}-{k}"
        if k % 20 == 19:
            kind = INVALID_KINDS[(k // 20) % len(INVALID_KINDS)]
            out.append((invalid_instance(rng, kind, label), "invalid", kind))
            continue
        if valid % 5 == 4 and last_roots is not None:
            out.append((matrix_twin(last_roots), "ok", None))
        else:
            p = MIX_PRIMES[k % len(MIX_PRIMES)]
            genus = 2 + (k // len(MIX_PRIMES)) % 5
            max_depth = 1 + k % 4
            chain_prob = (k % 3) * 0.15
            shape = random_shape(rng, 2 * genus + 2, p, max_depth, chain_prob)
            last_roots = roots_instance(rng, p, shape, label, fractional=k % 7 == 3)
            out.append((last_roots, "ok", None))
        valid += 1
    return out


def wide_inputs(seed: int, per_genus: tuple[int, ...]) -> list[dict]:
    """Roots-mode instances at p = 13, depth <= 6, with genus 25 .. 100;
    per_genus[i] instances of genus WIDE_GENERA[i]."""
    rng = random.Random(f"wide:{seed}")
    out = []
    for genus, count in zip(WIDE_GENERA, per_genus):
        for c in range(count):
            shape = random_shape(rng, 2 * genus + 2, 13, 6, 0.1)
            out.append(roots_instance(rng, 13, shape, f"wide-{seed}-g{genus}-{c}"))
    return out


def deep_shape(depth: int, n: int):
    """n in {6, 8, 10} roots at p = 3 whose largest pairwise valuation is `depth`.

    One pair of roots persists down a chain of `depth` vertices; the other
    roots sit in shallow clusters, so the tree size, and the cost, is set by
    `depth` alone.
    """
    pair = (0, [None, None])
    rest = {6: [pair, pair],
            8: [(0, [None] * 3), (0, [None] * 3)],
            10: [(0, [pair, None, None]), (0, [pair, None, None])]}[n]
    return [(depth - 1, [None, None]), *rest]


def deep_inputs(seed: int, depths: tuple[int, ...] = DEEP_DEPTHS) -> list[dict]:
    rng = random.Random(f"deep:{seed}")
    return [
        roots_instance(rng, 3, deep_shape(d, (6, 8, 10)[b % 3]), f"deep-{seed}-d{d}")
        for b, d in enumerate(depths)
    ]
