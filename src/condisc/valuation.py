"""Exact discrete valuations, root residues and ultrametric valuation matrices.

Everything here is arbitrary-precision: roots are :class:`fractions.Fraction`,
valuations are plain ``int`` plus the sentinel :data:`INFINITY` (``math.inf``).
The rest of the pipeline reads only the pairwise valuations ``v(b_i - b_j)``,
and from one of two sources.  In roots mode, :func:`residues` reduces each
root once to an integer mod ``p^K``, with ``K`` above every pair valuation, and
the refinement tree reads each valuation it needs from two residues; no
``n x n`` matrix is built.  In matrix mode the valuation matrix
``m.entries[i][j] = v(b_i - b_j)`` is the input: hand-written ultrametric
matrices are a first-class input mode, and a valid one is read in four passes
over its n x n entries, each in builtins with a Python step per row (per
member of each split, for the certificate).  :func:`matrix_from_rows` copies
each row twice (``list``, then ``tuple``); :meth:`ValuationMatrix.check_shape`
counts the entries of type ``int`` as it maps their types, with no n x n list;
and the tree's certificate
(:func:`~condisc.cluster.build_cluster_tree`) reads every entry in both
orientations, which proves the matrix symmetric, nonnegative and ultrametric.
Only a matrix that fails one of them is scanned entry by entry
(:meth:`ValuationMatrix._scan`), to name its first defect.
:func:`build_matrix` computes the matrix of an instance, as a second route
that tests compare with the first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import inf, isqrt, lcm, log2
from operator import attrgetter, countOf
from typing import Iterable, NamedTuple, Sequence

from .errors import DuplicateRootsError, InstanceError


# v(0), math.inf itself: tested by identity or compared with ints (exact at
# any size), never used in arithmetic
INFINITY = inf
ExtNat = int | float


def _int_val(n: int, p: int) -> int:
    """v_p(n) for n != 0 in O(log v) big divisions: divide by p, p^2, p^4, ...
    while each divides, then try the same powers once each, largest first.
    |p| < 2 is rejected: for p = 1 or -1 every power divides, and the loop
    would not end; p = 0 would divide by zero."""
    if -2 < p < 2:
        raise ValueError(f"valuation at p = {p}: |p| must be at least 2")
    n = abs(n)
    powers = []  # powers[k] = p^(2^k)
    pk = p
    while n % pk == 0:
        n //= pk
        powers.append(pk)
        pk *= pk
    v = (1 << len(powers)) - 1  # what remains of v is below 2^len(powers)
    for k in reversed(range(len(powers))):
        q, r = divmod(n, powers[k])
        if not r:
            n = q
            v += 1 << k
    return v


def val(q, p: int) -> ExtNat:
    """p-adic valuation of an exact rational; INFINITY iff q == 0."""
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return _int_val(q.numerator, p) - _int_val(q.denominator, p)


# Miller-Rabin with these bases is exact below _MR_EXACT_BELOW (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2015); above it the
# test is Baillie-PSW, for which no counterexample is known.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981

# is_odd_prime's cost grows about with the cube of p's digits: at 1000 digits
# 0.53-0.58 s on the prime 10**1000 - 1769 and 0.13 s on a composite with no
# small factor, 7.2 s on a 4000-digit composite (2-vCPU Xeon, Python 3.11)
P_MAX_DIGITS = 1000
_P_BOUND = 10**P_MAX_DIGITS  # the smallest p rejected, built once: it takes 5 us (timeit, Python 3.11)


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters; n odd, not tiny."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def halve(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    U, V, Qk = 1, P, Q % n  # index 1, then the bits of d below the top one
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = halve(P * U + V), halve(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_odd_prime(n: int) -> bool:
    """Exact below 3.3e24; Baillie-PSW above (see _PRIME_BASES)."""
    if n % 2 == 0 or n < 3:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _PRIME_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


class Instance(NamedTuple):
    """A split Weierstrass input: a prime and the roots of f.

    Roots must be p-integral (valuation >= 0) and pairwise distinct; the
    root count is 2g + 2 for a curve of genus g.
    """

    p: int
    roots: tuple[Fraction, ...]
    label: str | None = None

    @classmethod
    def from_values(cls, p: int, roots: Iterable, label: str | None = None) -> "Instance":
        return cls(p=p, roots=tuple(Fraction(r) for r in roots), label=label)

    @property
    def num_roots(self) -> int:
        return len(self.roots)

    def validate(self) -> None:
        """Check p (its size first) and integrality; :func:`residues` runs it
        first.  Duplicate roots are found by :func:`residues` and the root
        count where the tree is built, so small synthetic instances pass here."""
        if self.p == 2:
            raise InstanceError("p = 2 is not supported: the residue characteristic must be odd")
        if self.p >= _P_BOUND:
            raise InstanceError(f"p has more than {P_MAX_DIGITS} decimal digits (P_MAX_DIGITS)")
        if not is_odd_prime(self.p):
            raise InstanceError(f"p = {self.p} is not prime")
        for idx, r in enumerate(self.roots):
            if r.denominator % self.p == 0:
                raise InstanceError(
                    f"non-integral root {r} at index {idx}: "
                    f"{self.p}-adic valuation is negative; supply p-integral roots"
                )


class ValuationMatrix(NamedTuple):
    """Symmetric matrix of pairwise valuations with INFINITY diagonal."""

    entries: tuple[tuple[ExtNat, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def check_shape(self) -> None:
        """Check what the tree's certificate cannot: every row has length n,
        the diagonal is INFINITY and every entry off it has type ``int``
        exactly, tested on the whole matrix with builtins and O(n) Python
        steps: the entries' types are counted as they are mapped, so no list
        of n x n items is built.  Symmetry and sign are left to
        :func:`~condisc.cluster.build_cluster_tree`, which runs this check on
        every matrix it is given and whose certificate reads every entry in
        both orientations.  A matrix that fails the test is
        scanned entry by entry (:meth:`_scan`) to name its first defect; the
        scan also accepts what the test turns down without a defect, such as
        an entry of a subclass of ``int``."""
        entries, n = self.entries, self.n
        if not (
            set(map(len, entries)) <= {n}
            and all(row[i] is INFINITY for i, row in enumerate(entries))
            and countOf(map(type, chain.from_iterable(entries)), int) == n * n - n
        ):
            self._scan()

    def _scan(self) -> None:
        """Name the first defect of the matrix, entry by entry; its order decides
        which defect a matrix with several is rejected for: every row's length;
        then row by row, its diagonal entry, and for each entry (i, j) off it,
        the entry for a duplicate (INFINITY or ``None``) and for a nonnegative
        ``int`` (not ``bool``); then, if its transpose (j, i) differs from it,
        the transpose for the same defects, and last the pair for symmetry.
        ``check_shape`` runs it on a matrix that fails its test, and
        ``build_cluster_tree`` before any later rejection of a matrix, so the defect
        named does not depend on which of them found one."""
        entries, n = self.entries, self.n
        for i, row in enumerate(entries):
            if len(row) != n:
                raise InstanceError(f"matrix row {i} has length {len(row)}, expected {n}")
        for i, (row, col) in enumerate(zip(entries, zip(*entries))):
            if row[i] is not INFINITY:
                raise InstanceError(f"matrix diagonal entry ({i}, {i}) must be null/INFINITY")
            for j, (e, t) in enumerate(zip(row, col)):
                if i != j:
                    _check_entry(e, i, j)
                    if t != e:
                        _check_entry(t, j, i)
                        raise InstanceError(f"matrix not symmetric at ({i}, {j})")


def _check_entry(e, i: int, j: int) -> None:
    if e is INFINITY or e is None:
        raise DuplicateRootsError([(min(i, j), max(i, j))])
    if isinstance(e, bool) or not isinstance(e, int) or e < 0:
        raise InstanceError(f"matrix entry ({i}, {j}) must be a nonnegative integer, got {e!r}")


class Residues(NamedTuple):
    """The roots of an instance, each reduced to an integer in [0, p^K), with
    K above every pair valuation, so v(r_i - r_j) = v(b_i - b_j) for i != j."""

    p: int
    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)


_NUM_DEN = attrgetter("numerator", "denominator")


def residues(inst: Instance) -> Residues:
    """Reduce each p-integral root a/b once to a * b^-1 mod p^K, after
    checking the instance (:meth:`Instance.validate`: the prime and
    integrality) and rejecting duplicate roots.

    A root difference a/b - c/d = (ad - cb)/(bd) has a p-unit denominator and
    a numerator of absolute value at most X = 2 max|a| max|b|, so its
    valuation, when finite, lies below any K with p^K > X.  The difference of
    two residues is congruent to the roots' difference mod p^K, so it has the
    same valuation, and distinct roots have distinct residues.  Cost O(n)
    reductions of numbers of the input's size."""
    inst.validate()
    p = inst.p
    # a Fraction is kept in lowest terms, so equal roots have equal pairs; a
    # tuple of ints hashes in C, where Fraction.__hash__ is Python code
    fracs = list(map(_NUM_DEN, inst.roots))
    if len(set(fracs)) < len(fracs):
        where: dict[tuple[int, int], list[int]] = {}
        for i, r in enumerate(fracs):
            where.setdefault(r, []).append(i)
        raise DuplicateRootsError(sorted(pair for idx in where.values() for pair in combinations(idx, 2)))
    bound = 2 * max((abs(a) for a, _ in fracs), default=1) * max((b for _, b in fracs), default=1)
    k = max(1, int(bound.bit_length() / log2(p)))  # at most the least K, so few steps follow
    pk = p**k
    while pk <= bound:
        pk *= p
    values = tuple(a % pk if b == 1 else a * pow(b, -1, pk) % pk for a, b in fracs)
    return Residues(p, values)


def build_matrix(inst: Instance) -> ValuationMatrix:
    """Pairwise valuation matrix m[i][j] = val(b_i - b_j, p).

    Computed on integers: with L the lcm of the roots' denominators,
    v(b_i - b_j) = v(L b_i - L b_j) - v(L), and v(L) = 0 for p-integral roots."""
    n, p = inst.num_roots, inst.p
    scale = lcm(*(r.denominator for r in inst.roots))
    shift = _int_val(scale, p)
    ints = [r.numerator * (scale // r.denominator) for r in inst.roots]
    rows = [[INFINITY] * n for _ in range(n)]
    dupes = []
    for i, a in enumerate(ints):
        for j in range(i + 1, n):
            d = a - ints[j]
            if d:  # most pairs differ mod p: skip the call
                rows[i][j] = rows[j][i] = (_int_val(d, p) if d % p == 0 else 0) - shift
            else:
                dupes.append((i, j))
    if dupes:
        raise DuplicateRootsError(dupes)
    return ValuationMatrix(tuple(tuple(row) for row in rows))


def validate_ultrametric(m: ValuationMatrix) -> tuple[tuple[int, int, int], ...]:
    """Check the strong triangle rule on every index triple; returns the
    violating triples, none when the matrix is ultrametric.

    A triple passes exactly when the minimum of its three pairwise
    valuations is attained at least twice.  A violating triple (i, j, k) is
    reported with the offending short side as m[i][k], i.e.
    m[i][k] < min(m[i][j], m[j][k]).

    It reads the entries above the diagonal unchecked, and only those in the
    first n columns (a 3 x 4 matrix with an ultrametric 3 x 3 part returns
    ``()``): it expects a matrix that :meth:`ValuationMatrix.check_shape`
    accepts, which is how :func:`~condisc.cluster.build_cluster_tree` calls it.
    """
    n = m.n
    bad = []
    for i, row_i in enumerate(m.entries):
        for j in range(i + 1, n):
            row_j = m.entries[j]
            for k in range(j + 1, n):
                a, b, c = row_i[j], row_j[k], row_i[k]
                lo = min(a, b, c)
                if (a == lo) + (b == lo) + (c == lo) >= 2:
                    continue
                # orient so the unique minimum sits on the outer pair
                if a == lo:  # short side (i, j)
                    bad.append((i, k, j))
                elif b == lo:  # short side (j, k)
                    bad.append((j, i, k))
                else:  # short side (i, k)
                    bad.append((i, j, k))
    return tuple(bad)


def matrix_from_rows(rows: Sequence[Sequence]) -> ValuationMatrix:
    """Convert raw rows, a diagonal ``None`` becoming INFINITY;
    :func:`~condisc.cluster.build_cluster_tree` checks the result.

    Each row is copied whole (``list``, then ``tuple``) and its diagonal
    ``None``, where a file has it, set to INFINITY.  A ``None`` off the
    diagonal is kept: ``check_shape``'s type test turns it down, and its scan
    names it as a pair of equal roots."""
    out = []
    for i, row in enumerate(rows):
        row = list(row)
        if i < len(row) and row[i] is None:
            row[i] = INFINITY
        out.append(tuple(row))
    return ValuationMatrix(tuple(out))
