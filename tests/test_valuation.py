import math
import random
from fractions import Fraction

import pytest

from condisc import (
    INFINITY,
    DuplicateRootsError,
    Instance,
    InstanceError,
    build_matrix,
    matrix_from_rows,
    val,
    validate_ultrametric,
)


def brute_val(q: Fraction, p: int) -> int:
    """Independent oracle: strip factors of p from numerator and denominator."""
    assert q != 0
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def test_val_zero_is_infinity():
    assert val(0, 5) is INFINITY


def test_val_prime_power():
    assert val(25, 5) == 2


def test_val_fraction():
    # 24/5 = 2^3 * 3 / 5
    assert val(Fraction(24, 5), 3) == 1
    assert val(Fraction(24, 5), 3) == brute_val(Fraction(24, 5), 3)


def test_val_negative_on_denominator():
    assert val(Fraction(1, 9), 3) == -2


def test_infinity_ordering_and_absorption():
    assert INFINITY is math.inf
    assert INFINITY > 10**18
    assert INFINITY > 10**5000  # exact: the int is not converted to a float
    assert not (INFINITY < 5)
    assert min(INFINITY, 7) == 7
    assert INFINITY + 3 == INFINITY
    assert 3 + INFINITY == INFINITY
    assert INFINITY == INFINITY
    assert INFINITY != 0


def test_build_matrix_fixture_a(fixture_a):
    m = build_matrix(fixture_a)
    ones = {(i, j) for i in range(6) for j in range(i + 1, 6) if m.entries[i][j] == 1}
    assert ones == {(0, 3), (1, 4), (2, 5)}
    for i in range(6):
        for j in range(i + 1, 6):
            assert m.entries[i][j] == brute_val(fixture_a.roots[i] - fixture_a.roots[j], 3)
            assert m.entries[i][j] == m.entries[j][i]
        assert m.entries[i][i] is INFINITY


def test_build_matrix_fixture_b(fixture_b):
    m = build_matrix(fixture_b)
    ones = {(i, j) for i in range(6) for j in range(i + 1, 6) if m.entries[i][j] == 1}
    assert ones == {(0, 1), (0, 2), (1, 2)}
    assert all(m.entries[i][j] == 0 for i in range(6) for j in range(i + 1, 6) if (i, j) not in ones)


def test_build_matrix_distinct_residues(good_reduction):
    m = build_matrix(good_reduction)
    assert all(m.entries[i][j] == 0 for i in range(6) for j in range(i + 1, 6))


def test_integer_build_matrix_matches_the_fraction_route():
    # denominators mixing p-units and powers of p: the instance is not p-integral, so
    # build_matrix's v(L) term is what keeps the entries equal to val and brute_val
    rng = random.Random(5)
    for p in (3, 5, 13):
        for _ in range(20):
            roots = [Fraction(rng.randrange(-p**6, p**6), rng.choice((1, 2, p, 4 * p**2, p**3 + 1)))
                     for _ in range(8)]
            if len(set(roots)) != len(roots):
                continue
            m = build_matrix(Instance.from_values(p, roots))
            for i in range(8):
                for j in range(i + 1, 8):
                    assert m.entries[i][j] == val(roots[i] - roots[j], p) == brute_val(roots[i] - roots[j], p)


def test_duplicate_roots_listed_in_index_order():
    inst = Instance.from_values(5, ["1/2", 0, 3, "2/4", 0, 3, 0])
    with pytest.raises(DuplicateRootsError) as err:
        build_matrix(inst)
    assert err.value.pairs == ((0, 3), (1, 4), (1, 6), (2, 5), (4, 6))


def test_residues_list_duplicates_as_build_matrix_does():
    from condisc import analyze
    from condisc.valuation import residues

    # a three-way duplicate (7 = 14/2) and a pair, interleaved
    inst = Instance.from_values(5, [7, 1, 7, "14/2", 2, 1, 3, 4])
    with pytest.raises(DuplicateRootsError) as by_matrix:
        build_matrix(inst)
    with pytest.raises(DuplicateRootsError) as by_residues:
        residues(inst)
    assert by_residues.value.pairs == by_matrix.value.pairs == ((0, 2), (0, 3), (1, 5), (2, 3))
    with pytest.raises(DuplicateRootsError, match=r"indices \(0, 2\), \(0, 3\), \(1, 5\), \(2, 3\)$"):
        analyze(inst)


def test_residue_differences_keep_every_pair_valuation():
    from condisc.valuation import residues

    rng = random.Random(16)
    for p in (3, 5, 13, 10007):
        for _ in range(20):
            dens = [1, 2, p + 1, 4 * p**3 - 1]
            roots = {Fraction(rng.randrange(-p**9, p**9) * rng.choice((1, p, p**5)), rng.choice(dens))
                     for _ in range(8)}
            inst = Instance.from_values(p, sorted(roots))
            res = residues(inst)
            m = build_matrix(inst)
            for i in range(res.n):
                for j in range(i + 1, res.n):
                    assert val(res.values[i] - res.values[j], p) == m.entries[i][j]


def test_duplicate_roots_rejected():
    inst = Instance.from_values(5, [0, 1, 2, 3, 4, 1])
    with pytest.raises(DuplicateRootsError, match=r"duplicate roots at indices \(1, 5\)"):
        build_matrix(inst)


def test_p_equal_two_rejected():
    with pytest.raises(InstanceError, match="p = 2"):
        Instance.from_values(2, [0, 1, 2, 3, 4, 5]).validate()


def test_composite_p_rejected():
    with pytest.raises(InstanceError, match="not prime"):
        Instance.from_values(9, [0, 1, 2, 3, 4, 5]).validate()


def test_non_integral_root_rejected():
    with pytest.raises(InstanceError, match="non-integral root"):
        Instance.from_values(3, [Fraction(1, 3), 1, 2, 3, 4, 5]).validate()


def test_p_unit_denominators_allowed():
    inst = Instance.from_values(3, [Fraction(1, 5), 1, 2, 3, 4, 5])
    inst.validate()  # 5 is a 3-adic unit


def test_ultrametric_ok_on_built_matrices(fixture_a, fixture_b):
    assert validate_ultrametric(build_matrix(fixture_a)) == ()
    assert validate_ultrametric(build_matrix(fixture_b)) == ()


def test_ultrametric_violation_reported():
    m = matrix_from_rows(
        [[None, 2, 0], [2, None, 2], [0, 2, None]]
    )
    assert validate_ultrametric(m) == ((0, 1, 2),)


def test_ultrametric_equality_case_ok():
    m = matrix_from_rows(
        [[None, 1, 1], [1, None, 2], [1, 2, None]]
    )
    assert validate_ultrametric(m) == ()


def test_ultrametric_orientation_other_sides():
    # unique minimum on (0, 1): reported with 2 as middle vertex
    m = matrix_from_rows([[None, 0, 2], [0, None, 2], [2, 2, None]])
    assert validate_ultrametric(m) == ((0, 2, 1),)
    # unique minimum on (1, 2)
    m = matrix_from_rows([[None, 2, 2], [2, None, 0], [2, 0, None]])
    assert validate_ultrametric(m) == ((1, 0, 2),)


def test_matrix_shape_gates():
    from condisc import analyze, build_cluster_tree

    # check_shape checks lengths, the diagonal and types; the tree build, symmetry and sign,
    # and it names them before the root count
    with pytest.raises(InstanceError, match="symmetric"):
        analyze(matrix_from_rows([[None, 1, 0], [2, None, 0], [0, 0, None]]))
    with pytest.raises(InstanceError, match="nonnegative"):
        analyze(matrix_from_rows([[None, -1], [-1, None]]))
    # the root-count gate sits in the tree build, after check_shape, not in check_shape
    odd = matrix_from_rows([[None, 0, 0], [0, None, 0], [0, 0, None]])
    with pytest.raises(InstanceError, match="even"):
        build_cluster_tree(odd)


def test_unit_scaling_leaves_matrix_unchanged(fixture_b):
    base = build_matrix(fixture_b)
    for unit in (1, 2, 3, 4, 6, 7, 101):
        scaled = Instance.from_values(5, [unit * r for r in fixture_b.roots])
        assert build_matrix(scaled).entries == base.entries



def test_doubling_valuation_matches_the_division_loop():
    from condisc.valuation import _int_val

    rng = random.Random(9)
    for p in (3, 5, 13, 10007, 2**61 - 1):
        cap = int(4000 / math.log10(p))  # p**cap has about 4000 digits
        ks = [0, 1, 2, 3, 7, 8, 15, 16, 17, cap] + [rng.randrange(cap) for _ in range(6)]
        for k in ks:
            unit_digits = rng.randrange(1, 4001 - int(k * math.log10(p)) + 1)
            n = rng.randrange(1, 10**unit_digits) * p**k * rng.choice((1, -1))
            assert _int_val(n, p) == brute_val(Fraction(n), p), (p, k)

def test_null_off_the_diagonal_is_a_pair_of_equal_roots():
    from condisc import analyze, build_cluster_tree

    rows = [[None if i == j else 0 for j in range(6)] for i in range(6)]
    rows[2][4] = rows[4][2] = None
    with pytest.raises(DuplicateRootsError, match=r"duplicate roots at indices \(2, 4\)"):
        analyze(matrix_from_rows(rows))
    # matrix_from_rows keeps it, and the tree build, called directly, names it alike
    with pytest.raises(DuplicateRootsError, match=r"duplicate roots at indices \(2, 4\)"):
        build_cluster_tree(matrix_from_rows(rows))


@pytest.mark.parametrize("bad, message", [
    (True, "matrix entry (4, 1) must be a nonnegative integer, got True"),
    (1.5, "matrix entry (4, 1) must be a nonnegative integer, got 1.5"),
    ("2", "matrix entry (4, 1) must be a nonnegative integer, got '2'"),
    (None, "duplicate roots at indices (1, 4)"),
], ids=["true", "float", "string", "null"])
def test_a_lone_bad_entry_below_the_diagonal_is_named_for_its_own_defect(bad, message):
    # row 1 reaches the pair first, from its transpose (1, 4), a valid integer
    rows = [[None if i == j else 0 for j in range(6)] for i in range(6)]
    rows[4][1] = bad
    with pytest.raises(InstanceError) as err:
        matrix_from_rows(rows).check_shape()
    assert str(err.value) == message


def test_check_shape_rejects_bool_entries():
    with pytest.raises(InstanceError, match="nonnegative integer, got True"):
        matrix_from_rows([[None, True], [True, None]]).check_shape()


def test_tree_build_checks_the_matrix_it_reads():
    from condisc import analyze, build_cluster_tree

    rows = [[None if i == j else 0 for j in range(6)] for i in range(6)]
    rows[0][1] = rows[1][0] = True  # True == 1: without the type check it would pass as a valuation
    message = "matrix entry (0, 1) must be a nonnegative integer, got True"
    for run in (build_cluster_tree, analyze):
        with pytest.raises(InstanceError) as err:
            run(matrix_from_rows(rows))
        assert str(err.value) == message


def test_check_shape_holds_no_list_of_the_entries():
    import tracemalloc

    n = 1000
    m = matrix_from_rows([[None if i == j else 0 for j in range(n)] for i in range(n)])
    tracemalloc.start()
    try:
        m.check_shape()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a list of the n * n entries' types is 8 MB


@pytest.mark.parametrize("p, roots, message", [
    (3, [Fraction(1, 3), 1, 2, 3, 4, 5], "non-integral root 1/3 at index 0"),
    (9, [0, 1, 2, 3, 4, 5], "p = 9 is not prime"),
], ids=["non-integral", "composite"])
def test_residues_validates_its_instance(p, roots, message):
    from condisc.valuation import residues

    inst = Instance.from_values(p, roots)
    with pytest.raises(InstanceError) as by_validate:
        inst.validate()
    with pytest.raises(InstanceError) as by_residues:
        residues(inst)
    assert str(by_residues.value) == str(by_validate.value)
    assert str(by_residues.value).startswith(message)


@pytest.mark.parametrize("p", [1, -1, 0])
def test_valuation_rejects_a_base_below_two(p):
    # every power of 1 and -1 divides 12, so the doubling loop would never end; p = 0 divides by zero
    with pytest.raises(ValueError, match=rf"p = {p}\b"):
        val(12, p)


def test_build_matrix_rejects_p_one():
    with pytest.raises(ValueError, match=r"p = 1\b"):
        build_matrix(Instance.from_values(1, [0, 1, 2, 3, 4, 5]))


def test_valuation_at_a_negative_prime():
    assert val(12, -3) == 1


# strong pseudoprimes to every prime base up to 7, 23, 37 and 41 in turn,
# a Carmichael number, a Mersenne prime past the Miller-Rabin bound, a product
# of two Mersenne primes and the square of one
KNOWN_PRIMALITY = {
    3215031751: False,
    3825123056546413051: False,
    318665857834031151167461: False,
    3317044064679887385961981: False,
    561: False,
    2**521 - 1: True,
    (2**127 - 1) * (2**89 - 1): False,
    (2**89 - 1) ** 2: False,
}


@pytest.mark.parametrize("n, prime", KNOWN_PRIMALITY.items())
def test_is_odd_prime_known_values(n, prime):
    from condisc.valuation import is_odd_prime

    assert is_odd_prime(n) is prime


def test_is_odd_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from condisc.valuation import _MR_EXACT_BELOW, is_odd_prime

    # both sides of the bound where the test switches from Miller-Rabin to Baillie-PSW
    near_bound = range(_MR_EXACT_BELOW - 1000, _MR_EXACT_BELOW + 1000)
    for n in [*range(-50, 10**5), *near_bound, *KNOWN_PRIMALITY]:
        assert is_odd_prime(n) == (n != 2 and sympy.isprime(n)), n



@pytest.mark.parametrize("n, symbols", [((2**89 - 1) ** 2, 0), (5 * (2**89 - 1), 1)],
                         ids=["odd-square", "five-times-a-prime"])
def test_lucas_test_rejects_a_square_and_a_multiple_of_five(monkeypatch, n, symbols):
    # is_odd_prime strips small factors and runs a base-2 test first, so neither reaches it that way.
    # A square has no Selfridge parameter D with Jacobi symbol -1, so it is rejected before the
    # search; (5/n) = 0 when 5 divides n, so the search stops at its first D.
    import condisc.valuation as cv

    calls = []
    jacobi = cv._jacobi

    def counted(a, m):
        calls.append(a)
        assert len(calls) <= 50, "no parameter D found"
        return jacobi(a, m)

    monkeypatch.setattr(cv, "_jacobi", counted)
    assert cv._strong_lucas_probable_prime(n) is False
    assert len(calls) == symbols
