"""Roots mode and matrix mode are two routes to one report.

Roots mode reads each pair valuation it needs from two root residues and
never builds the n x n matrix; matrix mode reads the matrix.  Here the whole
JSON report of an instance must equal the report of its matrix,
``build_matrix(inst)``, and ``nu_df`` must equal the matrix's
``equation_discriminant``, on generated, chain, fractional and very long
roots.
"""

import json

import pytest

import condisc
import condisc.cluster
import condisc.conductor
import condisc.harness
import condisc.valuation
from condisc import Instance, analyze, build_matrix, equation_discriminant, matrix_from_rows
from condisc.cli import main
from condisc.harness import default_specs, gen_instance
from condisc.valuation import is_odd_prime, residues

from conftest import FIXTURE_A, chain_cases, write_instance


def assert_routes_agree(inst: Instance) -> None:
    m = build_matrix(inst)
    by_roots = analyze(inst)
    assert by_roots.to_json() == analyze(m, label=inst.label).to_json()
    assert by_roots.nu_df == equation_discriminant(m)


def realize(rows, p):
    """Integers whose pairwise p-adic valuations are the ultrametric matrix
    `rows`: each class of a split at depth `floor` adds its own digit times
    p**floor to its members."""
    roots = [0] * len(rows)
    stack = [list(range(len(rows)))]
    while stack:
        members = stack.pop()
        floor = min(rows[members[0]][j] for j in members[1:])
        classes: list[list[int]] = []
        for i in members:
            for cls in classes:
                if rows[i][cls[0]] > floor:
                    cls.append(i)
                    break
            else:
                classes.append([i])
        for digit, cls in enumerate(classes):
            for i in cls:
                roots[i] += digit * p**floor
            if len(cls) > 1:
                stack.append(cls)
    return roots


def test_generated_instances():
    for spec in default_specs(1000):
        assert_routes_agree(gen_instance(spec))


@pytest.mark.parametrize("length", range(1, 51))
def test_chains(length):
    for name, rows in chain_cases(length):
        inst = Instance.from_values(11, realize(rows, 11), label=f"{name}-{length}")
        assert build_matrix(inst).entries == matrix_from_rows(rows).entries
        assert_routes_agree(inst)


def test_reciprocals_of_six_digit_primes():
    # at p = 3 every root 1/q is a unit; build_matrix scales them all by the product of the q
    primes = [q for q in range(100_003, 101_000, 2) if is_odd_prime(q)][:60]
    assert len(primes) == 60
    assert_routes_agree(Instance.from_values(3, [f"1/{q}" for q in primes], label="reciprocals"))


def test_twenty_roots_of_3819_digits():
    # README's example: every pair has valuation 8000 + v_3(i - j)
    roots = [10**3818 + 12345 + i * 3**8000 for i in range(20)]
    assert_routes_agree(Instance.from_values(3, roots, label="big"))


def _caterpillar(n, zero):
    """0 and 3^k for k < n - 1, with 0 first or last: each split peels one root
    off, so the tree is a path of n - 1 splits, the tallest for n roots."""
    powers = [3**k for k in range(n - 1)]
    return Instance.from_values(3, [0, *powers] if zero == "first" else [*powers, 0], label=f"caterpillar-0-{zero}")


@pytest.mark.parametrize("zero", ["first", "last"])
def test_caterpillar(zero):
    assert_routes_agree(_caterpillar(120, zero))


def test_each_split_takes_at_most_one_valuation(monkeypatch):
    # with 0 first, every difference from the first member is a power of 3: the floor of a
    # cluster is one valuation, of the gcd, not one per member
    calls = 0
    true_val = condisc.cluster._int_val

    def counted(n, p):
        nonlocal calls
        calls += 1
        return true_val(n, p)

    monkeypatch.setattr(condisc.cluster, "_int_val", counted)
    tree = condisc.cluster.build_cluster_tree(residues(_caterpillar(120, "first")))
    assert len(tree) == 119 and all(v.sep_roots for v in tree)  # no chain: every vertex is a split
    assert 0 < calls <= len(tree)


def test_roots_mode_builds_no_matrix(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        pytest.fail("roots mode ran an n x n route")

    for module in (condisc, condisc.valuation, condisc.cluster, condisc.conductor, condisc.harness):
        for name in ("build_matrix", "validate_ultrametric", "equation_discriminant"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for spec in default_specs(50):
        analyze(gen_instance(spec))
    assert main(["analyze", str(write_instance(tmp_path / "a.json", FIXTURE_A)), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["nu_df"] == 6  # pairs (0, 3), (1, 4), (2, 5) at valuation 1
