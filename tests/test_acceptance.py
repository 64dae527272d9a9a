"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values are exact integers throughout (no tolerances); they were
computed by the independent oracles in this repository (big-integer
discriminant products, recursive residue refinement, rule-by-rule graph
evaluation) and frozen here.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager

import pytest

import condisc.conductor
from condisc import analyze, build_cluster_tree, build_matrix, equation_discriminant
from condisc.cli import main
from condisc.harness import (
    default_specs,
    disc_oracle,
    gen_instance,
    naive_tree_oracle,
    trees_agree,
)

from conftest import FIXTURE_A, FIXTURE_B, FIXTURE_C, GOOD_RED, make, write_instance


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def suite():
    """1000 generated instances across p in {3,5,7,11,13}, genus 2..6."""
    t0 = time.perf_counter()
    reports = []
    for spec in default_specs(1000):
        inst = gen_instance(spec)
        matrix = build_matrix(inst)
        report = analyze(inst)
        # oracle equivalence, both routes, on every instance
        assert disc_oracle(inst) == equation_discriminant(matrix) == report.nu_df
        assert trees_agree(report.tree, naive_tree_oracle(matrix))
        reports.append(report)
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_1_fixture_a():
    with criterion("1 fixture A"):
        inst = make(FIXTURE_A)
        analyze(inst)  # warm-up (imports, caches)
        t0 = time.perf_counter()
        r = analyze(inst)
        elapsed = time.perf_counter() - t0
        assert (r.nu_df, r.artin, r.artin_local_sum) == (6, 6, 6)
        assert (r.n_components, r.f_tilde) == (5, 2)
        assert r.equality_holds and r.x_minimal
        assert elapsed < 0.050, f"analysis took {elapsed * 1000:.1f} ms"


def test_criterion_2_fixture_b():
    with criterion("2 fixture B"):
        r = analyze(make(FIXTURE_B))
        assert (r.nu_df, r.artin, r.n_components, r.f_tilde) == (6, 6, 5, 2)
        x = r.xgraph
        hubs = [cid for cid, c in enumerate(x.components) if c.m == 2]
        assert len(hubs) == 1
        assert all(hubs[0] in edge for edge in x.edges)      # star through the m=2 component
        root_comp = [c for c in x.components if c.over == 0]  # the root is vertex 0 of T_B and of T_Y
        assert len(root_comp) == 1 and root_comp[0].chi == 0


def test_criterion_3_fixture_c():
    with criterion("3 fixture C"):
        r = analyze(make(FIXTURE_C))
        assert (r.nu_df, r.artin, r.n_components, r.f_tilde) == (4, 4, 4, 1)
        x = r.xgraph
        over = Counter(c.over for c in x.components)
        sheets = [cid for cid, c in enumerate(x.components) if over[c.over] == 2]
        assert len(sheets) == 2                               # split-sheet region
        degree = dict.fromkeys(range(len(x.components)), 0)
        for (a, b), w in x.edges.items():
            assert w == 1
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {2} and len(x.edges) == 4   # one 4-cycle


def test_criterion_4_good_reduction():
    with criterion("4 good reduction"):
        r = analyze(make(GOOD_RED))
        assert (r.nu_df, r.artin, r.f_tilde) == (0, 0, 0)
        assert r.n_components == 1 and r.equality_holds
        comp = r.xgraph.components[0]
        assert comp.chi == -2 and comp.m == 1
        from condisc import genus_check

        assert genus_check(r.xgraph, r.self_int) == 2


def test_criterion_5_randomized_identities(suite):
    with criterion("5 randomized identity suite"):
        reports, elapsed = suite
        assert len(reports) == 1000
        for r in reports:
            assert sum(l.d for l in r.ledgers) == r.nu_df
            assert sum(l.D for l in r.ledgers) == r.artin
            assert sum(l.E for l in r.ledgers) == 0
            assert sum(l.D_double_prime for l in r.ledgers) == sum(l.D_prime for l in r.ledgers)
            assert all(l.D_double_prime <= l.d for l in r.ledgers)
            assert r.artin <= r.nu_df
            assert r.f_tilde >= 0
            assert r.n_components <= r.artin + 1
        assert elapsed < 60, f"suite took {elapsed:.1f} s"


def test_criterion_6_oracle_equivalence(suite):
    with criterion("6 oracle equivalence"):
        reports, _ = suite
        # cross-checked per instance while building the suite; spot-check the
        # fixtures once more through the public API
        for fx in (FIXTURE_A, FIXTURE_B, FIXTURE_C, GOOD_RED):
            inst = make(fx)
            m = build_matrix(inst)
            assert disc_oracle(inst) == equation_discriminant(m)
            assert trees_agree(build_cluster_tree(m), naive_tree_oracle(m))
        assert len(reports) == 1000


def test_criterion_7_inequality_at_scale(suite):
    with criterion("7 inequality and equality classification"):
        reports, _ = suite
        assert all(r.inequality_holds for r in reports)
        n_equal = sum(1 for r in reports if r.equality_holds)
        n_strict = sum(1 for r in reports if not r.equality_holds)
        assert n_equal > 0 and n_strict > 0
        for r in reports:
            tree = r.tree
            for v, led in zip(tree, r.ledgers):
                if not v.odd:
                    expect_eq = all(tree[c].wt == 2 for c in v.children if not tree[c].odd)
                    expect_reason = "EVEN_ALL_EVEN_CHILDREN_WT2" if expect_eq else "STRICT"
                elif v.wt == 2:
                    expect_eq, expect_reason = True, "ODD_WT2"
                elif v.wt == 3 and all(tree[c].odd for c in v.children):
                    expect_eq, expect_reason = True, "ODD_WT3_NO_EVEN_CHILDREN"
                else:
                    expect_eq, expect_reason = False, "STRICT"
                assert led.equality == expect_eq == (led.D_double_prime == led.d)
                assert led.reason == expect_reason


def test_criterion_8_validation_gates(tmp_path, capsys, monkeypatch):
    with criterion("8 validation gates"):
        cases = {
            "p2.json": ({"mode": "roots", "p": 2, "roots": ["0", "1", "2", "3", "4", "5"]}, "p = 2"),
            "dup.json": ({"mode": "roots", "p": 5, "roots": ["0", "1", "2", "3", "4", "1"]},
                         "duplicate roots at indices"),
            "nonint.json": ({"mode": "roots", "p": 3, "roots": ["1/3", "1", "2", "3", "4", "5"]},
                            "non-integral root"),
            "oddn.json": ({"mode": "roots", "p": 5, "roots": ["0", "1", "2", "3", "4", "5", "6"]},
                          "even"),
            "badmat.json": ({"mode": "matrix", "valuations":
                             [[None, 2, 0, 0, 0, 0], [2, None, 2, 0, 0, 0], [0, 2, None, 0, 0, 0],
                              [0, 0, 0, None, 0, 0], [0, 0, 0, 0, None, 0], [0, 0, 0, 0, 0, None]]},
                            "ultrametric violation"),
        }
        for name, (payload, needle) in cases.items():
            path = tmp_path / name
            path.write_text(json.dumps(payload))
            assert main(["analyze", str(path)]) == 1
            assert needle in capsys.readouterr().err

        # mutation build: corrupt a local formula (E, which compare_vertex reads
        # through _shift), expect exit code 2
        ok = write_instance(tmp_path / "fixtureA.json", FIXTURE_A)
        true_formula = condisc.conductor._shift
        monkeypatch.setattr(condisc.conductor, "_shift",
                            lambda v, shift: true_formula(v, shift) + 1)
        assert main(["analyze", str(ok)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal invariant violation") and "D + E disagrees with the closed form of D'" in err
        monkeypatch.undo()
        assert main(["analyze", str(ok)]) == 0
