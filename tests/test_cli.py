import collections
import contextlib
import copy
import io
import itertools
import json
import os
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import condisc.cli
import condisc.cluster
import condisc.conductor
import condisc.harness
import condisc.render
from condisc import (
    INFINITY,
    Instance,
    InstanceError,
    InternalInvariantViolation,
    analyze,
    build_cluster_tree,
    build_matrix,
    matrix_from_rows,
)
from condisc.cli import main
from condisc.harness import naive_tree_oracle, trees_agree

from conftest import FIXTURE_A, FIXTURE_B, FIXTURE_C, write_instance


@pytest.fixture
def fixture_a_file(tmp_path):
    return write_instance(tmp_path / "fixtureA.json", FIXTURE_A)


def test_analyze_json_output(fixture_a_file, capsys):
    assert main(["analyze", str(fixture_a_file), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["artin_conductor"] == 6
    assert doc["nu_df"] == 6
    assert doc["equality_holds"] is True


def test_analyze_text_output(fixture_a_file, capsys):
    assert main(["analyze", str(fixture_a_file)]) == 0
    out = capsys.readouterr().out
    assert "nu(d_f) = 6" in out
    assert "X minimal: yes" in out
    assert "iff the input equation is minimal" in out
    assert "v0  wt=6" in out


def test_json_round_trip_byte_identical(fixture_a_file, capsys):
    assert main(["analyze", str(fixture_a_file), "--format", "json"]) == 0
    text = capsys.readouterr().out.rstrip("\n")
    assert json.dumps(json.loads(text), indent=2) == text


def test_duplicate_roots_exit_one(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"mode": "roots", "p": 5, "roots": ["0", "1", "2", "3", "4", "1"]}))
    assert main(["analyze", str(path)]) == 1
    assert "duplicate roots at indices" in capsys.readouterr().err


def test_bad_matrix_exit_one(tmp_path, capsys):
    rows = [[None, 2, 0, 0, 0, 0],
            [2, None, 2, 0, 0, 0],
            [0, 2, None, 0, 0, 0],
            [0, 0, 0, None, 0, 0],
            [0, 0, 0, 0, None, 0],
            [0, 0, 0, 0, 0, None]]
    path = tmp_path / "bad_matrix.json"
    path.write_text(json.dumps({"mode": "matrix", "valuations": rows}))
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert "ultrametric violation at triples" in err and "(0, 1, 2)" in err


def test_p_two_exit_one(tmp_path, capsys):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps({"mode": "roots", "p": 2, "roots": ["0", "1", "2", "3", "4", "5"]}))
    assert main(["analyze", str(path)]) == 1
    assert "p = 2" in capsys.readouterr().err


def test_non_integral_root_exit_one(tmp_path, capsys):
    path = tmp_path / "nonint.json"
    path.write_text(json.dumps({"mode": "roots", "p": 3, "roots": ["1/3", "1", "2", "3", "4", "5"]}))
    assert main(["analyze", str(path)]) == 1
    assert "non-integral root" in capsys.readouterr().err


def test_odd_root_count_exit_one(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"mode": "roots", "p": 5, "roots": ["0", "1", "2", "3", "4", "5", "6"]}))
    assert main(["analyze", str(path)]) == 1
    assert "even" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc", [{"mode": "roots", "p": 3, "roots": []}, {"mode": "matrix", "valuations": []}], ids=["roots", "matrix"]
)
def test_empty_input_exit_one(tmp_path, capsys, doc):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: need at least 2 roots, got 0\n")


def test_small_genus_gate_and_flag(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"mode": "roots", "p": 5, "roots": ["0", "1", "2", "3"]}))
    assert main(["analyze", str(path)]) == 1
    capsys.readouterr()
    assert main(["analyze", str(path), "--allow-small-genus", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert any("out of scope" in w for w in doc["warnings"])
    assert main(["analyze", str(path), "--allow-small-genus"]) == 0
    assert "\nwarning: 4 roots: genus 1 < 2 is out of scope" in capsys.readouterr().out
    # strict mode promotes the warning back to an error
    assert main(["analyze", str(path), "--allow-small-genus", "--strict"]) == 1
    assert "error (strict)" in capsys.readouterr().err


def test_injected_invariant_violation_exit_two(fixture_a_file, capsys, monkeypatch):
    # mutation build: corrupt one local formula and watch the analyzer object
    true_formula = condisc.conductor.local_artin

    def corrupted(v):
        return true_formula(v) + (2 if v.depth == 0 else 0)

    monkeypatch.setattr(condisc.conductor, "local_artin", corrupted)
    assert main(["analyze", str(fixture_a_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal invariant violation") and "D + E disagrees with the closed form of D'" in err


def test_dot_export_deterministic(fixture_a_file, tmp_path, capsys):
    d1, d2 = tmp_path / "dots1", tmp_path / "dots2"
    assert main(["analyze", str(fixture_a_file), "--dot-dir", str(d1)]) == 0
    assert main(["analyze", str(fixture_a_file), "--dot-dir", str(d2)]) == 0
    capsys.readouterr()
    for name in ("t_b.dot", "t_y.dot", "t_x.dot"):
        a, b = (d1 / name).read_text(), (d2 / name).read_text()
        assert a == b
    tb = (d1 / "t_b.dot").read_text()
    assert 'label="wt=6/even"' in tb
    tx = (d1 / "t_x.dot").read_text()
    assert "m=1" in tx and "χ=2" in tx


@pytest.mark.parametrize("below", [False, True], ids=["is-a-file", "under-a-file"])
def test_dot_dir_that_cannot_be_written_exit_one(fixture_a_file, tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("")
    target = taken / "dots" if below else taken
    assert main(["analyze", str(fixture_a_file), "--dot-dir", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write DOT files to {target}: ")
    assert "Traceback" not in captured.err


def test_invariant_failure_building_the_dot_graphs_exits_two_and_writes_nothing(fixture_a_file, tmp_path,
                                                                                capsys, monkeypatch):
    def broken(y):
        raise InternalInvariantViolation("boom")

    monkeypatch.setattr(condisc.render, "build_tx", broken)  # the analysis itself calls conductor's build_tx
    target = tmp_path / "dots"
    assert main(["analyze", str(fixture_a_file), "--dot-dir", str(target)]) == 2
    assert capsys.readouterr() == ("", "internal invariant violation: boom\n")
    assert not target.exists()


def test_dot_weight_two_drawn_doubled(tmp_path, capsys):
    from conftest import WEIGHT2

    path = write_instance(tmp_path / "w2.json", WEIGHT2)
    out = tmp_path / "dots"
    assert main(["analyze", str(path), "--dot-dir", str(out)]) == 0
    capsys.readouterr()
    tx = (out / "t_x.dot").read_text()
    edges = [ln for ln in tx.splitlines() if " -- " in ln]
    assert len(edges) == 4  # two weight-2 intersections, drawn twice each
    assert len(set(edges)) == 2


def test_batch_mode(tmp_path, capsys):
    for fx in (FIXTURE_A, FIXTURE_B, FIXTURE_C):
        write_instance(tmp_path / f"{fx['label']}.json", fx)
    assert main(["batch", str(tmp_path)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 3
    assert all(doc["inequality_holds"] for doc in lines)
    assert sorted(doc["label"] for doc in lines) == ["fixtureA", "fixtureB", "fixtureC"]


def test_batch_hundred_generated_instances(tmp_path, capsys):
    from condisc.harness import default_specs, gen_instance

    for k, spec in enumerate(default_specs(100, base_seed=2000)):
        inst = gen_instance(spec)
        payload = {"mode": "roots", "p": inst.p, "roots": [str(r) for r in inst.roots]}
        (tmp_path / f"gen{k:03}.json").write_text(json.dumps(payload))
    assert main(["batch", str(tmp_path)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 100
    assert all(doc["inequality_holds"] for doc in lines)


def test_matrix_mode_label_reaches_report(tmp_path, capsys):
    rows = [[None if i == j else 0 for j in range(6)] for i in range(6)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"mode": "matrix", "valuations": rows, "label": "flatland"}))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "flatland" and doc["nu_df"] == 0


def test_batch_empty_directory(tmp_path, capsys):
    assert main(["batch", str(tmp_path)]) == 1
    assert "no instances found" in capsys.readouterr().err


def test_batch_collects_per_file_errors(tmp_path, capsys):
    write_instance(tmp_path / "ok.json", FIXTURE_A)
    (tmp_path / "bad.json").write_text(json.dumps({"mode": "roots", "p": 2, "roots": ["0", "1", "2", "3", "4", "5"]}))
    assert main(["batch", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1
    assert "bad.json" in captured.err and "1 invalid" in captured.err


def _fail_on_fixture_b(monkeypatch, target, error):
    """Make the CLI's `analyze`, or `Report.json_rows`, raise `error` for fixtureB only."""
    if target == "analyze":
        true_analyze = condisc.cli.analyze

        def analyze(source, **kwargs):
            if kwargs["label"] == "fixtureB":
                raise error
            return true_analyze(source, **kwargs)

        monkeypatch.setattr(condisc.cli, "analyze", analyze)
    else:
        true_rows = condisc.conductor.Report.json_rows

        def json_rows(report, compact=False):
            if report.label == "fixtureB":
                raise error
            return true_rows(report, compact)

        monkeypatch.setattr(condisc.conductor.Report, "json_rows", json_rows)


def test_batch_reports_an_unexpected_error_against_its_file_and_goes_on(tmp_path, capsys, monkeypatch):
    for fx in (FIXTURE_A, FIXTURE_B, FIXTURE_C):
        write_instance(tmp_path / f"{fx['label']}.json", fx)
    for target in ("analyze", "json_rows"):  # the file's analysis fails, then the making of its rows
        with monkeypatch.context() as patch:
            _fail_on_fixture_b(patch, target, RuntimeError("boom"))
            assert main(["batch", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert [json.loads(l)["label"] for l in captured.out.splitlines()] == ["fixtureA", "fixtureC"]
        assert "fixtureB.json: INTERNAL: RuntimeError: boom\n" in captured.err
        assert "0 invalid, 1 internal failures out of 3 files" in captured.err


@pytest.mark.parametrize("error, code, message", [
    (RuntimeError("boom"), 2, "internal invariant violation: RuntimeError: boom\n"),
    (MemoryError(), 1, "error: out of memory\n"),
], ids=["internal", "memory"])
def test_batch_error_after_a_files_first_row_ends_the_run(tmp_path, capsys, monkeypatch, fixture_a, error, code,
                                                          message):
    for fx in (FIXTURE_A, FIXTURE_B, FIXTURE_C):
        write_instance(tmp_path / f"{fx['label']}.json", fx)
    rows = condisc.conductor.analyze(fixture_a).json_rows(compact=True)
    written = "".join(itertools.islice(rows, 2))  # the header and fixtureA's first row
    true_rows = condisc.cluster.ClusterTree.rows

    def rows(tree):  # fixtureA's tree has 4 rows: the run fails at its second
        yield next(true_rows(tree))
        raise error

    monkeypatch.setattr(condisc.cluster.ClusterTree, "rows", rows)
    assert main(["batch", str(tmp_path)]) == code
    assert capsys.readouterr() == (written, message)  # one stderr line, as analyze --format json; no summary


@pytest.mark.parametrize("command, owner, target, error", [
    ("analyze", condisc.cli, "analyze", RuntimeError("boom")),
    ("fuzz", condisc.harness, "run_trial", KeyError("boom")),  # fuzz imports it when it runs
], ids=["analyze", "fuzz"])
def test_unexpected_error_exits_two_with_one_line(fixture_a_file, capsys, monkeypatch, command, owner, target, error):
    def raising(*args, **kwargs):
        raise error

    monkeypatch.setattr(owner, target, raising)
    argv = ["analyze", str(fixture_a_file)] if command == "analyze" else ["fuzz", "--trials", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal invariant violation: {type(error).__name__}: {error}\n"


@pytest.mark.parametrize("command, target", [
    ("analyze", "analyze"),
    ("batch", "analyze"),
    ("batch", "json_rows"),  # the file's rows run out of memory as they are set up
], ids=["analyze", "batch", "batch-line"])
def test_running_out_of_memory_exits_one_with_one_line(tmp_path, capsys, monkeypatch, command, target):
    for fx in (FIXTURE_A, FIXTURE_B, FIXTURE_C):
        write_instance(tmp_path / f"{fx['label']}.json", fx)
    _fail_on_fixture_b(monkeypatch, target, MemoryError)
    if command == "analyze":
        assert main(["analyze", str(tmp_path / "fixtureB.json")]) == 1
        assert capsys.readouterr() == ("", "error: out of memory\n")
    else:  # batch counts the file as invalid and goes on
        assert main(["batch", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert [json.loads(l)["label"] for l in captured.out.splitlines()] == ["fixtureA", "fixtureC"]
        assert captured.err == "fixtureB.json: out of memory\nbatch: 1 invalid, 0 internal failures out of 3 files\n"


def test_batch_labels_an_unlabelled_file_by_its_name(tmp_path, capsys):
    doc = {"mode": "roots", "p": FIXTURE_A["p"], "roots": FIXTURE_A["roots"]}
    (tmp_path / "nameless.json").write_text(json.dumps(doc))
    assert main(["batch", str(tmp_path)]) == 0
    line = capsys.readouterr().out
    report = condisc.conductor.analyze(Instance.from_values(FIXTURE_A["p"], FIXTURE_A["roots"], label="nameless"))
    assert line == report.to_json_line() + "\n"


def test_fuzz_smoke(capsys):
    assert main(["fuzz", "--trials", "20", "--seed", "7"]) == 0
    assert "20 trials ok" in capsys.readouterr().out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "condisc" in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert capsys.readouterr() == (condisc.cli._build_parser().format_help(), "")


@pytest.mark.parametrize("argv, prog, needle", [
    (["analyze"], "condisc analyze", "the following arguments are required: input"),
    # batch has no --format: an option the subcommand does not know is left to the top-level parser
    (["batch", "D", "--format", "csv"], "condisc", "unrecognized arguments: --format csv"),
    (["batch", "D", "--format", "jsonl"], "condisc", "unrecognized arguments: --format jsonl"),
    (["fuzz", "--trials", "x"], "condisc fuzz", "argument --trials: invalid int value: 'x'"),
    (["fuzz", "--trials", "-5"], "condisc fuzz", "argument --trials: must be 0 or more, got -5"),
], ids=["no-input", "bad-format", "batch-format-jsonl", "bad-trials", "negative-trials"])
def test_usage_error_exits_one(capsys, argv, prog, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} ") and f"{prog}: error: {needle}" in err


def test_p_above_the_digit_cap_exits_one_before_the_primality_test(tmp_path, capsys, monkeypatch):
    import condisc.valuation as cv

    def is_odd_prime(n):
        raise AssertionError("the primality test ran on a p above the cap")

    monkeypatch.setattr(cv, "is_odd_prime", is_odd_prime)
    path = tmp_path / "huge_p.json"
    path.write_text(json.dumps({"mode": "roots", "p": 10**cv.P_MAX_DIGITS + 1, "roots": ["0", "1", "2", "3", "4", "5"]}))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == f"error: p has more than {cv.P_MAX_DIGITS} decimal digits (P_MAX_DIGITS)\n"


def test_largest_prime_under_the_digit_cap_is_analyzed(tmp_path, capsys):
    from condisc.valuation import P_MAX_DIGITS

    p = 10**P_MAX_DIGITS - 1769  # the largest prime with P_MAX_DIGITS digits
    path = tmp_path / "big_p.json"
    path.write_text(json.dumps({"mode": "roots", "p": p, "roots": ["0", "1", "2", "3", "4", "5"]}))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["nu_df"] == 0


def test_composite_at_the_digit_cap_exits_one(tmp_path, capsys):
    from condisc.valuation import P_MAX_DIGITS

    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

    def no_small_factor(start):
        return next(n for n in range(start, start + 10**4) if all(n % q for q in small_primes))

    a = no_small_factor(10 ** (P_MAX_DIGITS // 2 - 1))
    b = no_small_factor(10 ** (P_MAX_DIGITS // 2))
    p = a * b  # trial division up to 41 cannot reject it
    assert len(str(p)) == P_MAX_DIGITS
    path = tmp_path / "big_composite_p.json"
    path.write_text(json.dumps({"mode": "roots", "p": p, "roots": ["0", "1", "2", "3", "4", "5"]}))
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 1
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: p = {p} is not prime\n"


def test_twenty_roots_of_3800_digits(tmp_path, capsys):
    # every pair has valuation 8000 + v_3(i - j), so each of the 190 differences is
    # divisible by 3**8000: a division per unit of valuation took seconds here
    base = 3**8000
    common = 10**3818 + 12345
    roots = [common + i * base for i in range(20)]
    assert {len(str(r)) for r in roots} == {3819}
    path = tmp_path / "big_roots.json"
    path.write_text(json.dumps({"mode": "roots", "p": 3, "roots": [str(r) for r in roots]}))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)

    def v3(n):
        return 0 if n % 3 else 1 + v3(n // 3)

    assert doc["nu_df"] == 2 * sum(8000 + v3(j - i) for i in range(20) for j in range(i + 1, 20))
    assert doc["inequality_holds"] and len(doc["vertices"]) > 8000


@pytest.mark.parametrize(
    "rows, needle",
    [
        ([[None, 1, 1], [1, None, 1], [1]], "matrix row 2 has length 1, expected 3"),
        ([[None, True, 0, 0, 0, 0]] + [[0 if i != j else None for j in range(6)] for i in range(1, 6)],
         "must be a nonnegative integer, got True"),
    ],
    ids=["ragged", "bool"],
)
def test_malformed_matrix_exit_one(tmp_path, capsys, rows, needle):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"mode": "matrix", "valuations": rows}))
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err and "Traceback" not in err


def _inject(rows, kind, i, j):
    """One defect of `kind` at (i, j), i != j; a value is written to both (i, j) and (j, i)."""
    if kind == "diagonal":
        rows[i][i] = 0
    elif kind == "diagonal-inf":  # a float inf, as a file's Infinity reads, is not INFINITY itself
        rows[i][i] = float("inf")
    elif kind == "asymmetric":
        rows[i][j] += 1
    elif kind == "short":
        rows[i].pop()
    else:
        v = rows[i][j]
        rows[i][j] = rows[j][i] = {"null": None, "bool": True, "float": v + 0.5, "string": str(v),
                                   "infinity": float("inf"), "negative": -1 - v}[kind]


DEFECTS = {  # kind -> the message check_shape gives for it, at (a, b) = (min(i, j), max(i, j))
    "diagonal": "matrix diagonal entry ({i}, {i}) must be null/INFINITY",
    "diagonal-inf": "matrix diagonal entry ({i}, {i}) must be null/INFINITY",
    "null": "duplicate roots at indices ({a}, {b})",
    "bool": "matrix entry ({a}, {b}) must be a nonnegative integer, got True",
    "float": "matrix entry ({a}, {b}) must be a nonnegative integer, got ",
    "string": "matrix entry ({a}, {b}) must be a nonnegative integer, got '",
    "infinity": "matrix entry ({a}, {b}) must be a nonnegative integer, got inf",
    "negative": "matrix entry ({a}, {b}) must be a nonnegative integer, got -",
    "asymmetric": "matrix not symmetric at ({a}, {b})",
    "short": "matrix row {i} has length {short}, expected {n}",
}


def _rejected_alike(tmp_path, capsys, rows) -> str:
    """The message `analyze` rejects `rows` with, after checking that the tree
    build called directly, and the file of `rows`, which exits 1, give the same one."""
    with pytest.raises(InstanceError) as api:
        analyze(matrix_from_rows(rows))
    message = str(api.value)
    with pytest.raises(InstanceError) as direct:
        build_cluster_tree(matrix_from_rows(rows))
    assert str(direct.value) == message
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"mode": "matrix", "valuations": rows}))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    return message


def _valid_rows(rng, n):
    matrix = build_matrix(Instance.from_values(3, rng.sample(range(3**6), n)))
    return [[None if e is INFINITY else e for e in row] for row in matrix.entries]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", sorted(DEFECTS))
def test_file_and_api_reject_a_bad_matrix_entry_alike(tmp_path, capsys, kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    n = rng.randint(6, 60)
    rows = _valid_rows(rng, n)
    i, j = rng.sample(range(n), 2)
    # the defect at a random place, then in the first and in the last row
    for i, j in ((i, j), (0, rng.randrange(1, n)), (n - 1, rng.randrange(n - 1))):
        bad = copy.deepcopy(rows)
        _inject(bad, kind, i, j)
        message = _rejected_alike(tmp_path, capsys, bad)
        assert message.startswith(DEFECTS[kind].format(i=i, a=min(i, j), b=max(i, j), short=n - 1, n=n))


def _two_defects(rows, case):
    if case == "short-row-after-bad-entry":  # every row's length is checked first
        rows[1][2] = rows[2][1] = "x"
        rows[4].pop()
    elif case == "bad-diagonal-after-bad-entry":
        rows[1][3] = rows[3][1] = 0.5
        rows[2][2] = 0
    elif case == "bad-entry-after-bad-diagonal":
        rows[2][2] = 0
        rows[3][4] = rows[4][3] = -1
    elif case == "transpose-true-differs":  # (1, 4) = 2 is valid; its transpose is checked next
        rows[1][4], rows[4][1] = 2, True
    elif case == "transpose-true-equals":  # True == 1: found in row 4, as the entry itself
        rows[1][4], rows[4][1] = 1, True
    elif case == "transpose-float-equals":
        rows[1][4], rows[4][1] = 1, 1.0
    elif case == "null-and-asymmetric":
        rows[0][5] += 1
        rows[3][5] = rows[5][3] = None


TWO_DEFECTS = {  # case -> the message of the defect check_shape reaches first
    "short-row-after-bad-entry": "matrix row 4 has length 5, expected 6",
    "bad-diagonal-after-bad-entry": "matrix entry (1, 3) must be a nonnegative integer, got 0.5",
    "bad-entry-after-bad-diagonal": "matrix diagonal entry (2, 2) must be null/INFINITY",
    "transpose-true-differs": "matrix entry (4, 1) must be a nonnegative integer, got True",
    "transpose-true-equals": "matrix entry (4, 1) must be a nonnegative integer, got True",
    "transpose-float-equals": "matrix entry (4, 1) must be a nonnegative integer, got 1.0",
    "null-and-asymmetric": "matrix not symmetric at (0, 5)",
}


@pytest.mark.parametrize("case", sorted(TWO_DEFECTS))
def test_file_and_api_name_the_first_of_two_matrix_defects_alike(tmp_path, capsys, case):
    rows = _valid_rows(random.Random(case), 6)
    _two_defects(rows, case)
    assert _rejected_alike(tmp_path, capsys, rows) == TWO_DEFECTS[case]


def _moved_defect(case):
    """Rows whose only defects are asymmetry or sign, which check_shape leaves to the tree build."""
    n = {"odd-asymmetric": 7, "four-negative": 4}.get(case, 6)
    rows = [[None if i == j else 0 for j in range(n)] for i in range(n)]
    if case == "odd-asymmetric":
        rows[2][5] = 1
    elif case == "four-negative":
        rows[1][3] = rows[3][1] = -1
    elif case == "all-negative":  # consistent and ultrametric: the certificate passes below depth 0
        rows = [[None if i == j else -1 for j in range(n)] for i in range(n)]
    elif case == "asymmetric-past-the-budget":  # (0, 1) stays together to depth 2**63 in row 0 only
        rows[0][1], rows[1][0] = 2**63, 2**63 - 1
    elif case == "asymmetric-below":  # classes {0, 1}, {2}, ...: only the lower orientation reads (2, 1)
        rows[0][1] = rows[1][0] = rows[2][1] = 1
    elif case == "negative-and-not-ultrametric":
        for (i, j), v in {(0, 1): 2, (1, 2): 2, (0, 2): 1, (3, 4): -1}.items():
            rows[i][j] = rows[j][i] = v
    return rows


MOVED_DEFECTS = {  # case -> the message check_shape gave for it, now given by the tree build's rejection
    "odd-asymmetric": "matrix not symmetric at (2, 5)",
    "four-negative": "matrix entry (1, 3) must be a nonnegative integer, got -1",
    "all-negative": "matrix entry (0, 1) must be a nonnegative integer, got -1",
    "asymmetric-past-the-budget": "matrix not symmetric at (0, 1)",
    "asymmetric-below": "matrix not symmetric at (1, 2)",
    "negative-and-not-ultrametric": "matrix entry (3, 4) must be a nonnegative integer, got -1",
}


@pytest.mark.parametrize("case", sorted(MOVED_DEFECTS))
def test_tree_build_names_asymmetry_and_sign_as_check_shape_did(tmp_path, capsys, case):
    rows = _moved_defect(case)
    matrix_from_rows(rows).check_shape()  # lengths, diagonal and types are fine
    assert _rejected_alike(tmp_path, capsys, rows) == MOVED_DEFECTS[case]


def test_valid_matrix_is_certified_without_the_scans(monkeypatch):
    import condisc.valuation as cv

    rows = _valid_rows(random.Random("certified"), 60)
    expected = analyze(matrix_from_rows(rows)).to_json()
    for module, name in ((cv, "_check_entry"), (cv.ValuationMatrix, "_scan"), (condisc.cluster, "validate_ultrametric")):
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    assert analyze(matrix_from_rows(rows)).to_json() == expected

    class Row(tuple):  # counts the reads of each entry
        def __getitem__(self, j):
            reads[self.i, j] += 1
            return tuple.__getitem__(self, j)

    reads = collections.Counter()
    entries = []
    for i, row in enumerate(matrix_from_rows(rows).entries):
        entries.append(Row(row))
        entries[-1].i = i
    build_cluster_tree(cv.ValuationMatrix(tuple(entries)))
    n = len(rows)
    # the certificate reads every entry off the diagonal, in both orientations
    assert {pair for pair in reads if pair[0] != pair[1]} == {(i, j) for i in range(n) for j in range(n) if i != j}
    assert sum(reads.values()) < 2 * n * n


class _Valuation(int):
    """An int subclass: the entry check accepts it, as it accepts int."""


def test_valid_matrices_outside_the_file_format_are_accepted(tmp_path, capsys, monkeypatch):
    import condisc.valuation as cv

    rows = _valid_rows(random.Random("scan"), 20)
    expected = analyze(matrix_from_rows(rows)).to_json()
    # an entry of a subclass of int fails the whole-matrix test, and the scan accepts it
    scanned = []
    monkeypatch.setattr(cv, "_check_entry", lambda e, i, j, check=cv._check_entry: scanned.append(e) or check(e, i, j))
    sub = copy.deepcopy(rows)
    sub[3][7] = sub[7][3] = _Valuation(sub[3][7])
    assert analyze(matrix_from_rows(sub)).to_json() == expected
    assert any(type(e) is _Valuation for e in scanned)
    # rows given as lists, not tuples
    assert analyze(cv.ValuationMatrix([list(row) for row in matrix_from_rows(rows).entries])).to_json() == expected
    # a valuation above 2**63 passes the entry checks; the vertex budget rejects it
    big = _chain_rows(6, 2**63 + 5)
    matrix_from_rows(big).check_shape()
    assert "budget of 1000000 vertices" in _rejected_alike(tmp_path, capsys, big)


def _chain_rows(n, depth):
    """Matrix-mode instance: roots 0 and 1 stay together down a chain of `depth` vertices."""
    rows = [[None if i == j else 0 for j in range(n)] for i in range(n)]
    rows[0][1] = rows[1][0] = depth
    return rows


def test_text_output_on_a_chain_deeper_than_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"mode": "matrix", "valuations": _chain_rows(6, 1200)}))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"{'  ' * 1201}v1200  wt=2" in out


def test_valuation_past_the_vertex_budget_exit_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"mode": "matrix", "valuations": _chain_rows(6, 10**9)}))
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 1
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "budget of 1000000 vertices" in captured.err


K = 5000
CHAINS = {  # p = 3 roots, one chain of depth K: (roots, tree vertices, components)
    "even": ((0, 3**K, 1, 2, 4, 5), 5003, 10003),
    "odd-weight": ((0, 3**K, 2 * 3**K, 1, 2, 4), 5002, 5002),
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_of_depth_5000(tmp_path, capsys, chain):
    roots, n_tree, n_x = CHAINS[chain]
    matrix = build_matrix(Instance.from_values(3, roots))
    assert trees_agree(build_cluster_tree(matrix), naive_tree_oracle(matrix))
    path = write_instance(tmp_path / "chain.json", dict(p=3, roots=roots))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) == n_tree and doc["n_components"] == n_x
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"components n(X) = {n_x} " in out
    rows = out.split("tree (wt, parity, d, D'', =?):\n")[1].splitlines()
    assert len(rows) == n_tree
    assert max(len(row) - len(row.lstrip()) for row in rows) == 2 * (K + 1)  # depth K, one indent deeper


def test_text_tree_is_indented_preorder():
    from condisc.harness import default_specs, gen_instance
    from condisc.render import render_text

    for spec in default_specs(40, base_seed=300):
        report = condisc.conductor.analyze(gen_instance(spec))
        expected = []

        def walk(vid, indent):  # the recursive reference: fine on these shallow trees
            expected.append(f"{'  ' * indent}v{vid}  wt={report.tree[vid].wt}  ")
            for c in report.tree[vid].children:
                walk(c, indent + 1)

        walk(0, 1)
        rows = render_text(report).split("tree (wt, parity, d, D'', =?):\n")[1].splitlines()
        assert len(rows) == len(expected)
        assert [row[: len(e)] for row, e in zip(rows, expected)] == expected


def test_each_gate_runs_once_per_analysis(tmp_path, capsys, monkeypatch):
    import condisc.valuation as cv

    calls = {"validate": 0, "check_shape": 0, "count_gate": 0, "scan": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cv.Instance, "validate", counted("validate", cv.Instance.validate))
    monkeypatch.setattr(cv.ValuationMatrix, "check_shape", counted("check_shape", cv.ValuationMatrix.check_shape))
    # build_cluster_tree holds the root-count gate, after a matrix's check_shape
    monkeypatch.setattr(condisc.conductor, "build_cluster_tree",
                        counted("count_gate", condisc.conductor.build_cluster_tree))
    # the O(n^3) ultrametric scan runs only when the tree's certificate fails
    monkeypatch.setattr(condisc.cluster, "validate_ultrametric",
                        counted("scan", condisc.cluster.validate_ultrametric))
    roots = write_instance(tmp_path / "roots.json", FIXTURE_A)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"mode": "matrix", "valuations": _chain_rows(6, 3)}))
    assert main(["analyze", str(roots)]) == 0
    assert calls == {"validate": 1, "check_shape": 0, "count_gate": 1, "scan": 0}
    assert main(["analyze", str(matrix)]) == 0
    assert calls == {"validate": 1, "check_shape": 1, "count_gate": 2, "scan": 0}
    condisc.conductor.analyze(cv.matrix_from_rows(_chain_rows(6, 3)))
    assert calls == {"validate": 1, "check_shape": 2, "count_gate": 3, "scan": 0}
    rows = _chain_rows(6, 3)
    rows[2][3] = rows[3][2] = rows[3][4] = rows[4][3] = 1  # but v(2, 4) = 0: not ultrametric
    matrix.write_text(json.dumps({"mode": "matrix", "valuations": rows}))
    assert main(["analyze", str(matrix)]) == 1
    assert "ultrametric violation" in capsys.readouterr().err
    assert calls == {"validate": 1, "check_shape": 3, "count_gate": 4, "scan": 1}
    rows = _chain_rows(6, 3)
    rows[0][2] = rows[2][0] = True  # the entry check has one home: check_shape, not the file reader
    matrix.write_text(json.dumps({"mode": "matrix", "valuations": rows}))
    assert main(["analyze", str(matrix)]) == 1
    assert "matrix entry (0, 2) must be a nonnegative integer, got True" in capsys.readouterr().err
    # build_cluster_tree is called, and its check_shape raises before the root count
    assert calls == {"validate": 1, "check_shape": 4, "count_gate": 5, "scan": 1}


def test_roots_mode_does_not_import_sympy(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    path = write_instance(tmp_path / "a.json", FIXTURE_A)
    code = "import sys; from condisc.cli import main; main(sys.argv[1:]); print('sympy' in sys.modules)"
    src = Path(condisc.conductor.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, "analyze", str(path)], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, check=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "False"


def test_cli_does_not_import_dataclasses_or_the_harness(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    path = write_instance(tmp_path / "a.json", FIXTURE_A)
    batch = tmp_path / "batch"
    batch.mkdir()
    write_instance(batch / "b.json", FIXTURE_B)
    matrix = [[None if i == j else 1 for j in range(6)] for i in range(6)]
    (batch / "m.json").write_text(json.dumps({"mode": "matrix", "valuations": matrix}))
    code = (
        "import sys; import condisc.cli; "
        "assert condisc.cli.main(['analyze', sys.argv[1], '--format', 'json']) == 0; "
        "assert condisc.cli.main(['batch', sys.argv[2]]) == 0; "
        "print([m for m in ('dataclasses', 'inspect', 'condisc.harness') if m in sys.modules])"
    )
    src = Path(condisc.conductor.__file__).resolve().parents[1]
    # -S: the interpreter's site packages import modules of their own at start-up
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(path), str(batch)], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)}, check=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_batch_reads_on_past_a_mode_that_is_not_a_string(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps({"mode": []}))  # sorts first: it used to abort the run
    for fx in (FIXTURE_A, FIXTURE_B):
        write_instance(tmp_path / f"{fx['label']}.json", fx)
    assert main(["batch", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert sorted(json.loads(l)["label"] for l in captured.out.splitlines()) == ["fixtureA", "fixtureB"]
    assert "a.json: mode must be 'roots' or 'matrix', got []" in captured.err


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--format", "json"], ["batch"]],
                         ids=["text", "json", "batch"])
def test_label_that_cannot_be_written_as_utf8_exit_one(tmp_path, capsys, argv):
    doc = {"mode": "roots", "p": 5, "roots": ["0", "25", "1", "2", "3", "4"], "label": "\ud800"}
    (tmp_path / "lone.json").write_text(json.dumps(doc))
    target = tmp_path if argv[0] == "batch" else tmp_path / "lone.json"
    assert main([argv[0], str(target), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "label cannot be written as UTF-8" in captured.err


def test_root_in_exponent_notation_exit_one_at_once(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"mode": "roots", "p": 5, "roots": ["0", "1e10000000", "2", "3", "4", "6"]}))
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 1
    assert time.perf_counter() - start < 1
    assert "root 1 must not use exponent notation: '1e10000000'" in capsys.readouterr().err


_FIELD_NAMES = ["mode", "p", "roots", "valuations", "label"]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats()
    | st.text(max_size=6)
    | st.text(st.sampled_from("0123456789/.-+eE_ \ud800"), max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=4), kids, max_size=4),
    max_leaves=10,
)
_VALID_DOCS = (
    {"mode": "roots", "p": 5, "roots": ["0", "25", "1", "2", "3", "4"], "label": "fixtureC"},
    {"mode": "matrix", "valuations": _chain_rows(6, 3), "label": "chain"},
)


@st.composite
def _mutated_instances(draw):
    """A valid instance with one to three fields, rows, roots or entries replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        holder, slot = doc, draw(st.sampled_from(sorted(doc) + ["extra"]))
        while True:
            inner = holder.get(slot) if isinstance(holder, dict) else holder[slot]
            if not (isinstance(inner, list) and inner and draw(st.booleans())):
                break
            holder, slot = inner, draw(st.integers(0, len(inner) - 1))
        if not draw(st.booleans()):
            holder[slot] = draw(_json_values)
        elif isinstance(holder, dict):
            holder.pop(slot, None)
        else:
            del holder[slot]
    return doc


@given(_json_values | _mutated_instances())
@example({"mode": []})
@example({"mode": "roots", "p": 5, "roots": ["0", "25", "1", "2", "3", "4"], "label": "\ud800"})
@example({"mode": "roots", "p": 5, "roots": ["0", "1e10000000", "2", "3", "4", "6"]})
@settings(max_examples=150, deadline=None)
def test_every_file_exits_zero_or_one(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(doc))
        for argv in (["analyze", str(path)], ["analyze", str(path), "--format", "json"], ["batch", tmp]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), (argv, err.getvalue())
            out.getvalue().encode("utf-8")


def _write_failure_inputs(tmp_path):
    """A depth-20000 chain, whose report runs to megabytes, and a file labelled `café π`."""
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({"mode": "matrix", "valuations": _chain_rows(6, 20000)}))
    cafe = write_instance(tmp_path / "cafe.json", dict(FIXTURE_A, label="café π"))
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "deep.json").write_text(deep.read_text())
    return {"deep": str(deep), "cafe": str(cafe), "dir": str(batch)}


@pytest.mark.parametrize("argv, sink, encoding, needle", [
    (["analyze", "deep", "--format", "json"], "pipe", None, "Broken pipe"),
    (["analyze", "deep"], "pipe", None, "Broken pipe"),
    (["analyze", "deep", "--format", "json"], "/dev/full", None, "No space left on device"),
    (["analyze", "cafe"], "null", "ascii", "'ascii' codec can't encode character"),
    (["batch", "dir"], "pipe", None, "Broken pipe"),
    (["batch", "dir"], "/dev/full", None, "No space left on device"),
    (["fuzz", "--trials", "3"], "/dev/full", None, "No space left on device"),
    (["--version"], "/dev/full", None, "No space left on device"),
], ids=["json-to-closed-pipe", "text-to-closed-pipe", "to-full-disk", "unencodable-label",
        "batch-to-closed-pipe", "batch-to-full-disk", "fuzz-to-full-disk", "version-to-full-disk"])
def test_output_that_cannot_be_written_exits_one_with_one_line(tmp_path, argv, sink, encoding, needle):
    import os
    import subprocess
    import sys

    if sink == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    paths = _write_failure_inputs(tmp_path)
    argv = [paths.get(arg, arg) for arg in argv]
    src = Path(condisc.conductor.__file__).resolve().parents[1]
    env = {"PYTHONPATH": str(src), **({"PYTHONIOENCODING": encoding} if encoding else {})}
    with open(tmp_path / "err", "w+") as err, open(os.devnull if sink != "/dev/full" else sink, "w") as out:
        cmd = [sys.executable, "-m", "condisc", *argv]
        if sink == "pipe":  # read the first 100 bytes, as `| head -c 100` would, and close the pipe
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            code = proc.wait(timeout=120)
        else:
            code = subprocess.run(cmd, stdout=out, stderr=err, env=env, timeout=120).returncode
        err.seek(0)
        message = err.read()
    assert code == 1
    assert message.startswith("error: cannot write output: ") and needle in message
    assert message.count("\n") == 1  # no traceback, and no "Exception ignored" at exit


def _run_child(argv, cwd, **kwargs):
    """(exit code, stderr) of `python -m condisc argv` run in `cwd` from this checkout's source."""
    import subprocess
    import sys

    src = Path(condisc.conductor.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "condisc", *argv], cwd=cwd, env={"PYTHONPATH": str(src)},
                          stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [
    ["analyze", "in.json"], ["analyze", "in.json", "--format", "json"], ["batch", "."], ["fuzz", "--trials", "3"],
    ["--version"], ["--help"], ["analyze", "--help"], [],
], ids=["text", "json", "batch", "fuzz", "version", "help", "analyze-help", "no-command"])
def test_closed_stdout_exits_one_with_one_line(tmp_path, argv):
    # `condisc ... >&-`: with descriptor 1 closed at start-up, sys.stdout is None in the child
    write_instance(tmp_path / "in.json", FIXTURE_A)
    code, err = _run_child(argv, tmp_path, preexec_fn=lambda: os.close(1))
    assert (code, err) == (1, "error: cannot write output: [Errno 9] Bad file descriptor\n")


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], []], ids=["help", "analyze-help", "no-command"])
def test_help_to_a_pipe_with_no_reader_exits_one_with_one_line(tmp_path, argv):
    read, write = os.pipe()
    os.close(read)
    try:
        code, err = _run_child(argv, tmp_path, stdout=write)
    finally:
        os.close(write)
    assert (code, err) == (1, "error: cannot write output: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["batch", "--help"], ["fuzz", "--help"]])
def test_help_is_argparse_help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    parser = condisc.cli._build_parser()
    if len(argv) > 1:
        parser = parser._subparsers._group_actions[0].choices[argv[0]]
    assert capsys.readouterr() == (parser.format_help(), "")


def test_help_to_a_given_file_is_argparse_help(capsys):
    parser = condisc.cli._build_parser()
    buf = io.StringIO()
    parser.print_help(buf)
    assert buf.getvalue() == parser.format_help()
    assert capsys.readouterr() == ("", "")


def test_error_raised_while_making_a_row_exits_two(fixture_a_file, capsys, monkeypatch):
    def rows(report):
        yield "first row\n"
        raise OSError("not a write failure")

    monkeypatch.setattr(condisc.cli, "text_rows", rows)
    assert main(["analyze", str(fixture_a_file)]) == 2
    assert capsys.readouterr().err == "internal invariant violation: OSError: not a write failure\n"


def test_write_failure_on_a_stdout_with_no_descriptor_exits_one(fixture_a_file, capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(condisc.cli.sys, "stdout", Closed())
    assert main(["analyze", str(fixture_a_file)]) == 1
    assert capsys.readouterr().err == "error: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc to count open descriptors")
def test_write_failures_leave_no_descriptor_open(fixture_a_file, tmp_path, capsys, monkeypatch):
    class Broken(io.StringIO):  # no descriptor of its own, or the one given
        def __init__(self, fd=None):
            super().__init__()
            self.fd = fd

        def fileno(self):
            return super().fileno() if self.fd is None else self.fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    target = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        for stdout in (Broken(), Broken(target)):
            monkeypatch.setattr(condisc.cli.sys, "stdout", stdout)
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(5):
                assert main(["analyze", str(fixture_a_file)]) == 1
            assert len(os.listdir("/proc/self/fd")) == before
            assert capsys.readouterr().err == "error: cannot write output: [Errno 32] Broken pipe\n" * 5
    finally:
        os.close(target)


def test_flush_failure_exits_one_with_one_line(fixture_a_file, capsys, monkeypatch):
    import errno

    class Full(io.StringIO):  # every write is taken; the flush finds the disk full
        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(condisc.cli.sys, "stdout", Full())
    assert main(["analyze", str(fixture_a_file)]) == 1
    assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"


def test_dot_files_are_utf8_under_an_ascii_locale(fixture_a_file, tmp_path):
    import subprocess
    import sys

    src = Path(condisc.conductor.__file__).resolve().parents[1]
    # the C locale with its coercion and UTF-8 mode off: the locale's encoding is ASCII
    env = {"PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, "-m", "condisc", "analyze", str(fixture_a_file), "--dot-dir",
                           str(tmp_path / "dots")], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "χ=2" in (tmp_path / "dots" / "t_x.dot").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["analyze", "batch"])
def test_instance_files_are_read_as_utf8_under_an_ascii_locale(tmp_path, command):
    import subprocess
    import sys

    src = Path(condisc.conductor.__file__).resolve().parents[1]
    env = {"PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    path = tmp_path / "cafe.json"
    doc = {"mode": "roots", "p": 3, "roots": ["0", "1", "2", "3", "4", "5"], "label": "χ-café"}
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")  # the label's bytes are not ASCII
    argv = ["analyze", str(path), "--format", "json"] if command == "analyze" else ["batch", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-m", "condisc", *argv], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["label"] == "χ-café"
