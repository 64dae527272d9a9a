import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condisc import Instance, InstanceError, ValuationMatrix, analyze, parse_instance_dict
from condisc.cli import main
from condisc.instancefile import _parse_root, load_instance


def test_roots_mode_parses_strings_and_ints():
    inst = parse_instance_dict(
        {"mode": "roots", "p": 5, "roots": ["0", "25", 1, "2", "3", "1/2"], "label": "x"}
    )
    assert isinstance(inst, Instance)
    assert inst.roots == (0, 25, 1, 2, 3, Fraction(1, 2))
    assert inst.label == "x"


def test_matrix_mode_parses():
    rows = [[None, 1, 0, 0, 0, 0],
            [1, None, 0, 0, 0, 0],
            [0, 0, None, 1, 0, 0],
            [0, 0, 1, None, 0, 0],
            [0, 0, 0, 0, None, 1],
            [0, 0, 0, 0, 1, None]]
    m = parse_instance_dict({"mode": "matrix", "valuations": rows})
    assert isinstance(m, ValuationMatrix)
    r = analyze(m)
    assert r.nu_df == 6 and r.artin == 6  # same shape as fixture A


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"mode": "polar"}, "mode must be"),
        ({"mode": "roots", "p": 5}, "missing fields"),
        ({"mode": "roots", "p": 5, "roots": ["0"], "valuations": []}, "unexpected fields"),
        ({"mode": "matrix", "valuations": [[None]], "p": 3}, "unexpected fields"),
        ({"mode": "roots", "p": "5", "roots": ["0", "1", "2", "3", "4", "5"]}, "p must be an integer"),
        ({"mode": "roots", "p": 5, "roots": "0"}, "roots must be a list"),
        ({"mode": "roots", "p": 5, "roots": [0.5, 1, 2, 3, 4, 5]}, "root 0 must be"),
        ({"mode": "roots", "p": 5, "roots": ["1/0", 1, 2, 3, 4, 5]}, "root 0 is not"),
        ({"mode": "roots", "p": 5, "roots": [True, 1, 2, 3, 4, 5]}, "root 0 must be"),
        # reading checks that valuations is a list of lists, not its entries
        ({"mode": "matrix", "valuations": [[None, 1], 1]}, "2-D array"),
        ({"mode": "matrix", "valuations": [[None, 1], {"1": None}]}, "2-D array"),
        ({"mode": "matrix", "valuations": "x"}, "2-D array"),
        ({"mode": "roots", "p": 5, "roots": ["0", "1", "2", "3", "4", "5"], "label": 7}, "label"),
        ([], "JSON object"),
    ],
)
def test_parse_gates(payload, message):
    with pytest.raises(InstanceError, match=message):
        parse_instance_dict(payload)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[None, None], [None, None]], r"duplicate roots at indices \(0, 1\)"),
        ([[None, 1.5], [1.5, None]], "must be a nonnegative integer, got 1.5"),
    ],
    ids=["null", "float"],
)
def test_matrix_entries_are_checked_by_analyze(rows, message):
    m = parse_instance_dict({"mode": "matrix", "valuations": rows})
    with pytest.raises(InstanceError, match=message):
        analyze(m)


def test_matrix_diagonal_must_be_null():
    with pytest.raises(InstanceError, match="diagonal"):
        analyze(
            parse_instance_dict(
                {"mode": "matrix", "valuations": [[0, 1], [1, None]]}
            )
        )


def test_load_instance_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"mode": "roots", "p": 3, "roots": ["0", "1", "2", "3", "4", "5"]}))
    inst, label = load_instance(path)
    assert isinstance(inst, Instance) and label is None
    assert analyze(inst).nu_df == 6


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceError, match="not valid JSON"):
        load_instance(path)


def test_load_instance_missing_file(tmp_path):
    with pytest.raises(InstanceError, match="cannot read"):
        load_instance(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "content",
    [
        b'{"mode": "roots", "p": ' + b"7" * 5000 + b', "roots": ["0", "1", "2", "3", "4", "5"]}',
        b"[" * 100000 + b"]" * 100000,
        b'{"mode": "roots", "p": 5, "roots": ["\xe9"]}',
    ],
    ids=["integer-past-digit-limit", "nested-past-recursion-limit", "not-utf8"],
)
def test_load_instance_json_the_interpreter_cannot_read(tmp_path, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    with pytest.raises(InstanceError, match="cannot read"):
        load_instance(path)


def test_parsing_leaves_validation_to_analyze():
    inst = parse_instance_dict({"mode": "roots", "p": 9, "roots": ["0", "1"]})
    assert inst.p == 9 and len(inst.roots) == 2
    with pytest.raises(InstanceError, match="not prime"):
        analyze(inst)
    m = parse_instance_dict({"mode": "matrix", "valuations": [[None, 1], [1]]})
    with pytest.raises(InstanceError, match="row 1 has length 1"):
        analyze(m)
    m = parse_instance_dict({"mode": "matrix", "valuations": [[None, "1"], ["1", None]]})
    assert m.entries[0][1] == "1"
    with pytest.raises(InstanceError, match="must be a nonnegative integer, got '1'"):
        analyze(m)


def _reads_as_fraction_does(raw: str) -> None:
    """_parse_root(raw) is Fraction(raw), or InstanceError where Fraction raises
    and where raw holds an underscore or whitespace inside its stripped form:
    Python 3.11 and later read underscores between digits, and 3.12 and later
    whitespace around the slash, so the grammar leaves both out and reads
    alike on every supported version."""
    try:
        if "_" in raw or any(c.isspace() for c in raw.strip()):
            raise ValueError
        expected = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InstanceError, match="root 3 is not a decimal integer or fraction"):
            _parse_root(raw, 3)
        return
    got = _parse_root(raw, 3)
    assert type(got) is Fraction and (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


# ASCII "-?digits" and "-?digits/digits" take int(); the rest, Fraction's own parser
@pytest.mark.parametrize("raw", ["-0", "007", "+5", " 5 ", "1_000", "\u0663", "\u0663/\u0664", "\u00b2", "5/0", "5/-7",
                                 "-5/7", "0/3", "3.50", "", "-", "/5", "5/", "--5", "-/5", "1/2/3"])
def test_a_root_string_reads_as_fraction_reads_it(raw):
    _reads_as_fraction_does(raw)


@pytest.mark.parametrize("raw", ["1_000", "1/ 5", "1 /5", " 1 / 5 ", "1_0/3", "1.5_0"])
def test_a_root_with_an_underscore_or_inner_whitespace_is_rejected(raw):
    with pytest.raises(InstanceError, match="root 3 is not a decimal integer or fraction"):
        _parse_root(raw, 3)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="-/0123456789 ._+", max_size=10))
def test_root_strings_read_as_fraction_reads_them(raw):
    _reads_as_fraction_does(raw)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer-string limit")
@pytest.mark.parametrize("root", ["1" * 5000, "-1/" + "3" * 5000], ids=["integer", "denominator"])
def test_a_root_past_the_digit_limit_gets_one_short_line(tmp_path, capsys, root):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"mode": "roots", "p": 5, "roots": ["0", "1", "2", "3", "4", root]}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["analyze", str(path)]) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200
    assert captured.err.startswith("error: root 5 has 5000 digits in a row") and "4300" in captured.err


@pytest.mark.parametrize("root", ["x" * 5000, "1e" + "x" * 5000], ids=["malformed", "exponent"])
def test_a_long_malformed_root_is_echoed_in_part(tmp_path, capsys, root):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"mode": "roots", "p": 5, "roots": ["0", "1", "2", "3", "4", root]}))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200
    assert captured.err.endswith(f" {root[:40]!r}...\n")


@pytest.mark.parametrize("root, message", [
    ("5x", "error: root 5 is not a decimal integer or fraction: '5x'\n"),
    ("x" * 40, f"error: root 5 is not a decimal integer or fraction: '{'x' * 40}'\n"),
    ("1e5", "error: root 5 must not use exponent notation: '1e5'\n"),
])
def test_a_short_malformed_root_is_echoed_whole(tmp_path, capsys, root, message):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"mode": "roots", "p": 5, "roots": ["0", "1", "2", "3", "4", root]}))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == message
