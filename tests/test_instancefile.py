import json
from fractions import Fraction

import pytest

from condisc import Instance, InstanceError, ValuationMatrix, analyze, parse_instance_dict
from condisc.instancefile import load_instance


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
