"""Reading instance files.

An instance file is a JSON object in one of two modes::

    {"mode": "roots",  "p": 5, "roots": ["0", "25", "1", "2", "3", "4"],
     "label": "optional"}

    {"mode": "matrix", "valuations": [[null, 1], [1, null]],
     "label": "optional"}

Roots are decimal strings, either integers, fractions ``"a/b"`` or decimals,
without exponent notation, underscores or whitespace inside, so the file
format carries no integer-width assumptions and reads alike on every supported
Python; plain JSON integers are accepted as well.  A label must be text
that can be written as UTF-8.  The matrix diagonal must be ``null``.
Exactly the fields of the declared mode may appear.

Reading checks the file's fields, their JSON types and that ``valuations`` is
a list of lists, not its entries; the reader of the instance it returns
checks the rest: :func:`~condisc.valuation.residues` runs
:meth:`~condisc.valuation.Instance.validate`, and
:func:`~condisc.cluster.build_cluster_tree` a matrix's ``check_shape``.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import InstanceError
from .valuation import Instance, ValuationMatrix, matrix_from_rows

_FIELDS = {
    "roots": {"mode", "p", "roots", "label"},
    "matrix": {"mode", "valuations", "label"},
}


_ECHO_CHARS = 40  # of a root, echoed in the message that rejects it


def _echo(raw: str) -> str:
    return repr(raw) if len(raw) <= _ECHO_CHARS else f"{raw[:_ECHO_CHARS]!r}..."


def _parse_root(raw, index: int) -> Fraction:
    if isinstance(raw, bool):
        raise InstanceError(f"root {index} must be an integer or a decimal string, got {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if not isinstance(raw, str):
        raise InstanceError(f"root {index} must be an integer or a decimal string, got {type(raw).__name__}")
    # Fraction("1e10000000") computes 10**10000000: its cost is not bounded by the string's length
    if "e" in raw or "E" in raw:
        raise InstanceError(f"root {index} must not use exponent notation: {_echo(raw)}")
    num, slash, den = raw.partition("/")
    try:
        # ASCII "-?digits" or "-?digits/digits" is read by int(), without Fraction's regex
        if raw.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        if "_" in raw or len(raw.split()) > 1:  # Fraction reads these on some Python versions only
            raise ValueError
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(_bad_root(raw, index)) from exc


def _bad_root(raw: str, index: int) -> str:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    digits = max(map(len, re.findall(r"\d+", raw)), default=0)
    if limit and digits > limit:
        return (
            f"root {index} has {digits} digits in a row ({len(raw)} characters), more than the {limit} "
            f"this interpreter reads as an integer (PYTHONINTMAXSTRDIGITS): {_echo(raw)}"
        )
    return f"root {index} is not a decimal integer or fraction: {_echo(raw)}"


def parse_instance_dict(data) -> Instance | ValuationMatrix:
    if not isinstance(data, dict):
        raise InstanceError("instance file must contain a JSON object")
    mode = data.get("mode")
    if not isinstance(mode, str) or mode not in _FIELDS:
        raise InstanceError(f"mode must be 'roots' or 'matrix', got {mode!r}")
    extra = set(data) - _FIELDS[mode]
    if extra:
        raise InstanceError(f"unexpected fields for mode '{mode}': {sorted(extra)}")
    missing = _FIELDS[mode] - {"label"} - set(data)
    if missing:
        raise InstanceError(f"missing fields for mode '{mode}': {sorted(missing)}")
    label = data.get("label")
    if label is not None:
        if not isinstance(label, str):
            raise InstanceError("label must be a string")
        try:  # a lone surrogate is valid JSON but cannot be written out
            label.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InstanceError(f"label cannot be written as UTF-8: {exc.reason} at position {exc.start}") from exc

    if mode == "roots":
        p = data["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise InstanceError(f"p must be an integer, got {p!r}")
        raw = data["roots"]
        if not isinstance(raw, list):
            raise InstanceError("roots must be a list")
        roots = tuple(_parse_root(x, i) for i, x in enumerate(raw))
        return Instance(p=p, roots=roots, label=label)

    rows = data["valuations"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceError("valuations must be a 2-D array")
    return matrix_from_rows(rows)


def load_instance(path: str | Path) -> tuple[Instance | ValuationMatrix, str | None]:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))  # JSON is UTF-8, whatever the locale
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path} is not valid JSON: {exc}") from exc
    # a file that cannot be opened, bytes that are not UTF-8, an integer past
    # the interpreter's digit limit, or arrays nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    return parse_instance_dict(data), data.get("label")  # data is a dict once it parses
