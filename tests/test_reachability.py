"""Every public function of the analysis modules is reached by a run.

``analyze`` and every writer run under :func:`sys.setprofile` over a corpus:
the roots instances of ``default_specs(200)`` and their matrix twins, the
matrices of ``chain_cases(12)`` (cut chains), a matrix that is not
ultrametric, and a roots file and a matrix file read through
``load_instance``.  Each public function, method, property and cached
property (no leading ``_``) defined in the modules below must be called at
least once.  Code that only tests, oracles or demos call belongs in the
harness or the tests.

``ALLOWED`` lists the names exempt today.  Each must still exist and must
not be called, so the list can only shrink.
"""

import inspect
import json
import sys
from functools import cached_property

import pytest

import condisc.cluster
import condisc.conductor
import condisc.dualgraph
import condisc.instancefile
import condisc.render
import condisc.valuation
from condisc import UltrametricViolationError, analyze, build_matrix, load_instance, matrix_from_rows
from condisc.harness import default_specs, gen_instance
from condisc.render import render_text, write_dot

from conftest import FIXTURE_A, chain_cases, write_instance

MODULES = (
    condisc.valuation,
    condisc.cluster,
    condisc.dualgraph,
    condisc.conductor,
    condisc.render,
    condisc.instancefile,
)

ALLOWED = {
    # perfbench/spans.py rebinds these three by module and name (XGraph.neighbors
    # to count its calls), so they stay until the benchmark reads a tracer
    # instead (ROADMAP items 9 and 12)
    "valuation.build_matrix",
    "cluster.equation_discriminant",
    "dualgraph.XGraph.neighbors",
    # exported API that the oracles, the demos or the tests call
    "valuation.val",
    "valuation.Instance.from_values",
    "valuation.Instance.num_roots",
}

NOT_ULTRAMETRIC = [
    [None, 2, 0, 0, 0, 0],
    [2, None, 2, 0, 0, 0],
    [0, 2, None, 0, 0, 0],
    [0, 0, 0, None, 0, 0],
    [0, 0, 0, 0, None, 0],
    [0, 0, 0, 0, 0, None],
]


def _function_of(member):
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__
    if isinstance(member, property):
        return member.fget
    if isinstance(member, cached_property):
        return member.func
    return member if inspect.isfunction(member) else None


def public_code(module) -> dict:
    """{"module.name" or "module.Class.name": code object} for each public
    function, method, property and cached property defined in ``module``."""
    short = module.__name__.rpartition(".")[2]
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue  # private, or imported from elsewhere
        if inspect.isfunction(obj):
            out[f"{short}.{name}"] = obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = _function_of(member)
                if fn is not None and not attr.startswith("_"):
                    out[f"{short}.{name}.{attr}"] = fn.__code__
    return out


def _write_all(report, dot_dir) -> None:
    """Every writer, as the command line calls them."""
    report.to_json()
    report.to_json_line()
    report.to_json_dict()
    render_text(report)
    report.contractible
    write_dot(report, dot_dir)


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    """The code objects called while analyzing the corpus and writing every report."""
    sources = []
    for spec in default_specs(200):
        inst = gen_instance(spec)
        sources += [inst, build_matrix(inst)]
    sources += [matrix_from_rows(rows) for _, rows in chain_cases(12)]
    bad = matrix_from_rows(NOT_ULTRAMETRIC)
    tmp = tmp_path_factory.mktemp("reach")
    roots_file = write_instance(tmp / "roots.json", FIXTURE_A)
    matrix_file = tmp / "matrix.json"
    matrix_file.write_text(json.dumps({"mode": "matrix", "valuations": next(chain_cases(12))[1]}))

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sources += [load_instance(path)[0] for path in (roots_file, matrix_file)]
        for source in sources:
            _write_all(analyze(source), tmp / "dots")
        with pytest.raises(UltrametricViolationError):
            analyze(bad)
    finally:
        sys.setprofile(previous)
    return seen


@pytest.fixture(scope="module")
def public():
    out = {}
    for module in MODULES:
        out.update(public_code(module))
    return out


def test_every_public_function_is_reached(called, public):
    unreached = sorted(name for name, code in public.items() if code not in called and name not in ALLOWED)
    assert unreached == []


def test_the_allowlist_names_only_unreached_functions(called, public):
    stale = sorted(name for name in ALLOWED if name not in public or public[name] in called)
    assert stale == []


def test_the_scan_finds_each_kind_of_definition(public):
    """A function, a method, a classmethod, a property and a cached property."""
    for name in (
        "valuation.residues",
        "valuation.Instance.validate",
        "valuation.Instance.from_values",
        "valuation.ValuationMatrix.n",
        "cluster.ClusterTree.expansion",
    ):
        assert name in public
    assert not any(name.rpartition(".")[2].startswith("_") for name in public)
    assert "cluster.validate_ultrametric" not in public  # imported, not defined there
