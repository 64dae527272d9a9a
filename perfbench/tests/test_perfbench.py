"""Tests of the benchmark itself: tiny runs of every workload, and injected
wrong results that must be counted rather than passed.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402

run.load_condisc()

import condisc.conductor as cc  # noqa: E402
import condisc.instancefile as ci  # noqa: E402
import workloads  # noqa: E402
from condisc.errors import InequalityViolated  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny(name, trace=False, seed=5):
    return run.run(name, seed, 0.01, trace, tiny=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_untraced(name):
    result, info = tiny(name)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["wrong"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(info["output_digest"]) == 64


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_traced(name):
    result, info = tiny(name, trace=True)
    assert result["correct"], info["wrong"]
    assert set(result["metrics"]) == PER_LAYER
    assert info["dominant_layers"]["all"]


def test_known_defects_are_failed_operations():
    # the ragged matrix raises IndexError where InstanceError is due
    result, info = tiny("mix")
    assert workloads.RAGGED_DEFECT in info["reference_failed_ops"].values()
    assert result["failed"] > 0 and result["correct"], info["wrong"]


def test_known_defect_elsewhere_is_wrong(monkeypatch):
    # IndexError is tolerated from the ragged file only, not from any other input
    def ragged_everywhere(path, **kwargs):
        raise IndexError("list index out of range")

    monkeypatch.setattr(ci, "load_instance", ragged_everywhere)
    result, info = tiny("mix")
    assert not result["correct"]
    assert any("crashed (IndexError@" in w for w in info["wrong"])


def test_invariant_violation_is_wrong(monkeypatch):
    real = cc.analyze
    calls = {"n": 0}

    def violated(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 7 == 0:
            raise InequalityViolated("-Art(X/S) > nu(d_f)")
        return real(*args, **kwargs)

    monkeypatch.setattr(cc, "analyze", violated)
    result, info = tiny("wide")
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("crashed (InequalityViolated@" in w for w in info["wrong"])


def test_cli_exit_2_is_wrong(tmp_path):
    # exit code 2 is the CLI reporting an internal invariant violation
    op = workloads.Op("roots", {"label": "x"}, "ok", lambda traced=False: ("error:exit2", b"", None),
                      spans_file=tmp_path / "x.spans", expected=b"{}\n")
    gate = workloads.Gate()
    assert not gate.check(op, *op.run())
    assert gate.wrong == ["x: crashed (exit2)"] and gate.failed == 1


def test_passes_get_fresh_inputs(tmp_path):
    for name in ("mix", "wide", "deep"):
        workdir = tmp_path / name
        workdir.mkdir()
        w = workloads.BUILDERS[name](5, workdir, True)
        first = [op.data for op in w.ops]
        later = [op.data for op in w.next_ops(1)]
        assert not any(d in first for d in later), name
        assert {op.key for op in w.next_ops(2)} <= {op.key for op in w.ops}


def test_counts_do_not_depend_on_run_length():
    short, long_ = tiny("mix"), run.run("mix", 5, 2.0, False, tiny=True)
    assert short[1]["passes"] < long_[1]["passes"]
    assert (short[0]["attempted"], short[0]["failed"]) == (long_[0]["attempted"], long_[0]["failed"])
    assert short[0]["failed"] > 0  # the ragged files


def test_intervals_read_at_reference_speed():
    meter = speed.Speedometer()
    # bursts of 3: twice as slow as the reference around [10, 11], as fast far from it
    for at, took in ((5.0, 1), (9.97, 2), (11.01, 2), (14.0, 1)):
        meter.at += [at + i / 1000 for i in range(speed.BURST)]
        meter.took += [took * speed.REFERENCE_S] * speed.BURST
    assert meter.seconds(10.0, 11.0) == pytest.approx(0.5)
    assert meter.seconds(14.1, 14.2) == pytest.approx(0.1)
    # a subprocess's interval is read against the 2 s around it
    assert meter.seconds(11.5, 12.0, child=True) == pytest.approx(0.25)
    # a sample taken inside an interval is not part of its time
    meter.at.insert(6, 10.5)
    meter.took.insert(6, 2 * speed.REFERENCE_S)
    assert meter.as_read(10.0, 11.0) == pytest.approx(1.0 - 2 * speed.REFERENCE_S)


def test_same_seed_same_digest():
    assert tiny("mix")[1]["output_digest"] == tiny("mix")[1]["output_digest"]
    assert tiny("mix", seed=6)[1]["output_digest"] != tiny("mix")[1]["output_digest"]


def test_wrong_discriminant_is_counted(monkeypatch):
    real = cc.analyze

    def bumped(*args, **kwargs):
        report = real(*args, **kwargs)
        report.nu_df += 1
        return report

    monkeypatch.setattr(cc, "analyze", bumped)
    result, info = tiny("wide")
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("disc_oracle" in w for w in info["wrong"])
    assert any("pairwise valuations" in w for w in info["wrong"])


def test_flipped_output_byte_is_counted(monkeypatch):
    real = cc.Report.to_json_line
    calls = {"n": 0}

    def flipped(self):
        # every third line comes out with one byte changed
        calls["n"] += 1
        line = real(self)
        return line.replace("{", "[", 1) if calls["n"] % 3 == 0 else line

    monkeypatch.setattr(cc.Report, "to_json_line", flipped)
    result, info = tiny("wide")
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("not the report's JSON" in w for w in info["wrong"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mix", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == b""
