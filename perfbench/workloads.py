"""The four benchmark workloads: their operations and their correctness gate.

An operation calls condisc through module attributes (``ci.load_instance``,
``cc.analyze``, ...) so that a traced pass sees the wrappers installed by
``spans.Tracer``.  Every operation returns an outcome tag, the bytes it
emitted and, in-process, its report: ``ok``, ``invalid`` (rejected with
InstanceError, CLI exit 1) or ``error:<what>`` (anything else: a crash, a
traceback, a wrong exit code).

The in-process workloads get new inputs on every pass: each slot of pass 0
comes back in pass k with its roots disguised (scaled by a p-unit, shifted,
shuffled, from a per-pass seed), so it costs the same but is an input the
program has not seen, and a cache cannot turn a repeat into a hit.  Invalid
files are drawn afresh of the same kind.  The cli workload repeats its
files: every execution is a new process, so nothing in memory carries over.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import condisc.conductor as cc
import condisc.instancefile as ci
import condisc.render as cr
from condisc.errors import InstanceError
from condisc.harness import disc_oracle, naive_tree_oracle, trees_agree
from condisc.valuation import matrix_from_rows

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The two known defects, as the outcomes they produce.  They count as failed
# operations but not as wrong answers; any other crash is a wrong answer.
RAGGED_DEFECT = "error:IndexError@instancefile.load_instance"  # where InstanceError is due
RENDER_DEPTH_DEFECT = "error:RecursionError@render.render_text"  # chains of depth >= 1000


@dataclass
class Op:
    key: str                      # size bucket or kind, for per-bucket latency
    data: object                  # instance dict (or, for batch, the list of dicts)
    expect: str                   # "ok" or "invalid"
    run: Callable                 # run(traced) -> (outcome, emitted bytes, report or None)
    units: int = 1                # operations it stands for (a batch: its files)
    spans_file: Path | None = None  # set for CLI subprocess ops: where a traced child writes spans
    known: tuple[str, ...] = ()   # outcomes of known defects
    expected: bytes | None = None  # CLI ops: the stdout due, fixed when first checked
    slot: int = 0                 # index of the reference-pass op it stands for


@dataclass
class Workload:
    name: str
    ops: list[Op]                 # pass 0, the reference pass, in order
    next_ops: Callable[[int], list[Op]]  # the ops of pass k >= 1, slot by slot as in pass 0
    probes: list[Op]              # CLI cold-start probes on this workload's own files
    size_of: dict[str, int] = field(default_factory=dict)  # bucket -> n or depth

    def __post_init__(self):
        for i, op in enumerate(self.ops + self.probes):
            op.slot = i


def _where(exc: BaseException) -> str:
    """The condisc function the operation had called when `exc` was raised."""
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("condisc."):
            return f"{module.removeprefix('condisc.')}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return "?"


def _analyze_op(get_source: Callable, emit: Callable) -> Callable:
    """source -> analyze -> emitted bytes.  A crash is a measured outcome, not a
    benchmark error; the report is kept when only the emitting crashed."""
    def run(traced=False):
        report = None
        try:
            source, label = get_source()
            report = cc.analyze(source, label=label)
            return "ok", emit(report), report
        except InstanceError:
            return "invalid", b"", None
        except Exception as exc:
            return f"error:{type(exc).__name__}@{_where(exc)}", b"", report

    return run


def _from_file(path: Path) -> Callable:
    return lambda: ci.load_instance(path)


def _from_dict(data: dict) -> Callable:
    return lambda: (ci.parse_instance_dict(data), data["label"])


def _json_line(report) -> bytes:
    return report.to_json_line().encode()


def _json_and_text(report) -> bytes:
    return (report.to_json() + "\n" + cr.render_text(report)).encode()


def _write(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


CHILD_TIMEOUT_S = 60  # a hung child is killed and counted, so a run still ends in time


def _cli(args: list[str], env: dict, spans_file: Path) -> Callable:
    def run(traced=False):
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), *args]
            env_run = {**env, "PERFBENCH_SPANS": str(spans_file)}
        else:
            argv = [sys.executable, "-m", "condisc", *args]
            env_run = env
        try:
            proc = subprocess.run(argv, env=env_run, capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error:timeout", b"", None
        if proc.returncode == 0:
            return "ok", proc.stdout, None
        if proc.returncode == 1 and proc.stderr.startswith(b"error:"):
            return "invalid", b"", None
        return f"error:exit{proc.returncode}", b"", None

    return run


# ---------------------------------------------------------------------------
# workloads


def _cli_op(key: str, data, args: list[str], spans_file: Path, units: int = 1) -> Op:
    return Op(key, data, "ok", _cli(args, child_env(), spans_file), units, spans_file)


def _analyze_ops(pairs: list[tuple[dict, dict]], workdir: Path) -> list[Op]:
    """CLI `analyze --format json` on each roots-mode file, then on each matrix twin."""
    ops = []
    for key, pos in (("roots", 0), ("matrix", 1)):
        for k, pair in enumerate(pairs):
            path = _write(workdir / f"cli-{key}-{k}.json", pair[pos])
            ops.append(_cli_op(key, pair[pos], ["analyze", str(path), "--format", "json"],
                               path.with_suffix(".spans")))
    return ops


def _variant(seed: int, k: int, data: dict) -> dict:
    """Pass k's input in the slot that pass 0 fills with `data`: disguised roots."""
    rng = random.Random(f"{data['label']}:{seed}:{k}")
    return gen.disguise(data, rng, f"{data['label']}.{k}")


def build_mix(seed: int, workdir: Path, tiny: bool) -> Workload:
    base = gen.mix_inputs(seed, 120 if tiny else 1000)

    def make_ops(k: int) -> list[Op]:
        shutil.rmtree(workdir / f"pass{k - 1}", ignore_errors=True)
        pdir = workdir / f"pass{k}"
        pdir.mkdir()
        rng = random.Random(f"mix:{seed}:{k}")
        ops, roots = [], None
        for i, (data, expect, kind) in enumerate(base):
            if k > 0:
                if kind is not None:
                    data = gen.invalid_instance(rng, kind, f"{data['label']}.{k}")
                elif data["mode"] == "roots":
                    data = roots = _variant(seed, k, data)
                else:
                    data = gen.matrix_twin(roots)
            path = _write(pdir / f"{i:04d}.json", data)
            ops.append(Op(f"mix-{data['mode']}" if expect == "ok" else "mix-invalid", data, expect,
                          _analyze_op(_from_file(path), _json_line),
                          known=(RAGGED_DEFECT,) if kind == "ragged" else (), slot=i))
        return ops

    ops = make_ops(0)
    twin = next(k for k, op in enumerate(ops) if op.key == "mix-matrix")
    return Workload("mix", ops, make_ops, _analyze_ops([(ops[twin - 1].data, ops[twin].data)], workdir))


WIDE_COUNTS = (1, 1, 1, 1)  # instances per genus 25, 50, 75, 100 in one pass


def build_wide(seed: int, workdir: Path, tiny: bool) -> Workload:
    base = gen.wide_inputs(seed, (1, 0, 0, 0) if tiny else WIDE_COUNTS)
    size_of = {f"n{len(d['roots'])}": len(d["roots"]) for d in base}

    def make_ops(k: int) -> list[Op]:
        ops = []
        for data in base:
            data = _variant(seed, k, data) if k else data
            for d in (data, gen.matrix_twin(data)):
                ops.append(Op(f"n{len(data['roots'])}", d, "ok", _analyze_op(_from_dict(d), _json_line),
                              slot=len(ops)))
        return ops

    ops = make_ops(0)
    return Workload("wide", ops, make_ops, _analyze_ops([(ops[0].data, ops[1].data)], workdir), size_of)


def build_deep(seed: int, workdir: Path, tiny: bool) -> Workload:
    base = gen.deep_inputs(seed, (gen.DEEP_DEPTHS[0], 120) if tiny else gen.DEEP_DEPTHS)
    keys = [d["label"].rsplit("-", 1)[1] for d in base]
    size_of = {key: int(key[1:]) for key in keys}

    def make_ops(k: int) -> list[Op]:
        ops = []
        for j, (key, data) in enumerate(zip(keys, base)):
            known = (RENDER_DEPTH_DEFECT,) if size_of[key] >= 1000 else ()
            # the matrix twins are checked against their originals in the reference
            # pass only: at n <= 10 the valuation layer is negligible, so timing them
            # would only double the quadratic cost
            for t, d in enumerate((_variant(seed, k, data),) if k else (data, gen.matrix_twin(data))):
                ops.append(Op(key, d, "ok", _analyze_op(_from_dict(d), _json_and_text), known=known,
                              slot=2 * j + t))
        return ops

    ops = make_ops(0)
    return Workload("deep", ops, make_ops, _analyze_ops([(ops[0].data, ops[1].data)], workdir), size_of)


BATCH_FILES = 200


def build_cli(seed: int, workdir: Path, tiny: bool) -> Workload:
    count = 20 if tiny else BATCH_FILES
    valid = [d for d, expect, _ in gen.mix_inputs(seed, 2 * count) if expect == "ok"]
    single = [d for d in valid if d["mode"] == "roots"][:1]
    batch = [d for d in valid if d not in single][:count]
    bdir = workdir / "batch"
    bdir.mkdir()
    for k, data in enumerate(batch):
        _write(bdir / f"{k:04d}.json", data)
    ops = _analyze_ops([(d, gen.matrix_twin(d)) for d in single], workdir)
    ops.append(_cli_op("batch", batch, ["batch", str(bdir)], workdir / "batch.spans", units=len(batch)))
    return Workload("cli", ops, lambda k: ops, [])


BUILDERS = {"mix": build_mix, "wide": build_wide, "deep": build_deep, "cli": build_cli}


# ---------------------------------------------------------------------------
# correctness gate, off the clock


def _verdict(expect: str, outcome: str) -> str:
    if outcome.startswith("error:"):
        return f"crashed ({outcome.removeprefix('error:')})"
    return "valid input rejected" if expect == "ok" else "invalid input accepted"


@dataclass
class Gate:
    """Counts executions and wrong answers; unchecked trees are reported, never passed."""

    wrong: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failed_slots: set[int] = field(default_factory=set)  # reference-pass ops with a failed execution
    tree_attempted: int = 0
    tree_checked: int = 0
    summaries: dict = field(default_factory=dict)  # label -> facts of the pass's roots instances

    def check(self, op: Op, outcome: str, out: bytes, report, reference: bool = False) -> bool:
        """Count one execution; True if it had its expected outcome and a right output.
        A known defect is failed but not wrong; any other miss is wrong."""
        before = len(self.wrong)
        label = op.data["label"] if isinstance(op.data, dict) else op.key
        if outcome != op.expect and outcome not in op.known:
            self.wrong.append(f"{label}: {_verdict(op.expect, outcome)}")
        elif op.spans_file is not None:
            if op.expected is None:
                try:
                    op.expected = expected_cli_output(op, self)
                except Exception as exc:
                    op.expected = b""
                    self.wrong.append(f"{label}: in-process analysis crashed ({type(exc).__name__}@{_where(exc)})")
            if out != op.expected:
                self.wrong.append(f"{label}: CLI output differs from the in-process analysis")
        elif report is not None:
            self.check_report(op.data, report, out if outcome == op.expect else None, reference)
        ok = outcome == op.expect and len(self.wrong) == before
        self.attempted += 1
        self.failed += not ok
        if not ok:
            self.failed_slots.add(op.slot)
        return ok

    def _tree(self, report, rows) -> None:
        self.tree_attempted += 1
        try:
            oracle = naive_tree_oracle(matrix_from_rows(rows))
        except RecursionError:
            return  # the recursive oracle cannot check this depth
        self.tree_checked += 1
        if not trees_agree(report.tree, oracle):
            self.wrong.append(f"{report.label}: tree oracle disagrees")

    def check_report(self, data: dict, report, out: bytes | None, reference: bool) -> None:
        """Oracles on one analyzed instance; a twin must match its roots original.
        `out`, if given, must be the report's JSON (deep appends the text report);
        `reference` adds disc_oracle, which is too slow to run on every pass."""
        label = data["label"]
        facts = report.to_json_dict()
        if out is not None:
            try:
                emitted = json.JSONDecoder().raw_decode(out.decode())[0]
            except ValueError:
                emitted = None
            if emitted != facts:
                self.wrong.append(f"{label}: emitted output is not the report's JSON")
                return
        fields = [facts["vertices"], facts["nu_df"], facts["artin_conductor"], facts["n_components"]]
        summary = hashlib.sha256(json.dumps(fields).encode()).hexdigest()
        if data["mode"] == "roots":
            rows = gen.valuation_rows(data)
            if facts["nu_df"] != gen.nu_df(rows):
                self.wrong.append(f"{label}: nu_df != twice the sum of pairwise valuations")
            if reference and facts["nu_df"] != disc_oracle(ci.parse_instance_dict(data)):
                self.wrong.append(f"{label}: nu_df != disc_oracle")
            self._tree(report, rows)
            self.summaries[label] = summary
        else:
            self._tree(report, data["valuations"])
            original = self.summaries.get(label.removesuffix("-m"))
            if original is not None and original != summary:
                self.wrong.append(f"{label}: matrix twin disagrees with its roots original")


def expected_cli_output(op: Op, gate: Gate) -> bytes:
    """What the CLI must print for a subprocess op, from an in-process analysis
    that has itself passed the oracles."""
    if op.key == "batch":
        lines = []
        for data in op.data:
            report = cc.analyze(ci.parse_instance_dict(data), label=data["label"])
            gate.check_report(data, report, None, reference=True)
            lines.append(report.to_json_line())
        return ("\n".join(lines) + "\n").encode()
    report = cc.analyze(ci.parse_instance_dict(op.data), label=op.data["label"])
    gate.check_report(op.data, report, None, reference=True)
    return (report.to_json() + "\n").encode()
