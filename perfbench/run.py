"""condisc benchmark: one command per workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload mix --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; condisc is imported from ``src/``.
Workloads: mix, wide, deep (in-process, one caller in a closed loop) and cli
(one subprocess at a time).  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The line before it carries the run's stamp, its
``output_digest`` and the correctness detail.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
PROBE_ROUNDS = 12     # cold-start probe pairs spread over the closed loop of mix, wide and deep
IMPORT_PROBES = 3     # runs of each interpreter/import probe in a traced run
TAIL_PCT = 99         # of the slots' times: 10 slots lie beyond it on mix, the slowest slot elsewhere


def load_condisc() -> None:
    """Put the checkout's src/ first on sys.path and import condisc from it."""
    if not (SRC / "condisc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no condisc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import condisc  # noqa: F401


def quantile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (statistics.quantiles' inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def reference_pass(w, gate) -> tuple[list[bytes], dict[int, str]]:
    """Run pass 0 and every probe once, off the clock, through the full gate.
    Returns the output digest records, and the outcomes of the ops that missed
    their expected one, by index."""
    records, failed_ops = [], {}
    for i, op in enumerate(w.ops + w.probes):
        outcome, out, report = op.run()
        gate.check(op, outcome, out, report, reference=True)
        if i < len(w.ops):
            records.append(f"{i} {outcome}\n".encode() + out + b"\n")
            if outcome != op.expect:
                failed_ops[i] = outcome
    return records, failed_ops


Span = tuple[float, float]  # (start, end) of one timed execution, perf_counter seconds


@dataclass
class Loop:
    """What the closed loop measured, from untraced passes unless named traced."""

    keys: list[str] = field(default_factory=list)             # bucket of each slot of a pass
    per_slot: list[list[Span]] = field(default_factory=list)  # slot -> its executions
    passes: list[list[Span]] = field(default_factory=list)    # pass -> its executions
    traced_passes: list[list[Span]] = field(default_factory=list)
    units: int = 0                                            # successful operations
    batch: list[tuple[Span, int]] = field(default_factory=list)  # cli: (execution, files done) per batch
    cold: dict[str, list[Span]] = field(default_factory=lambda: {"roots": [], "matrix": []})


def closed_loop(w, gate, seconds: float, meter, tracer=None, probe_rounds: int = 0) -> Loop:
    """Whole passes for about `seconds`; in-process passes have new inputs.

    Another pass starts only if it would end nearer to `seconds` than
    stopping now, judged by the last pass; a deep pass takes about 5 s.

    Each op is timed alone and checked by the gate right after, off the
    clock, so no report outlives its op.  A pass's time is the sum of its op
    times.  `meter` takes its calibration bursts between ops, off the clock.
    With a tracer, untraced and traced passes alternate, and the tracer is
    installed around each op only.  `probe_rounds` CLI cold-start probe
    pairs are spread evenly over the window, between passes.
    """
    m = Loop()
    start = time.perf_counter()
    k = 0
    while True:
        k += 1
        pass_start = time.perf_counter()
        traced = tracer is not None and k % 2 == 0
        ops = w.next_ops(k)
        gate.summaries.clear()  # a matrix twin is checked against its original in the same pass
        pass_spans: list[Span] = []
        if k == 1:  # untraced
            m.keys = [op.key for op in ops]
            m.per_slot = [[] for _ in ops]
        for i, op in enumerate(ops):
            meter.maybe()
            if traced:
                tracer.op = len(tracer.op_keys)
                tracer.op_keys.append(op.key)
                tracer.install()
            try:
                # a CLI op is a subprocess, not sampled while it runs (see speed.py)
                with meter.sampling() if op.spans_file is None else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    outcome, out, report = op.run(traced)
                    t1 = time.perf_counter()
            finally:
                if traced:
                    tracer.uninstall()
            meter.maybe()
            pass_spans.append((t0, t1))
            ok = gate.check(op, outcome, out, report)
            if traced:
                if op.spans_file is not None and op.spans_file.exists():
                    tracer.merge(json.loads(op.spans_file.read_text()), tracer.op)
                    op.spans_file.unlink()
                continue
            m.per_slot[i].append((t0, t1))
            m.units += op.units if ok else 0
            if op.key == "batch":
                m.batch.append(((t0, t1), op.units if ok else 0))
        (m.traced_passes if traced else m.passes).append(pass_spans)
        elapsed = time.perf_counter() - start
        while len(m.cold["roots"]) < min(probe_rounds, elapsed * (probe_rounds + 1) // seconds):
            probe(w, gate, m.cold, meter)
        elapsed = time.perf_counter() - start
        last_pass = time.perf_counter() - pass_start
        if elapsed + last_pass / 2 >= seconds and (tracer is None or m.traced_passes):
            break
    while len(m.cold["roots"]) < probe_rounds:
        probe(w, gate, m.cold, meter)
    return m


def probe(w, gate, cold: dict[str, list[Span]], meter) -> None:
    """One CLI `analyze` subprocess per mode on this workload's files, timed spawn to exit."""
    for op in w.probes:
        meter.maybe()
        t0 = time.perf_counter()
        outcome, out, report = op.run()
        cold[op.key].append((t0, time.perf_counter()))
        meter.maybe()
        gate.check(op, outcome, out, report)


def import_probes() -> dict[str, float]:
    """Interpreter start, and the extra cost of importing condisc and sympy."""
    import workloads

    env = workloads.child_env()

    def wall(code: str) -> float:
        ts = []
        for _ in range(IMPORT_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT)
            ts.append(time.perf_counter() - t0)
        return statistics.median(ts) * 1000

    base = wall("pass")
    return {
        "cli.interpreter_ms": base,
        "cli.import_condisc_ms": wall("import condisc") - base,
        "cli.import_sympy_ms": wall("import sympy") - base,
    }


def stamp(seed: int) -> dict:
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = "absent"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "sympy": sympy_version, "nproc": os.cpu_count(),
            "commit": commit, "seed": seed}


def pinned_check(name: str, seed: int, tiny: bool, records: list[bytes], failed_ops) -> str:
    """At the default seed, every output that was right when pinned must be byte-identical."""
    if seed != DEFAULT_SEED or tiny:
        return "not checked (only the default seed is pinned)"
    pins = json.loads((HERE / "pins.json").read_text()).get(name)
    if pins is None:
        return "not pinned"
    return "match" if kept_digest(records, pins["failed_ops"]) == pins["digest"] else "mismatch"


def kept_digest(records: list[bytes], failed_ops) -> str:
    """sha256 of the reference-pass records, leaving out the given operations."""
    skip = set(failed_ops)
    return hashlib.sha256(b"".join(r for i, r in enumerate(records) if i not in skip)).hexdigest()


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under the checkout's .bench_work/; the caller removes it."""
    root = ROOT / ".bench_work"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=root))


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result object, info object)."""
    import workloads

    workdir = scratch_dir(name)
    phases = [time.perf_counter()]
    try:
        # set-up: import condisc (in a fresh interpreter), generate the inputs,
        # write the files and run one warm-up op; repeated, the median counts
        meter = speed.Speedometer()
        setups: list[Span] = []
        for rep in range(SETUP_REPEATS):
            repdir = workdir / f"setup{rep}"
            repdir.mkdir()
            meter.burst()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import condisc"], env=workloads.child_env(), check=True,
                           cwd=ROOT)
            w = workloads.BUILDERS[name](seed, repdir, tiny)
            w.ops[0].run()
            setups.append((t0, time.perf_counter()))
            meter.burst()

        phases.append(time.perf_counter())
        gate = workloads.Gate()
        records, failed_ops = reference_pass(w, gate)
        phases.append(time.perf_counter())
        # the benchmark's own objects stay out of the program's garbage collections
        gc.collect()
        gc.freeze()

        tracer = spans.Tracer() if trace else None
        rounds = 0 if name == "cli" else 2 if tiny else PROBE_ROUNDS
        m = closed_loop(w, gate, seconds, meter, tracer, rounds)
        gc.unfreeze()
        phases.append(time.perf_counter())
        usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        if name == "cli":
            m.cold = {k: [e for key, es in zip(m.keys, m.per_slot) if key == k for e in es] for k in m.cold}
        # every time at reference speed (see speed.py), and as read, for the info line
        times, slot_s = end_to_end(m, setups, meter.seconds, child=name == "cli")
        as_read, _ = end_to_end(m, setups, lambda t0, t1, child=False: meter.as_read(t0, t1), child=name == "cli")
        by_key: dict[str, list[float]] = {}
        for key, t in zip(m.keys, slot_s):
            by_key.setdefault(key, []).append(t)
        tail_s = times["latency_tail_ms"] / 1000

        # attempted counts the operations of the reference pass, and failed those
        # of them with a failed execution in any pass: the same operations for the
        # same seed, however many passes the closed loop fits in
        attempted, failed = len(w.ops) + len(w.probes), len(gate.failed_slots)
        pinned = pinned_check(name, seed, tiny, records, failed_ops)
        if pinned == "mismatch":
            gate.wrong.append("output digest differs from the pinned one")
            failed = min(failed + 1, attempted)
        info = {
            "workload": name,
            "stamp": stamp(seed),
            "output_digest": hashlib.sha256(b"".join(records)).hexdigest(),
            "pinned_digest": pinned,
            "failed_frac": failed / attempted,
            "reference_failed_ops": failed_ops,
            "wrong": gate.wrong[:20],
            "oracle.tree_checked": gate.tree_checked,
            "oracle.tree_attempted": gate.tree_attempted,
            "executions": gate.attempted,
            "executions_failed": gate.failed,
            "passes": len(m.passes),
            "phase_s": dict(zip(("setup", "reference", "loop"), (b - a for a, b in zip(phases, phases[1:])))),
            "latency_slots": len(slot_s),
            "latency_tail_pct": TAIL_PCT,
            "latency_tail_slots_beyond": sum(t > tail_s for t in slot_s),
        }
        if trace:
            metrics = layer_metrics(w, tracer, m, by_key, gate, meter.seconds)
            info["dominant_layers"] = dominant(tracer, w)
            gap = as_read["cold_start_roots_ms"] - as_read["cold_start_matrix_ms"]  # as the import probes read
            info["cold_start_roots_minus_matrix_ms"] = gap
            info["import_sympy_share_of_that_gap"] = metrics["cli.import_sympy_ms"][0] / gap
            write_spans(name, seed, tracer)
        else:
            info["as_read"] = as_read
            metrics = {k: (v, UNITS[k]) for k, v in times.items()}
            metrics["peak_rss_mb"] = (rss_mb, "MB")
        result = {
            "correct": not gate.wrong,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


UNITS = {"setup_s": "s", "throughput_ips": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "cold_start_roots_ms": "ms", "cold_start_matrix_ms": "ms"}


def end_to_end(m: Loop, setups: list[Span], seconds, child: bool) -> tuple[dict[str, float], list[float]]:
    """The timed end-to-end metrics, each execution read as `seconds(start, end,
    child)`, where `child` tells a subprocess's time (every op of cli); and each
    slot's time, the median of its executions, each on an input of its own."""
    slot_s = [statistics.median(seconds(*e, child) for e in es) for es in m.per_slot]
    if m.batch:  # cli: files per second of the batch step, the median over its executions
        throughput = statistics.median(n / seconds(*e, True) for e, n in m.batch)
    else:  # successful operations per second of op time, over all untraced passes
        throughput = m.units / sum(seconds(*e) for es in m.per_slot for e in es)
    times = {
        "setup_s": statistics.median(seconds(*e, True) for e in setups),
        "throughput_ips": throughput,
        "latency_p50_ms": quantile(slot_s, 50) * 1000,
        "latency_tail_ms": quantile(slot_s, TAIL_PCT) * 1000,
        "cold_start_roots_ms": statistics.median(seconds(*e, True) for e in m.cold["roots"]) * 1000,
        "cold_start_matrix_ms": statistics.median(seconds(*e, True) for e in m.cold["matrix"]) * 1000,
    }
    return times, slot_s


SELF_S = tuple(dict.fromkeys(name for _, _, name in spans.TARGETS))
PER_OP_COUNTS = (
    "valuation.build_matrix.pairs", "valuation.validate_ultrametric.triples", "cluster.tb_vertices",
    "dualgraph.ty_vertices", "dualgraph.tx_components", "dualgraph.tx_edges", "dualgraph.neighbors.calls",
    "dualgraph.neighbors.edges_scanned", "render.json_bytes",
)
WIDE_KEYS = ("n52", "n102", "n152", "n202")


def scaling_exponent(sizes: list[int], lat_ms: list[float]) -> float:
    """Least-squares slope of log latency against log size."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in lat_ms]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(w, tracer, m: Loop, by_key: dict[str, list[float]], gate, seconds) -> dict:
    """Per-layer metrics of a traced run; times and counts are per operation."""
    ops = len(tracer.op_keys)
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for span in SELF_S:
        out[f"{span}.self_s"] = (self_s[span] / ops, "s/op")
    for span in ("valuation.validate", "valuation.validate_ultrametric"):
        out[f"{span}.calls_per_op"] = (calls[span] / ops, "count/op")
    out["conductor.compare_vertex.calls"] = (calls["conductor.compare_vertex"] / ops, "count/op")
    for c in PER_OP_COUNTS:
        out[c] = (counts[c] / ops, "count/op")
    scanned = counts["dualgraph.neighbors.edges_scanned"]
    out["dualgraph.neighbors.useful_ratio"] = (counts["dualgraph.neighbors.yielded"] / scanned if scanned else 0.0,
                                              "ratio")
    out["render.render_text.failures"] = (tracer.failures()["render.render_text"] / len(m.traced_passes),
                                          "count/pass")
    for k, v in import_probes().items():
        out[k] = (v, "ms")
    # size sweeps: median latency per bucket (untraced passes); 0 on the other workloads
    for prefix, keys in (("wide", WIDE_KEYS), ("deep", tuple(f"d{d}" for d in gen.DEEP_DEPTHS))):
        meds = {k: statistics.median(by_key[k]) * 1000 for k in keys if w.name == prefix and k in by_key}
        for k in keys:
            out[f"{prefix}.latency_ms.{k}"] = (meds.get(k, 0.0), "ms")
        slope = scaling_exponent([w.size_of[k] for k in meds], list(meds.values())) if len(meds) > 1 else 0.0
        out[f"{prefix}.scaling_exponent"] = (slope, "ratio")
    out["oracle.tree_checked"] = (gate.tree_checked, "count")
    out["oracle.tree_attempted"] = (gate.tree_attempted, "count")
    def pass_s(passes):
        return statistics.median(sum(seconds(*e) for e in p) for p in passes)

    out["trace.overhead_frac"] = (pass_s(m.traced_passes) / pass_s(m.passes) - 1, "ratio")
    return out


def dominant(tracer, w) -> dict:
    """Largest self-time shares over the traced passes, and over the largest bucket."""
    def top(selected) -> list:
        total = sum(selected.values()) or 1.0
        return [(k, round(v / total, 3)) for k, v in selected.most_common(3)]

    out = {"all": top(tracer.self_times())}
    if w.size_of:
        big = max(w.size_of, key=w.size_of.get)
        out[big] = top(tracer.self_times(lambda op: tracer.op_keys[op] == big))
    return out


def write_spans(name: str, seed: int, tracer) -> None:
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    with open(outdir / f"spans-{name}.jsonl", "w") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "counts": dict(tracer.counts)}) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mix", "wide", "deep", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_condisc()
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
