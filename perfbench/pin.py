"""Recompute the pinned default-seed output digests into perfbench/pins.json.

    python3 perfbench/pin.py

Run it only when condisc's output is meant to change.  For each workload,
the digest covers every operation that had its expected outcome at pin
time; the indices of the others are stored, so a later fix of a known
defect does not read as a mismatch.
"""

import json
import shutil

import run


def main() -> None:
    run.load_condisc()
    import workloads

    pins = {}
    for name, build in workloads.BUILDERS.items():
        workdir = run.scratch_dir(f"pin-{name}")
        try:
            gate = workloads.Gate()
            records, failed_ops = run.reference_pass(build(run.DEFAULT_SEED, workdir, False), gate)
        finally:
            shutil.rmtree(workdir)
        if gate.wrong:
            raise SystemExit(f"{name}: refusing to pin wrong outputs: {gate.wrong[:3]}")
        pins[name] = {"seed": run.DEFAULT_SEED, "digest": run.kept_digest(records, failed_ops),
                      "failed_ops": list(failed_ops)}
        print(name, pins[name]["digest"], "failed:", list(failed_ops))
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")


if __name__ == "__main__":
    main()
