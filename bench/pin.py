#!/usr/bin/env python3
"""Rewrite bench/pinned.json: the op-list hash and the `results` digest
of every op of every workload at the default seed, and the values each
interval and gamma shape must give at every seed, for both scales.

    python3 bench/pin.py

It writes nothing if any op fails its exit code or its independent
check, if --jobs 2 and serial scans disagree, or if a shape's values
differ between the default seed and the next one.  Re-pin only when an
answer is meant to change (a workload or the CLI payload format changed
on purpose), never to make a mismatch go away.
"""

from __future__ import annotations

import json
import shutil
import sys

import oracle
import workloads
from run import OUT_DIR, PIN_FILE, SHAPES_OF, SRC, Gate, load_bdom, materialize, run_pass

PIN_SEED = 1


def run_ops(bdom, workload: str, seed: int, scale: str) -> tuple[list, Gate]:
    ops = workloads.generate(workload, seed, scale)
    directory = OUT_DIR / f"pin-{workload}-{scale}-{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    gate = Gate(ops, None, None)
    try:
        run_pass(bdom, [materialize(op, directory) for op in ops], ops, gate)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    gate.verify(bdom)
    return ops, gate


def shape_pins(ops: list, gate: Gate) -> dict:
    return {
        op.spec["shape"]: oracle.shape_values(op.kind, res)
        for op, res in zip(ops, gate.results)
        if "shape" in op.spec
    }


def main() -> int:
    if not (SRC / "bdom" / "__init__.py").is_file():
        print(f"error: no bdom source tree at {SRC / 'bdom'}", file=sys.stderr)
        return 2
    bdom = load_bdom()
    pins: dict = {"seed": PIN_SEED, "workloads": {}, "shapes": {}}
    for scale in workloads.SCALES:
        for workload in workloads.WORKLOADS:
            ops, gate = run_ops(bdom, workload, PIN_SEED, scale)
            if gate.failed:
                print(f"error: {workload} ({scale}): {gate.op_failure}", file=sys.stderr)
                return 1
            pins["workloads"].setdefault(workload, {})[scale] = {
                "op_list_sha256": workloads.op_list_sha256(ops),
                "digests": gate.digests,
            }
            print(f"pinned {workload} ({scale}): {len(ops)} ops")
            shapes = shape_pins(ops, gate)
            if shapes and workload not in SHAPES_OF:  # jobs2 shares orient-scan's
                other_ops, other = run_ops(bdom, workload, PIN_SEED + 1, scale)
                if other.failed or shape_pins(other_ops, other) != shapes:
                    print(f"error: {workload} ({scale}): shape values differ at seed "
                          f"{PIN_SEED + 1}", file=sys.stderr)
                    return 1
                pins["shapes"].setdefault(workload, {})[scale] = shapes
                print(f"pinned {workload} ({scale}): {len(shapes)} shapes")
        scan = pins["workloads"]["orient-scan"][scale]["digests"]
        serial = [d for d, op in zip(scan, workloads.generate("orient-scan", PIN_SEED, scale))
                  if op.kind == "interval"]
        if serial != pins["workloads"]["orient-scan-jobs2"][scale]["digests"]:
            print(f"error: --jobs 2 digests differ from serial ({scale})", file=sys.stderr)
            return 1
    PIN_FILE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PIN_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
