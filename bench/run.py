#!/usr/bin/env python3
"""bdom benchmark: end-to-end CLI workloads, answer gate and layer tracing.

    python3 bench/run.py --workload orient-scan --seed 1 --seconds 25 --trace 0

Run from the repository root (or anywhere: paths are taken from this
file).  Every op is one in-process `bdom.cli.main([...])` call with its
stdout captured, exactly the command a user types; the key-sorted
`results` payload of each op is hashed and checked (see oracle.py and
NOTES.md).

--trace 0 times passes over the seeded op list for --seconds, each on
a set-up of its own, and reports the end-to-end metrics.  --trace 1
alternates untraced and traced passes and reports the per-layer
metrics of the first traced pass plus the tracing overhead.  Either way
the last stdout line is one JSON object {"correct", "attempted",
"failed", "metrics"}; a fuller report and the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PIN_FILE = BENCH_DIR / "pinned.json"

SETUP_REPS = 5  # set-ups per timed run at least (one per pass)
MIN_SAMPLES = 100  # so that ten op samples lie beyond p90
MAX_TIMED_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
WORK_UNIT = {
    "orient-scan": "orientations",
    "orient-scan-jobs2": "orientations",
    "exact-search": "instances",
    "torus-check": "torus cells",
}


SRC = ROOT / "src"


def load_bdom():
    """Import bdom afresh from the src/ tree next to the benchmark."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bdom" or m.startswith("bdom.")]:
        del sys.modules[name]
    importlib.import_module("bdom.cli")  # imports every layer module
    return sys.modules["bdom"]


def call_cli(bdom, argv: list[str]) -> tuple[int, object, str]:
    """One CLI op: (elapsed ns, exit code or error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = bdom.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising op is a failed op, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
    return elapsed, code, out.getvalue()


def results_digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


class Gate:
    """Per-op answer gate: exit code, a results payload, the same digest
    on every execution, the pinned op list and digests (default seed),
    the values pinned per shape (every seed) and the independent checks
    of oracle.py."""

    def __init__(self, ops: list, pins: dict | None, shapes: dict | None):
        self.ops = ops
        self.pins = pins
        self.shapes = shapes
        self.digests: list[str | None] = [None] * len(ops)
        self.results: list[dict | None] = [None] * len(ops)
        self.runs = [0] * len(ops)
        self.run_failures = [0] * len(ops)
        self.op_failure: dict[int, str] = {}
        self.extra_attempted = 0
        self.extra_failed = 0

    def record(self, i: int, code, stdout: str) -> None:
        self.runs[i] += 1
        reason = None
        if code != 0:
            reason = f"exit {code}"
        else:
            results = _results(stdout)
            if results is None:
                reason = "no results payload"
            else:
                digest = results_digest(results)
                if self.digests[i] is None:
                    self.digests[i], self.results[i] = digest, results
                elif digest != self.digests[i]:
                    reason = "results differ between executions"
        if reason is not None:
            self.run_failures[i] += 1
            self.op_failure.setdefault(i, reason)

    def record_warmup(self, code, stdout: str) -> None:
        self.extra_attempted += 1
        if code != 0 or _results(stdout) is None:
            self.extra_failed += 1

    def verify(self, bdom) -> None:
        """Checks outside the timed region; a failing op fails every
        one of its executions."""
        pinned = None
        if self.pins is not None:
            if self.pins["op_list_sha256"] != workloads.op_list_sha256(self.ops):
                self.op_failure[-1] = "op list differs from the pinned one"
                self.extra_failed += 1
            else:
                pinned = self.pins["digests"]
        for i, op in enumerate(self.ops):
            res = self.results[i]
            if res is None:
                continue
            if pinned is not None and self.digests[i] != pinned[i]:
                self.op_failure.setdefault(i, "digest differs from the pinned one")
                continue
            try:
                reason = None
                if self.shapes is not None and "shape" in op.spec:
                    reason = oracle.check_shape(
                        op.kind, res, self.shapes.get(op.spec["shape"]))
                reason = reason or _check(bdom, op, res)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                reason = f"malformed payload: {type(exc).__name__}: {exc}"
            if reason is not None:
                self.op_failure.setdefault(i, reason)

    @property
    def attempted(self) -> int:
        return sum(self.runs) + self.extra_attempted

    @property
    def failed(self) -> int:
        return self.extra_failed + sum(
            self.runs[i] if i in self.op_failure else self.run_failures[i]
            for i in range(len(self.ops))
        )


def _results(stdout: str):
    try:
        return json.loads(stdout.strip().splitlines()[-1])["results"]
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def _check(bdom, op, res) -> str | None:
    if op.kind == "interval":
        return oracle.check_interval(bdom, op.spec, res)
    if op.kind == "jumps":
        return oracle.check_jumps(bdom, op.spec, res)
    if op.kind == "gamma":
        return oracle.check_gamma(bdom, op.spec, res)
    return oracle.check_torus(
        bdom, op.spec, res, op.file_text, Path(op.file_name).stem
    )


def materialize(op, directory: Path) -> list[str]:
    if op.file_name is None:
        return op.command(None)
    path = directory / op.file_name
    path.write_text(op.file_text, encoding="utf-8")
    return op.command(str(path))


def run_pass(bdom, argvs, ops, gate, deadline=None, per_op=None):
    """Run the op list once; returns (CLI ns, complete).  With a
    deadline, stop before an op once it has passed; per_op[i] collects
    op i's latencies in ms."""
    total_ns = 0
    for i, argv in enumerate(argvs):
        if deadline is not None and deadline():
            return total_ns, False
        ns, code, out = call_cli(bdom, argv)
        gate.record(i, code, out)
        total_ns += ns
        if per_op is not None:
            per_op[i].append(ns / 1e6)
    return total_ns, True


def host_loop_ms() -> float:
    """Fastest of 5 runs of a fixed pure-Python loop: how fast this host
    runs Python right now (load average does not show a co-tenant that
    slows the CPU itself)."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def machine_record() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "loadavg_before": list(os.getloadavg()),
        "host_loop_ms_before": host_loop_ms(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its waited-for
    children (the Pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


# the workload whose shapes another workload's ops share
SHAPES_OF = {"orient-scan-jobs2": "orient-scan"}


def load_pins(workload: str, seed: int, scale: str) -> tuple[dict | None, dict]:
    """(op-list hash and digests at the pinned seed, or None at another
    seed; the per-shape values, checked at every seed)."""
    try:
        pins = json.loads(PIN_FILE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pins = {}
    family = SHAPES_OF.get(workload, workload)
    shapes = pins.get("shapes", {}).get(family, {}).get(scale, {})
    if seed != pins.get("seed"):
        return None, shapes
    return pins.get("workloads", {}).get(workload, {}).get(scale), shapes


class SetUp:
    """One set-up per call: a fresh import of the bdom package, the seeded
    inputs generated and written to the run's input directory, and one
    fixed warm-up op.  Returns (bdom, ops, argvs); keeps the times and
    the warm-up outcomes.

    Every set-up writes the same files into the same directory: the
    first creates them, the later ones overwrite them.  On an ext4
    virtual disk, creating the 251 exact-search files in a new directory
    while earlier copies were still there took 100-200 ms and grew over
    a run and from run to run; overwriting them takes 25-40 ms."""

    def __init__(self, args, run_dir: Path):
        self.args, self.run_dir = args, run_dir
        self.times: list[float] = []
        self.warm_runs: list[tuple] = []

    def __call__(self):
        args = self.args
        start = time.perf_counter()
        bdom = load_bdom()
        ops = workloads.generate(args.workload, args.seed, args.scale)
        warm = workloads.warmup_op(args.workload, args.scale)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        argvs = [materialize(op, self.run_dir) for op in ops]
        self.warm_runs.append(call_cli(bdom, materialize(warm, self.run_dir))[1:])
        self.times.append(time.perf_counter() - start)
        return bdom, ops, argvs


def timed(args, setup: SetUp, first, gate) -> dict:
    bdom, ops, argvs = first
    per_op: list[list[float]] = [[] for _ in ops]
    passes = 0
    start = time.perf_counter()

    def deadline() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed >= MAX_TIMED_S or (
            elapsed >= args.seconds and passes > 0
            and sum(map(len, per_op)) >= MIN_SAMPLES
        )

    complete = True
    while complete:
        # Every pass runs on a set-up of its own (untimed here, it is
        # setup_s): a freshly imported package, so that no module state
        # such as a cache carries over from one execution of an op to the
        # next, as between two CLI runs of a user.  The set-ups spread
        # over the run, so their median is taken over the same stretch
        # of the host's load as the passes.
        if passes:
            bdom, _, argvs = setup()
        complete = run_pass(bdom, argvs, ops, gate, deadline, per_op)[1]
        passes += complete
    measured = time.perf_counter() - start
    while len(setup.times) < SETUP_REPS:
        setup()
    # work_per_s: every unit finished over all the CLI time it took.  The
    # percentiles take one sample per op, its fastest execution, when
    # there are enough distinct ops for ten to lie beyond p90, and every
    # execution otherwise: with a few executions of many ops, a busy
    # neighbour on the shared host slows some executions but never speeds
    # one up.  The executions share no state (see above), so none of them
    # is cheaper for having run before.
    fastest = [min(xs) for xs in per_op]
    lat = fastest if len(ops) >= MIN_SAMPLES else [x for xs in per_op for x in xs]
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    units = sum(op.units * len(xs) for op, xs in zip(ops, per_op))
    return {
        "work_per_s": units / (sum(map(sum, per_op)) / 1e3),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": deciles[8],
        "samples": len(lat),
        "sample": "fastest execution per op" if lat is fastest else "every execution",
        "beyond_p90": sum(1 for x in lat if x > deciles[8]),
        "passes": passes,
        "measured_s": measured,
        "op_latency_ms": per_op,
    }


def traced(args, ops, argvs, serial, gate, spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    plain, traced_ns, serial_ns = [], [], []
    layers = None
    repeats = True
    start = time.perf_counter()
    while not (traced_ns and time.perf_counter() - start >= args.seconds):
        # every pass on a freshly imported package, as in the timed run
        plain.append(run_pass(load_bdom(), argvs, ops, gate)[0])
        if serial is not None:
            serial_ns.append(run_pass(load_bdom(), serial, ops, gate)[0])
        bdom = load_bdom()
        tracing.install(tracer, bdom)
        tracer.reset()
        tracer.active = True
        try:
            traced_ns.append(run_pass(bdom, argvs, ops, gate)[0])
        finally:
            tracer.active = False
        agg = tracing.aggregate(tracer.spans)
        if layers is None:
            layers = agg
            time_shares = tracing.shares(tracer.spans)
            tracer.write(spans_path)
        else:
            repeats &= all(agg[c] == layers[c] for c in tracing.COUNTERS)
        if time.perf_counter() - start >= MAX_TIMED_S:
            break
    layers["bench.trace_overhead_pct"] = (
        statistics.median(traced_ns) / statistics.median(plain) - 1
    ) * 100
    layers["interval.pool_scaling_eff"] = (
        statistics.median(serial_ns) / (2 * statistics.median(plain)) if serial_ns else 0.0
    )
    return {
        "layers": layers,
        "time_shares": time_shares,
        "traced_passes": len(traced_ns),
        "untraced_pass_s": [ns / 1e9 for ns in plain],
        "traced_pass_s": [ns / 1e9 for ns in traced_ns],
        "serial_pass_s": [ns / 1e9 for ns in serial_ns],
        "counters_repeat": repeats,
        "not_traced": tracer.missing,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=workloads.SCALES, default="full",
        help="input sizes; tiny is for the self-test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    record = machine_record()
    if not (SRC / "bdom" / "__init__.py").is_file():
        print(f"error: no bdom source tree at {SRC / 'bdom'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{args.scale}"
    run_dir = OUT_DIR / f"inputs-{tag}-{os.getpid()}"
    pins, shapes = load_pins(args.workload, args.seed, args.scale)
    setup = SetUp(args, run_dir)
    try:
        first = setup()
        _, ops, argvs = first
        gate = Gate(ops, pins, shapes)
        # the jobs2 ops end in "--jobs 2"; without it they are orient-scan's
        jobs2 = args.workload == "orient-scan-jobs2"
        op_hash = workloads.op_list_sha256(ops)
        if args.trace:
            serial = [a[:-2] for a in argvs] if jobs2 else None
            measured = traced(
                args, ops, argvs, serial, gate, OUT_DIR / f"spans-{tag}.tsv"
            )
        else:
            measured = timed(args, setup, first, gate)
            measured["peak_rss_mb"] = peak_rss_mb()
            if jobs2:  # --jobs 2 == serial digests
                run_pass(load_bdom(), [a[:-2] for a in argvs], ops, gate)
        for code, out in setup.warm_runs:
            gate.record_warmup(code, out)
        gate.verify(load_bdom())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["loadavg_after"] = list(os.getloadavg())
    record["host_loop_ms_after"] = host_loop_ms()
    setup_times = setup.times
    setup_s = statistics.median(setup_times)
    attempted, failed = gate.attempted, gate.failed

    print("run: " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "scale": args.scale,
         "trace": args.trace, **record}))
    print(f"ops: {len(ops)} per pass, {sum(op.units for op in ops)} "
          f"{WORK_UNIT[args.workload]} per pass, op_list_sha256 {op_hash}"
          f"{' (pinned)' if pins else ''}")
    for i, reason in sorted(gate.op_failure.items()):
        print(f"FAILED op {i}: {reason}"
              + (f" argv={ops[i].argv} file={ops[i].file_name}" if i >= 0 else ""))
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    if args.trace:
        layers = measured["layers"]
        metrics = {k: {"value": layers[k], "unit": u} for k, (u, _) in tracing.LAYER_METRICS.items()}
        for k, m in metrics.items():
            print(f"layer {k} = {m['value']} {m['unit']}")
        print("self-time share of op time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in measured["time_shares"].items()))
        print(f"tracing overhead {layers['bench.trace_overhead_pct']:.1f}% over "
              f"{measured['traced_passes']} traced and {len(measured['untraced_pass_s'])} "
              f"untraced passes; counters repeat: {measured['counters_repeat']}")
        if measured["not_traced"]:
            print("not traced (missing): " + ", ".join(measured["not_traced"]))
    else:
        values = {
            "setup_s": setup_s,
            "work_per_s": measured["work_per_s"],
            "op_p50_ms": measured["op_p50_ms"],
            "op_p90_ms": measured["op_p90_ms"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"setup_s = {setup_s:.4f} s (median of {len(setup_times)} set-ups "
              f"{[round(t, 4) for t in setup_times]})")
        print(f"work_per_s = {values['work_per_s']:.1f} {WORK_UNIT[args.workload]}/s "
              f"(every execution of {measured['passes']}+ passes)")
        print(f"op_p50_ms = {values['op_p50_ms']:.3f} ms, op_p90_ms = "
              f"{values['op_p90_ms']:.3f} ms ({measured['samples']} samples, "
              f"{measured['sample']}, {measured['beyond_p90']} beyond p90, "
              f"{measured['measured_s']:.1f} s)")
        print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB (process + largest child)")
    report = {
        "args": vars(args), "record": record, "op_list_sha256": op_hash,
        "digests": gate.digests, "failures": {str(k): v for k, v in gate.op_failure.items()},
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "setup_s": setup_s, "setup_times_s": setup_times,
        "measured": measured,
    }
    report_path = OUT_DIR / f"report-{tag}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
