"""Span tracing of bdom's layers from outside the package.

`install` replaces each public entry point with a wrapper, in every
bdom module namespace that refers to it (that is the name its caller
looks up), plus the `Digraph.bounded_distances` method.  While the
tracer is active each call records a span [name, start_ns, end_ns,
parent_index, info] in memory; `aggregate` turns one pass's spans into
the per-layer metrics.  A span's self time is its duration minus the
time its child spans cover.

Pool workers fork from the traced process but record nothing (the
tracer switches itself off in forked children), so a `--jobs 2` scan
shows up as one pool-level span.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter_ns

# metric name -> (unit, better)
LAYER_METRICS = {
    "cli.self_ms_per_op": ("ms", "lower"),
    "graphs.parse_ms_per_op": ("ms", "lower"),
    "graphs.orient_calls": ("count", "lower"),
    "graphs.orient_us_per_call": ("us", "lower"),
    "graphs.bfs_calls": ("count", "lower"),
    "graphs.bfs_us_per_call": ("us", "lower"),
    "graphs.ball_entries": ("count", "lower"),
    "graphs.reception_calls": ("count", "lower"),
    "graphs.reception_ms": ("ms", "lower"),
    "solver.gamma_calls": ("count", "lower"),
    "solver.gamma_self_us_per_call": ("us", "lower"),
    "solver.greedy_us_per_call": ("us", "lower"),
    "solver.cover_tables_us_per_call": ("us", "lower"),
    "solver.bb_nodes": ("count", "lower"),
    "solver.bb_nodes_per_s": ("1/s", "higher"),
    "solver.greedy_exact_ratio": ("ratio", "higher"),
    "solver.greedy_gap": ("towers", "lower"),
    "interval.orientations": ("count", "higher"),
    "interval.scan_self_ms": ("ms", "lower"),
    "interval.jump_trials": ("count", "higher"),
    "interval.jump_gamma_calls": ("count", "lower"),
    "interval.jumps_found": ("count", "higher"),
    "interval.pool_ms_per_op": ("ms", "lower"),
    "interval.pool_scaling_eff": ("ratio", "higher"),
    "lattice.torus_build_ms": ("ms", "lower"),
    "lattice.check_self_ms": ("ms", "lower"),
    "lattice.cells": ("count", "higher"),
    "lattice.violations": ("count", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
}

# exact integer counts: identical on every pass and every run of one input
COUNTERS = (
    "graphs.orient_calls", "graphs.bfs_calls", "graphs.ball_entries",
    "graphs.reception_calls", "solver.gamma_calls", "solver.bb_nodes",
    "solver.greedy_gap", "interval.orientations", "interval.jump_trials",
    "interval.jump_gamma_calls", "interval.jumps_found", "lattice.cells",
    "lattice.violations",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.missing: list[str] = []
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    def reset(self) -> None:
        self.spans = []
        self.stack = []

    def wrap(self, name: str, fn, info=None, pre=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            before = pre(args) if pre is not None else None
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if info is not None:
                try:
                    span[4] = info(args, kwargs, result, before)
                except (AttributeError, KeyError, TypeError, ValueError):
                    pass  # the entry point changed shape: its counts read 0
            return result

        return wrapper

    def write(self, path) -> None:
        """One line per span: name, start and end in ns from the first
        span, parent index (-1 for a root)."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name}\t{start - base}\t{end - base}\t{parent}\n")


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def install(tracer: Tracer, bdom) -> None:
    """Wrap bdom's layer entry points; a name that no longer exists is
    listed in tracer.missing and its metrics read 0."""
    tracer.missing = []
    mods = [m for k, m in sys.modules.items() if k == "bdom" or k.startswith("bdom.")]

    def patch(name, owner, attr, info=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.missing.append(f"{owner.__name__}.{attr}")
            return
        wrapped = tracer.wrap(name, fn, info)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)

    scan_fn = getattr(bdom.interval, "domination_interval", None)
    jumps_fn = getattr(bdom.interval, "jump_search", None)
    check_fn = getattr(bdom.lattice, "check", None)

    def scan_info(args, kwargs, result, _):
        a = _bound(scan_fn, args, kwargs)
        return (1 << len(a["g"].edges), a.get("jobs", 1))

    def jumps_info(args, kwargs, result, _):
        return (_bound(jumps_fn, args, kwargs)["trials"], len(result))

    def check_info(args, kwargs, result, _):
        a = _bound(check_fn, args, kwargs)
        return (a["a"] * a["b"], len(result.violations))

    patch("cli.main", bdom.cli, "main")
    patch("graphs.parse", bdom.graphs, "parse_ug")
    patch("graphs.parse", bdom.graphs, "parse_dg")
    patch("graphs.parse", bdom.lattice, "parse_pat")
    patch("graphs.orient", bdom.graphs, "orient")
    patch("graphs.reception", bdom.graphs, "reception")
    patch("solver.gamma", bdom.solver, "gamma",
          lambda a, k, res, _: (res.gamma, getattr(res, "nodes_explored", 0)))
    patch("solver.greedy", bdom.solver, "greedy_upper_bound",
          lambda a, k, res, _: len(res))
    patch("solver.cover_tables", bdom.solver, "_cover_tables")
    patch("interval.scan", bdom.interval, "domination_interval", scan_info)
    patch("interval.jumps", bdom.interval, "jump_search", jumps_info)
    patch("lattice.torus", bdom.lattice, "torus_digraph")
    patch("lattice.check", bdom.lattice, "check", check_info)

    digraph = bdom.graphs.Digraph
    method = getattr(digraph, "bounded_distances", None)
    if method is None:
        tracer.missing.append("Digraph.bounded_distances")
        return

    def computes(args):
        self, horizon = args[0], args[1]
        return horizon not in getattr(self, "_dist_cache", ())

    def ball_entries(args, kwargs, result, computed):
        return sum(map(len, result)) if computed else None

    digraph.bounded_distances = tracer.wrap(
        "graphs.bfs", method, ball_entries, pre=computes
    )


def self_times(spans: list[list]) -> tuple[list[int], int]:
    """Each span's self time in ns, and the total time of the root spans."""
    own = [end - start for _, start, end, _, _ in spans]
    roots = 0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
        else:
            roots += end - start
    return own, roots


def shares(spans: list[list]) -> dict[str, float]:
    """Share of the traced op time spent in each span name's self time
    (the untraced remainder of an op counts as `cli.main`)."""
    own, roots = self_times(spans)
    out: dict[str, float] = {}
    for (name, *_), ns in zip(spans, own):
        out[name] = out.get(name, 0) + ns
    return {name: ns / roots for name, ns in sorted(out.items())} if roots else {}


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (overhead and pool
    efficiency are filled in by the caller)."""
    own, _ = self_times(spans)
    by: dict[str, list[tuple[int, int, object, int]]] = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        by.setdefault(name, []).append((end - start, own[i], info, parent))

    def infos(name):
        return [info for _, _, info, _ in by.get(name, ()) if info is not None]

    def total(name, self_time=True):
        return sum(s if self_time else d for d, s, _, _ in by.get(name, ()))

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    ops = len(by.get("cli.main", ()))
    gammas = by.get("solver.gamma", ())
    bfs = [(d, info) for d, _, info, _ in by.get("graphs.bfs", ()) if info is not None]
    scans = [(d, s, info) for d, s, info, _ in by.get("interval.scan", ()) if info is not None]
    serial = [s for _, s, info in scans if info[1] <= 1]
    pooled = [d for d, _, info in scans if info[1] > 1]
    gamma_self = total("solver.gamma")
    exact = gap = 0
    for _, _, size, parent in by.get("solver.greedy", ()):
        caller = spans[parent] if parent >= 0 else None
        if size is None or caller is None or caller[0] != "solver.gamma" or caller[4] is None:
            continue
        best = caller[4][0]
        exact += size == best
        gap += size - best
    jump_idx = {i for i, s in enumerate(spans) if s[0] == "interval.jumps"}
    nodes = sum(info[1] for info in infos("solver.gamma"))
    return {
        "cli.self_ms_per_op": per(total("cli.main"), ops, 1e-6),
        "graphs.parse_ms_per_op": per(total("graphs.parse", False), ops, 1e-6),
        "graphs.orient_calls": len(by.get("graphs.orient", ())),
        "graphs.orient_us_per_call": per(total("graphs.orient"), len(by.get("graphs.orient", ())), 1e-3),
        "graphs.bfs_calls": len(bfs),
        "graphs.bfs_us_per_call": per(sum(d for d, _ in bfs), len(bfs), 1e-3),
        "graphs.ball_entries": sum(info for _, info in bfs),
        "graphs.reception_calls": len(by.get("graphs.reception", ())),
        "graphs.reception_ms": total("graphs.reception") * 1e-6,
        "solver.gamma_calls": len(gammas),
        "solver.gamma_self_us_per_call": per(gamma_self, len(gammas), 1e-3),
        "solver.greedy_us_per_call": per(total("solver.greedy"), len(by.get("solver.greedy", ())), 1e-3),
        "solver.cover_tables_us_per_call": per(
            total("solver.cover_tables"), len(by.get("solver.cover_tables", ())), 1e-3),
        "solver.bb_nodes": nodes,
        "solver.bb_nodes_per_s": per(nodes, gamma_self, 1e9),
        "solver.greedy_exact_ratio": per(exact, len(gammas)),
        "solver.greedy_gap": gap,
        "interval.orientations": sum(info[0] for _, _, info in scans),
        "interval.scan_self_ms": sum(serial) * 1e-6,
        "interval.jump_trials": sum(info[0] for info in infos("interval.jumps")),
        "interval.jump_gamma_calls": sum(1 for *_, parent in gammas if parent in jump_idx),
        "interval.jumps_found": sum(info[1] for info in infos("interval.jumps")),
        "interval.pool_ms_per_op": per(sum(pooled), len(pooled), 1e-6),
        "lattice.torus_build_ms": total("lattice.torus", False) * 1e-6,
        "lattice.check_self_ms": total("lattice.check") * 1e-6,
        "lattice.cells": sum(info[0] for info in infos("lattice.check")),
        "lattice.violations": sum(info[1] for info in infos("lattice.check")),
    }
