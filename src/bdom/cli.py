"""Command-line front end.

Every computing subcommand prints one key-sorted JSON report:

    {"command": ..., "inputs_digest": {...}, "params": {...},
     "results": {...}, "timing_ms": ..., "version": ...}

The results payload is a pure function of the inputs; only timing_ms
varies between runs.  `family` is the exception: it emits the .ug text
itself.  Diagnostics go to stderr.  Exit codes: 0 success, 2 unreadable
or malformed input, 3 infeasible parameters, 4 guard violation,
5 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .audit import render_markdown, run_audit
from .errors import (
    BdomError,
    GraphConstructionError,
    GuardError,
    InfeasibleParams,
    ParseError,
)
from .families import grid, path as path_graph, star
from .graphs import Digraph, Params, format_ug, parse_dg, parse_ug
from .interval import domination_interval, flip_walk, jump_search, max_step
from .lattice import CLAUSE_LITERAL, CLAUSE_SELF_CONSISTENT, builtin_patterns, check, parse_pat
from .solver import gamma, gamma_bruteforce

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4
EXIT_INTERNAL = 5


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_digraph(path: Path, directed: bool) -> tuple[Digraph, bool]:
    """The file as a digraph, and whether it was read as directed: a .ug
    becomes its doubly directed equivalent."""
    text = path.read_text(encoding="utf-8")
    if directed or path.suffix == ".dg":
        return parse_dg(text), True
    return parse_ug(text).as_digraph(), False


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True))


def _wrap(command: str, digests: dict, params: dict, results, started: float) -> dict:
    return {
        "command": command,
        "inputs_digest": digests,
        "params": params,
        "results": results,
        "timing_ms": int((time.monotonic() - started) * 1000),
        "version": __version__,
    }


def _cmd_solve(args: argparse.Namespace) -> dict:
    """gamma or oracle: args.solve is the solver the subcommand picked."""
    started = time.monotonic()
    src = Path(args.graph)
    d, directed = _load_digraph(src, args.directed)
    p = Params(args.t, args.r)
    result = args.solve(d, p)
    return _wrap(
        args.command,
        {"graph": _digest(src)},
        {"t": p.t, "r": p.r, "directed": directed},
        {
            "gamma": result.gamma,
            "witness": sorted(result.witness),
            "t": p.t,
            "r": p.r,
        },
        started,
    )


def _cmd_interval(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    src = Path(args.graph)
    g = parse_ug(src.read_text(encoding="utf-8"))
    p = Params(args.t, args.r)
    iv = domination_interval(g, p, keep_witnesses=args.witnesses, jobs=args.jobs)
    results = {
        "d": iv.d,
        "D": iv.D,
        "attained": sorted(iv.attained),
        "full": iv.full,
    }
    if iv.witnesses is not None:
        results["witnesses"] = {
            str(value): "".join(map(str, bits))
            for value, bits in iv.witnesses.items()
        }
    return _wrap(
        "interval",
        {"graph": _digest(src)},
        {"t": p.t, "r": p.r, "jobs": args.jobs},
        results,
        started,
    )


def _cmd_walk(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    src = Path(args.graph)
    g = parse_ug(src.read_text(encoding="utf-8"))
    p = Params(args.t, args.r)
    trace = flip_walk(g, args.from_bits, args.to_bits, p)
    return _wrap(
        "walk",
        {"graph": _digest(src)},
        {"t": p.t, "r": p.r, "from": args.from_bits, "to": args.to_bits},
        {
            "flips": list(trace.flip_sequence),
            "gamma_sequence": list(trace.gamma_sequence),
            "max_step": max_step(trace),
        },
        started,
    )


def _cmd_family(args: argparse.Namespace) -> None:
    if args.kind == "grid":
        if args.m is None or args.n is None:
            raise ParseError("family grid needs --m and --n")
        g = grid(args.m, args.n)
    elif args.kind == "star":
        if args.n is None:
            raise ParseError("family star needs --n")
        g = star(args.n)
    else:
        if args.n is None:
            raise ParseError("family path needs --n")
        g = path_graph(args.n)
    text = format_ug(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _cmd_torus(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    digests = {}
    builtins = builtin_patterns()
    if args.pattern in builtins:
        pat = builtins[args.pattern]
    else:
        src = Path(args.pattern)
        digests["pattern"] = _digest(src)
        pat = parse_pat(src.read_text(encoding="utf-8"), name=src.stem)
    p = Params(args.t, args.r)
    mult = args.reps
    a, b = mult * pat.pa, mult * pat.pb
    report = check(pat, p, a, b, clause=args.clause)
    return _wrap(
        "torus",
        digests,
        {
            "pattern": args.pattern,
            "t": p.t,
            "r": p.r,
            "reps": args.reps,
            "clause": args.clause,
        },
        {
            "pattern": pat.name or args.pattern,
            "torus": list(report.torus),
            "density": str(report.density),
            "dominating": report.dominating,
            "strict_efficient": report.strict_efficient,
            "nontower_exact": report.nontower_exact,
            "clause_interpretation": report.clause_interpretation,
            "violations": [
                {"cell": list(cell), "reception": rec}
                for cell, rec in report.violations
            ],
        },
        started,
    )


def _cmd_jumps(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    p = Params(args.t, args.r)
    jumps = jump_search(p, args.budget, args.trials, args.seed)
    return _wrap(
        "jumps",
        {},
        {
            "t": p.t,
            "r": p.r,
            "budget": args.budget,
            "trials": args.trials,
            "seed": args.seed,
        },
        {
            "count": len(jumps),
            "jumps": [
                {
                    "n": j.graph.n,
                    "edges": [list(e) for e in j.graph.edges],
                    "bits": "".join(map(str, j.bits)),
                    "edge_index": j.edge_index,
                    "gamma_before": j.gamma_before,
                    "gamma_after": j.gamma_after,
                }
                for j in jumps
            ],
        },
        started,
    )


def _cmd_audit(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    report = run_audit(args.target)
    if args.md_out:
        Path(args.md_out).write_text(render_markdown(report), encoding="utf-8")
        print(f"wrote {args.md_out}", file=sys.stderr)
    return _wrap("audit", {}, {"target": args.target}, report, started)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdom",
        description="Exact (t,r) broadcast domination on graphs,"
        " orientations, and toroidal patterns",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--t", type=int, required=True, help="transmission strength")
        sp.add_argument("--r", type=int, required=True, help="required reception")

    sp = sub.add_parser("gamma", help="domination number of one (di)graph")
    sp.add_argument("graph", help=".ug or .dg file")
    add_params(sp)
    sp.add_argument("--directed", action="store_true", help="treat input as .dg")
    sp.set_defaults(func=_cmd_solve, solve=gamma)

    sp = sub.add_parser("oracle", help="brute-force domination number")
    sp.add_argument("graph")
    add_params(sp)
    sp.add_argument("--directed", action="store_true")
    sp.set_defaults(func=_cmd_solve, solve=gamma_bruteforce)

    sp = sub.add_parser("interval", help="gamma over all orientations")
    sp.add_argument("graph", help=".ug file")
    add_params(sp)
    sp.add_argument("--witnesses", action="store_true")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=_cmd_interval)

    sp = sub.add_parser("walk", help="arc-flip walk between two orientations")
    sp.add_argument("graph", help=".ug file")
    sp.add_argument("--from", dest="from_bits", required=True, metavar="BITS")
    sp.add_argument("--to", dest="to_bits", required=True, metavar="BITS")
    add_params(sp)
    sp.set_defaults(func=_cmd_walk)

    sp = sub.add_parser("family", help="emit a generated graph as .ug")
    sp.add_argument("kind", choices=["grid", "star", "path"])
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--out", help="output file (stdout if omitted)")
    sp.set_defaults(func=_cmd_family)

    sp = sub.add_parser("torus", help="check a periodic pattern on a torus")
    sp.add_argument("--pattern", required=True, help="builtin name or .pat file")
    add_params(sp)
    sp.add_argument("--reps", type=int, default=2, help="period multiples per axis")
    sp.add_argument(
        "--clause",
        choices=[CLAUSE_SELF_CONSISTENT, CLAUSE_LITERAL],
        default=CLAUSE_SELF_CONSISTENT,
    )
    sp.set_defaults(func=_cmd_torus)

    sp = sub.add_parser("jumps", help="seeded search for flips moving gamma by 2+")
    add_params(sp)
    sp.add_argument("--budget", type=int, default=11, help="max vertices")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_jumps)

    sp = sub.add_parser("audit", help="check published claims, report statuses")
    sp.add_argument(
        "target", choices=["star", "grid", "prop34", "prop44", "torus", "all"]
    )
    sp.add_argument("--md-out", help="also write a Markdown report here")
    sp.set_defaults(func=_cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (ParseError, GraphConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except BdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # the documented exit 5, never a traceback
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}"
        print(
            f"internal error: {type(exc).__name__}: {exc} ({where})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    if report is not None:
        _emit(report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
