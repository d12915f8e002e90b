"""Command-line front end.

Every computing subcommand returns its (inputs_digest, params, results)
triple, and main alone wraps it into one key-sorted JSON report:

    {"command": ..., "inputs_digest": {...}, "params": {...},
     "results": {...}, "timing_ms": ..., "version": ...}

The results payload is a pure function of the inputs; only timing_ms
varies between runs.  `family` is the exception: it emits the .ug text
itself.  Diagnostics go to stderr.  main also maps every failure to its
exit code: 0 success, 2 unreadable or malformed input, 3 infeasible
parameters, 4 guard violation, 5 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .audit import AUDITS, render_markdown, run_audit
from .errors import (
    BdomError,
    GraphConstructionError,
    GuardError,
    InfeasibleParams,
    ParseError,
)
from .families import grid, path as path_graph, star
from .graphs import Params, format_ug, parse_dg, parse_ug
from .interval import domination_interval, flip_walk, jump_search, max_step
from .lattice import (
    BUILTIN_PATTERNS,
    CLAUSE_LITERAL,
    CLAUSE_SELF_CONSISTENT,
    check,
    parse_pat,
)
from .solver import gamma, gamma_bruteforce

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4
EXIT_INTERNAL = 5

# the first entry whose types match a raised error gives its exit code;
# BdomError, the base of the other package errors, comes last
_EXIT_CODES = (
    ((ParseError, GraphConstructionError, OSError), EXIT_PARSE),
    (InfeasibleParams, EXIT_INFEASIBLE),
    (GuardError, EXIT_GUARD),
    (BdomError, EXIT_INTERNAL),
)

Report = tuple[dict, dict, dict]  # inputs_digest, params, results


def _read_input(path: Path) -> tuple[str, str]:
    """The file's text, decoded as strict UTF-8, and the sha256 of its
    bytes, from one read; undecodable bytes raise ParseError."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    return text, hashlib.sha256(data).hexdigest()


def _cmd_solve(args: argparse.Namespace) -> Report:
    """gamma or oracle, run by the solver of that name; a .dg file is a
    digraph, any other a .ug graph read as its doubly directed equivalent."""
    src = Path(args.graph)
    text, digest = _read_input(src)
    directed = src.suffix == ".dg"
    d = parse_dg(text) if directed else parse_ug(text).as_digraph()
    p = Params(args.t, args.r)
    result = (gamma if args.command == "gamma" else gamma_bruteforce)(d, p)
    return (
        {"graph": digest},
        {"t": p.t, "r": p.r, "directed": directed},
        {
            "gamma": result.gamma,
            "witness": sorted(result.witness),
            "t": p.t,
            "r": p.r,
        },
    )


def _cmd_interval(args: argparse.Namespace) -> Report:
    text, digest = _read_input(Path(args.graph))
    g = parse_ug(text)
    p = Params(args.t, args.r)
    iv = domination_interval(g, p, jobs=args.jobs)
    results = {
        "d": iv.d,
        "D": iv.D,
        "attained": sorted(iv.attained),
        "full": iv.full,
    }
    if args.witnesses:
        results["witnesses"] = {
            str(value): "".join(map(str, bits))
            for value, bits in iv.witnesses.items()
        }
    return {"graph": digest}, {"t": p.t, "r": p.r, "jobs": args.jobs}, results


def _cmd_walk(args: argparse.Namespace) -> Report:
    text, digest = _read_input(Path(args.graph))
    g = parse_ug(text)
    p = Params(args.t, args.r)
    trace = flip_walk(g, args.from_bits, args.to_bits, p)
    return (
        {"graph": digest},
        {"t": p.t, "r": p.r, "from": args.from_bits, "to": args.to_bits},
        {
            "flips": list(trace.flip_sequence),
            "gamma_sequence": list(trace.gamma_sequence),
            "max_step": max_step(trace),
        },
    )


def _cmd_family(args: argparse.Namespace) -> None:
    if args.n is None or (args.kind == "grid" and args.m is None):
        flags = "--m and --n" if args.kind == "grid" else "--n"
        raise ParseError(f"family {args.kind} needs {flags}")
    if args.kind == "grid":
        g = grid(args.m, args.n)
    else:
        g = (star if args.kind == "star" else path_graph)(args.n)
    text = format_ug(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _cmd_torus(args: argparse.Namespace) -> Report:
    digests = {}
    if args.pattern in BUILTIN_PATTERNS:
        text, name = BUILTIN_PATTERNS[args.pattern], args.pattern
    else:
        src = Path(args.pattern)
        text, digests["pattern"] = _read_input(src)
        name = src.stem
    pat = parse_pat(text, name=name)
    p = Params(args.t, args.r)
    a, b = args.reps * pat.pa, args.reps * pat.pb
    report = check(pat, p, a, b, clause=args.clause)
    return (
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
    )


def _cmd_jumps(args: argparse.Namespace) -> Report:
    p = Params(args.t, args.r)
    jumps = jump_search(p, args.budget, args.trials, args.seed)
    return (
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
    )


def _cmd_audit(args: argparse.Namespace) -> Report:
    report = run_audit(args.target)
    if args.md_out:
        Path(args.md_out).write_text(render_markdown(report), encoding="utf-8")
        print(f"wrote {args.md_out}", file=sys.stderr)
    return {}, {"target": args.target}, report


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

    for name, text in (
        ("gamma", "domination number of one (di)graph"),
        ("oracle", "brute-force domination number"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("graph", help=".ug or .dg file")
        add_params(sp)
        sp.set_defaults(func=_cmd_solve)

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
    sp.add_argument("target", choices=[*AUDITS, "all"])
    sp.add_argument("--md-out", help="also write a Markdown report here")
    sp.set_defaults(func=_cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        report = args.func(args)
    except (BdomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
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
        digests, params, results = report
        envelope = {
            "command": args.command,
            "inputs_digest": digests,
            "params": params,
            "results": results,
            "timing_ms": int((time.monotonic() - started) * 1000),
            "version": __version__,
        }
        print(json.dumps(envelope, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
