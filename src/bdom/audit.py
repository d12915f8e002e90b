"""Claim-by-claim audits of the published closed forms.

Each audit returns a plain dict with one record per checked claim,
built by _claim, whose status says whether the instance confirmed the
claim, refuted it, or could not decide it; a refuted claim is reported,
not raised.  The dicts serialize directly to JSON and render to
Markdown via render_markdown.
"""

from __future__ import annotations

from dataclasses import asdict

from .errors import OutOfFormulaDomain
from .families import (
    grid,
    grid_formula_gamma,
    grid_interval_upper,
    max_indegree_le1_orientation,
    star,
    star_interval,
)
from .graphs import Params
from .interval import domination_interval
from .lattice import builtin_patterns, check, embedded_grid_claim
from .solver import gamma_undirected

STAR_MAX_N = 6
STAR_PARAMS = ((1, 1), (2, 2), (3, 3), (4, 4), (2, 1), (3, 1), (3, 2), (4, 2))
GRID_FORMULA_CASES = (
    (3, 3, 2, 2),
    (3, 4, 2, 2),
    (3, 5, 2, 2),
    (3, 6, 2, 2),
    (4, 4, 2, 2),
    (3, 3, 3, 1),
    (3, 6, 3, 1),
    (3, 9, 3, 1),
    (4, 4, 3, 1),
    (4, 6, 3, 1),
)
PROP34_CASES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
PROP44_CASES = ((1, 3), (2, 3), (3, 3))
# periods a side of each built-in pattern's torus: every built-in period
# has 2 or 3 rows and columns, so no side falls under the torus's 3 cells
TORUS_REPS = 2


def _claim(text: str, instance: dict, ok: bool | None, details: dict) -> dict:
    """One claim record; ok is None when the instance cannot decide it."""
    if ok is None:
        status = "unverifiable"
    else:
        status = "confirmed" if ok else "refuted-at-instance"
    return {"claim": text, "instance": instance, "status": status, "details": details}


def audit_star() -> dict:
    """Star interval closed forms versus exhaustive enumeration."""
    claims = []
    for n in range(3, STAR_MAX_N + 1):
        for t, r in STAR_PARAMS:
            p = Params(t, r)
            expected = star_interval(n, p)
            actual = domination_interval(star(n), p)
            ok = (
                expected.d == actual.d
                and expected.D == actual.D
                and expected.attained == actual.attained
                and actual.full
            )
            claims.append(
                _claim(
                    f"star interval S_{n} at ({t},{r})"
                    f" = [{expected.d},{expected.D}], full",
                    {"n": n, "t": t, "r": r},
                    ok,
                    {
                        "expected": [expected.d, expected.D],
                        "actual": [actual.d, actual.D],
                        "attained": sorted(actual.attained),
                        "full": actual.full,
                    },
                )
            )
    return {"target": "star", "claims": claims}


def audit_grid_formulas() -> dict:
    """Published narrow-grid gamma formulas versus the exact solver."""
    claims = []
    for m, n, t, r in GRID_FORMULA_CASES:
        p = Params(t, r)
        expected = grid_formula_gamma(m, n, p)
        actual = gamma_undirected(grid(m, n), p).gamma
        claims.append(
            _claim(
                f"gamma of {m}x{n} grid at ({t},{r}) = {expected}",
                {"m": m, "n": n, "t": t, "r": r},
                actual == expected,
                {"formula": expected, "solver": actual},
            )
        )
    return {"target": "grid", "claims": claims}


def audit_prop34() -> dict:
    """Claimed (2,2) interval upper endpoints for 2- and 3-row grids.

    Membership is decided by full orientation enumeration.  The
    max-in-degree-<=-1 count is recorded alongside: the published
    argument ties the endpoint to that count through the in-degree sum
    identity (which equals |E|, not |V| as printed).
    """
    p = Params(2, 2)
    claims = []
    for m, n in PROP34_CASES:
        value = grid_interval_upper(m, n)
        iv = domination_interval(grid(m, n), p)
        _, count = max_indegree_le1_orientation(m, n)
        attained = value in iv.attained
        claims.append(
            _claim(
                f"(2,2) interval of {m}x{n} grid attains {value}",
                {"m": m, "n": n},
                attained,
                {
                    "claimed_upper": value,
                    "attained": attained,
                    "actual_interval": [iv.d, iv.D],
                    "full": iv.full,
                    "max_indegree_le1_count": count,
                    "indegree_sum_equals": len(grid(m, n).edges),
                },
            )
        )
    return {"target": "prop34", "claims": claims}


def audit_prop44() -> dict:
    """Claimed (2,2) interval containments from the 2/3-density embedding."""
    claims = []
    for m, n in PROP44_CASES:
        a = embedded_grid_claim(m, n)
        ok = None
        if a.enumerated:
            ok = a.low_obs_consistent and bool(a.low_attained) and bool(a.high_attained)
        claims.append(
            _claim(
                f"(2,2) interval of {m}x{n} grid contains"
                f" [{a.claimed_low},{a.claimed_high}]",
                {"m": m, "n": n},
                ok,
                asdict(a),
            )
        )
    return {"target": "prop44", "claims": claims}


def audit_torus() -> dict:
    """Built-in lattice patterns: density and certification verdicts."""
    claims = []
    expectations = {
        "diag13": ("1/3", True),
        "checker12": ("1/2", True),
        "dense23": ("2/3", False),
    }
    for name, pat in builtin_patterns().items():
        a, b = TORUS_REPS * pat.pa, TORUS_REPS * pat.pb
        rep = check(pat, Params(2, 2), a, b)
        want_density, want_strict = expectations[name]
        ok = (
            str(rep.density) == want_density
            and rep.dominating
            and rep.nontower_exact
            and rep.strict_efficient == want_strict
        )
        claims.append(
            _claim(
                f"{name}: density {want_density}, dominating,"
                + (" strictly efficient" if want_strict else " non-tower exact"),
                {"pattern": name, "torus": [a, b]},
                ok,
                {
                    "density": str(rep.density),
                    "dominating": rep.dominating,
                    "strict_efficient": rep.strict_efficient,
                    "nontower_exact": rep.nontower_exact,
                    "clause": rep.clause_interpretation,
                },
            )
        )
    return {"target": "torus", "claims": claims}


# every audit target in report order; the CLI offers these and "all"
AUDITS = {
    "star": audit_star,
    "grid": audit_grid_formulas,
    "prop34": audit_prop34,
    "prop44": audit_prop44,
    "torus": audit_torus,
}


def run_audit(target: str) -> dict:
    if target == "all":
        parts = [fn() for fn in AUDITS.values()]
        return {
            "target": "all",
            "claims": [c for part in parts for c in part["claims"]],
        }
    try:
        fn = AUDITS[target]
    except KeyError:
        raise OutOfFormulaDomain(
            f"unknown audit target {target!r}; choose from"
            f" {sorted(AUDITS)} or 'all'"
        ) from None
    return fn()


def render_markdown(report: dict) -> str:
    lines = [
        f"# Claim audit: {report['target']}",
        "",
        "| claim | status | details |",
        "|---|---|---|",
    ]
    for c in report["claims"]:
        details = ", ".join(f"{k}={v}" for k, v in c["details"].items())
        lines.append(f"| {c['claim']} | {c['status']} | {details} |")
    counts: dict[str, int] = {}
    for c in report["claims"]:
        counts[c["status"]] = counts.get(c["status"], 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.extend(["", f"Summary: {summary}", ""])
    return "\n".join(lines)
