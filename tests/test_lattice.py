import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bdom import Digraph, Params, TooLarge, is_dominating
from bdom.cli import main
from bdom.errors import DegenerateTorus, NotAMultiple, ParseError
from bdom.lattice import (
    BUILTIN_PATTERNS,
    CLAUSE_LITERAL,
    CLAUSE_SELF_CONSISTENT,
    TorusPattern,
    builtin_patterns,
    check,
    density,
    embedded_grid_claim,
    format_pat,
    parse_pat,
    torus_digraph,
)
from conftest import reference_bfs


def all_towers(pa: int, pb: int, tower: bool = True) -> TorusPattern:
    return TorusPattern(
        towers=tuple(tuple(tower for _ in range(pb)) for _ in range(pa)),
        east_bits=tuple(tuple(0 for _ in range(pb)) for _ in range(pa)),
        north_bits=tuple(tuple(0 for _ in range(pb)) for _ in range(pa)),
    )


def test_builtin_densities():
    pats = builtin_patterns()
    assert density(pats["diag13"]) == Fraction(1, 3)
    assert density(pats["checker12"]) == Fraction(1, 2)
    assert density(pats["dense23"]) == Fraction(2, 3)
    assert density(all_towers(3, 3)) == 1
    assert density(all_towers(3, 3, tower=False)) == 0


def test_torus_digraph_counts():
    pats = builtin_patterns()
    d, towers = torus_digraph(pats["diag13"], 6, 6)
    assert d.n == 36
    assert len(towers) == 12
    assert sum(len(a) for a in d.out_adjacency) == 72
    _, towers4 = torus_digraph(pats["checker12"], 4, 4)
    assert len(towers4) == 8


def test_torus_digraph_guards():
    pats = builtin_patterns()
    with pytest.raises(NotAMultiple):
        torus_digraph(pats["diag13"], 5, 6)
    with pytest.raises(DegenerateTorus):
        torus_digraph(pats["checker12"], 2, 2)


def test_check_verdicts_for_builtins():
    pats = builtin_patterns()
    rep = check(pats["diag13"], Params(2, 2), 6, 6)
    assert rep.dominating and rep.strict_efficient and rep.nontower_exact
    assert rep.density == Fraction(1, 3)
    assert rep.violations == ()

    rep = check(pats["checker12"], Params(2, 2), 4, 4)
    assert rep.dominating and rep.strict_efficient and rep.nontower_exact
    assert rep.density == Fraction(1, 2)

    rep = check(pats["dense23"], Params(2, 2), 6, 6)
    assert rep.dominating and rep.nontower_exact
    assert not rep.strict_efficient  # adjacent towers overhear each other
    assert rep.density == Fraction(2, 3)
    assert rep.violations  # the over-served towers are listed


def test_check_agrees_with_is_dominating():
    pats = builtin_patterns()
    for name, pat in pats.items():
        a = 3 * pat.pa if pat.pa < 3 else pat.pa
        b = 3 * pat.pb if pat.pb < 3 else pat.pb
        d, towers = torus_digraph(pat, a, b)
        rep = check(pat, Params(2, 2), a, b)
        assert rep.dominating == is_dominating(d, towers, Params(2, 2))


def test_clause_interpretations_differ_at_an_isolated_tower():
    # one tower in a 5x5 period: it hears exactly t from itself, which
    # satisfies the self-consistent second clause (t - 0) but not the
    # literal one (r - 0)
    towers = tuple(
        tuple(i == 0 and j == 0 for j in range(5)) for i in range(5)
    )
    zeros = tuple((0,) * 5 for _ in range(5))
    pat = TorusPattern(towers=towers, east_bits=zeros, north_bits=zeros)
    rep_self = check(pat, Params(3, 2), 5, 5, clause=CLAUSE_SELF_CONSISTENT)
    rep_lit = check(pat, Params(3, 2), 5, 5, clause=CLAUSE_LITERAL)
    assert rep_self.clause_interpretation == CLAUSE_SELF_CONSISTENT
    assert rep_lit.clause_interpretation == CLAUSE_LITERAL
    assert not rep_self.dominating  # far too sparse; not the point here
    tower_cell_self = [v for v in rep_self.violations if v[0] == (0, 0)]
    tower_cell_lit = [v for v in rep_lit.violations if v[0] == (0, 0)]
    assert tower_cell_self == []
    assert tower_cell_lit == [((0, 0), 3)]


def test_clauses_agree_when_t_equals_r():
    # at t = r there are no "close" towers, so the second clause never
    # fires and the interpretations coincide
    diag = builtin_patterns()["diag13"]
    assert check(diag, Params(2, 2), 6, 6, clause=CLAUSE_LITERAL).strict_efficient
    assert check(diag, Params(2, 2), 6, 6, clause=CLAUSE_SELF_CONSISTENT).strict_efficient
    with pytest.raises(ParseError, match="unknown clause interpretation 'bogus'"):
        check(diag, Params(2, 2), 6, 6, clause="bogus")


def reference_report(pat, p, a, b, clause):
    """Receptions, towers and strict-efficiency violations by the
    definition, tower by tower."""
    d, towers = torus_digraph(pat, a, b)
    dist = {v: reference_bfs(d.out_adjacency, v, p.t) for v in towers}
    receptions = []
    out = []
    for u in range(d.n):
        rec = sum(p.t - dist[v][u] for v in towers if u in dist[v])
        receptions.append(rec)
        close = [dist[v][u] for v in sorted(towers) if dist[v].get(u, p.t) < p.t - p.r]
        if not close:
            ok = rec == p.r
        elif len(close) == 1:
            ok = rec == (p.t if clause == CLAUSE_SELF_CONSISTENT else p.r) - close[0]
        else:
            ok = False
        if not ok:
            out.append(((u // b, u % b), rec))
    return receptions, towers, tuple(out)


def random_pattern(rng, pa, pb):
    def cells(pick):
        return tuple(tuple(pick() for _ in range(pb)) for _ in range(pa))

    return TorusPattern(
        towers=cells(lambda: rng.random() < 0.4),
        east_bits=cells(lambda: rng.randint(0, 1)),
        north_bits=cells(lambda: rng.randint(0, 1)),
    )


def assert_check_matches_reference(pat, p, a, b):
    for clause in (CLAUSE_SELF_CONSISTENT, CLAUSE_LITERAL):
        report = check(pat, p, a, b, clause=clause)
        receptions, towers, expected = reference_report(pat, p, a, b, clause)
        assert report.violations == expected
        assert report.strict_efficient == (not expected)
        assert report.dominating == all(x >= p.r for x in receptions)
        assert report.nontower_exact == all(
            x == p.r for u, x in enumerate(receptions) if u not in towers
        )


def random_params(rng):
    t = rng.randint(1, 5)
    return Params(t, rng.randint(1, t))


def test_check_matches_reference_on_random_patterns():
    rng = random.Random(1729)
    cases = []
    for _ in range(60):
        pa, pb = rng.randint(1, 3), rng.randint(1, 3)
        pat = random_pattern(rng, pa, pb)
        a, b = pa * (-(-3 // pa) + rng.randint(0, 1)), pb * -(-3 // pb)
        cases.append((pat, random_params(rng), a, b))
    # larger tori, sides up to 12
    for _ in range(20):
        pa, pb = rng.randint(1, 4), rng.randint(1, 4)
        pat = random_pattern(rng, pa, pb)
        a = pa * rng.randint(-(-3 // pa), 12 // pa)
        b = pb * rng.randint(-(-3 // pb), 12 // pb)
        cases.append((pat, random_params(rng), a, b))
    # tori where the depth-(t-1) in-balls wrap around: every period of
    # 1-3 cells a side and every (t, r) with t <= 5
    for a, b in ((3, 3), (3, 4), (4, 3), (3, 6)):
        for pa in (k for k in (1, 2, 3) if a % k == 0):
            for pb in (k for k in (1, 2, 3) if b % k == 0):
                pat = random_pattern(rng, pa, pb)
                for t in range(1, 6):
                    for r in range(1, t + 1):
                        cases.append((pat, Params(t, r), a, b))
    for pat, p, a, b in cases:
        assert_check_matches_reference(pat, p, a, b)


def checked_torus(pat, a, b):
    """The tiled torus built from its arc list through the checked
    Digraph constructor: the reference for torus_digraph."""
    arcs = []
    towers = set()
    for i in range(a):
        pi = i % pat.pa
        for j in range(b):
            pj = j % pat.pb
            here = i * b + j
            east = i * b + (j + 1) % b
            north = ((i + 1) % a) * b + j
            arcs.append((east, here) if pat.east_bits[pi][pj] else (here, east))
            arcs.append((north, here) if pat.north_bits[pi][pj] else (here, north))
            if pat.towers[pi][pj]:
                towers.add(here)
    return Digraph(a * b, arcs), frozenset(towers)


def uniform_pattern(rng, pa, pb, east_bit, north_bit):
    """Random towers; every east bit is east_bit, every north bit north_bit."""
    return TorusPattern(
        towers=tuple(tuple(rng.random() < 0.4 for _ in range(pb)) for _ in range(pa)),
        east_bits=tuple((east_bit,) * pb for _ in range(pa)),
        north_bits=tuple((north_bit,) * pb for _ in range(pa)),
    )


def test_torus_digraph_matches_checked_arc_list():
    rng = random.Random(2021)
    # (pa, pb, a, b): the 3x3 and 3xk tori first, where wrap-around
    # arcs meet, then random periods 1-6 on sides 3-18
    cases = [(1, 1, 3, 3), (3, 3, 3, 3), (1, 4, 3, 4), (3, 5, 3, 5), (3, 6, 3, 18),
             (1, 1, 5, 3), (6, 3, 18, 3), (6, 6, 18, 18)]
    for _ in range(120):
        pa, pb = rng.randint(1, 6), rng.randint(1, 6)
        a = rng.choice([k for k in range(3, 19) if k % pa == 0])
        b = rng.choice([k for k in range(3, 19) if k % pb == 0])
        cases.append((pa, pb, a, b))
    for pa, pb, a, b in cases:
        pats = [random_pattern(rng, pa, pb)]
        pats += [uniform_pattern(rng, pa, pb, e, n) for e in (0, 1) for n in (0, 1)]
        for pat in pats:
            d, towers = torus_digraph(pat, a, b)
            ref, ref_towers = checked_torus(pat, a, b)
            assert d.out_adjacency == ref.out_adjacency, (a, b, format_pat(pat))
            assert towers == ref_towers


def test_scale_invariance_of_verdicts():
    pats = builtin_patterns()
    for name, pat in pats.items():
        reps = []
        k = 1
        while len(reps) < 3:
            a, b = k * pat.pa, k * pat.pb
            k += 1
            if a < 3 or b < 3:
                continue
            rep = check(pat, Params(2, 2), a, b)
            reps.append(
                (rep.dominating, rep.strict_efficient, rep.nontower_exact, rep.density)
            )
        assert reps[0] == reps[1] == reps[2], name


def test_pat_round_trip():
    for name, pat in builtin_patterns().items():
        text = format_pat(pat)
        again = parse_pat(text, name=pat.name)
        assert again.towers == pat.towers
        assert again.east_bits == pat.east_bits
        assert again.north_bits == pat.north_bits
        assert format_pat(again) == text


def test_builtin_pattern_texts_match_bench(monkeypatch):
    # bench/workloads.py imports nothing from bdom, so it keeps its own copy
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.BUILTIN_PATTERNS == BUILTIN_PATTERNS
    for name, text in BUILTIN_PATTERNS.items():
        assert format_pat(builtin_patterns()[name]) == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n",
        "2 2\nT.\n.T\n00\n00\n00\n",  # north block missing one row
        "1 2\nTX\n00\n00\n",
        "1 2\nT.\n02\n00\n",
    ],
)
def test_parse_pat_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_pat(text)


def _pat_with_header(pa: int, pb: int, body: bool) -> str:
    """Header "pa pb", alone or over 3 * max(pa, 1) rows of max(pb, 1) chars."""
    rows, width = max(pa, 1), max(pb, 1)
    block = ["T" * width] * rows + ["0" * width] * (2 * rows) if body else []
    return "\n".join([f"{pa} {pb}", *block]) + "\n"


@pytest.mark.parametrize("pa, pb", [(0, 3), (0, 0), (-1, 2), (2, 0), (1, -1)])
@pytest.mark.parametrize("body", [False, True])
def test_parse_pat_rejects_nonpositive_periods(tmp_path, pa, pb, body):
    # no period check of its own: the line count, the row width and
    # TorusPattern's shape check reject every such header
    text = _pat_with_header(pa, pb, body)
    with pytest.raises(ParseError):
        parse_pat(text)
    pat = tmp_path / "bad.pat"
    pat.write_text(text, encoding="utf-8")
    assert main(["torus", "--pattern", str(pat), "--t", "2", "--r", "2"]) == 2


def test_pattern_rejects_empty_rows():
    # density and check would divide by pa * pb and take cells mod pb
    with pytest.raises(ParseError, match="at least one column"):
        TorusPattern(((),), ((),), ((),))


def test_embedded_grid_claim_3x3_records_inconsistency():
    a = embedded_grid_claim(3, 3)
    assert (a.claimed_low, a.claimed_high) == (3, 6)
    assert a.undirected_gamma == 4
    assert not a.low_obs_consistent
    assert a.enumerated
    assert a.low_attained is False
    assert a.high_attained is True
    assert a.actual_interval == (4, 8)
    assert a.notes


def test_embedded_grid_claim_2x3_enumerates():
    a = embedded_grid_claim(2, 3)
    assert (a.claimed_low, a.claimed_high) == (2, 4)
    assert a.enumerated
    assert a.low_attained is False  # undirected gamma is already 3
    assert a.high_attained is True
    assert a.actual_interval == (3, 5)


def test_embedded_grid_claim_1x3_runs():
    a = embedded_grid_claim(1, 3)
    assert (a.claimed_low, a.claimed_high) == (1, 2)
    assert a.undirected_gamma == 2
    assert a.high_attained is True


def test_embedded_grid_claim_without_enumeration():
    a = embedded_grid_claim(3, 6)  # 27 edges, over EMBED_MAX_ENUM_EDGES
    assert not a.enumerated
    assert a.high_attained is None
    assert a.low_attained is False  # claimed 6 < undirected gamma 8
    assert not a.low_obs_consistent


def test_embedded_grid_claim_guard():
    with pytest.raises(TooLarge):
        embedded_grid_claim(6, 6)
