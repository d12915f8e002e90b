import random
from fractions import Fraction

import pytest

from bdom import Params, TooLarge, is_dominating
from bdom.errors import DegenerateTorus, NotAMultiple, ParseError
from bdom.lattice import (
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


def reference_violations(pat, p, a, b, clause):
    """Strict-efficiency violations by the definition, tower by tower."""
    d, towers = torus_digraph(pat, a, b)
    dist = {v: reference_bfs(d.out_adjacency, v, p.t) for v in towers}
    out = []
    for u in range(d.n):
        rec = sum(p.t - dist[v][u] for v in towers if u in dist[v])
        close = [dist[v][u] for v in sorted(towers) if dist[v].get(u, p.t) < p.t - p.r]
        if not close:
            ok = rec == p.r
        elif len(close) == 1:
            ok = rec == (p.t if clause == CLAUSE_SELF_CONSISTENT else p.r) - close[0]
        else:
            ok = False
        if not ok:
            out.append(((u // b, u % b), rec))
    return tuple(out)


def test_check_matches_reference_on_random_patterns():
    rng = random.Random(1729)
    for _ in range(60):
        pa, pb = rng.randint(1, 3), rng.randint(1, 3)

        def cells(pick):
            return tuple(tuple(pick() for _ in range(pb)) for _ in range(pa))

        pat = TorusPattern(
            towers=cells(lambda: rng.random() < 0.4),
            east_bits=cells(lambda: rng.randint(0, 1)),
            north_bits=cells(lambda: rng.randint(0, 1)),
        )
        a, b = pa * (-(-3 // pa) + rng.randint(0, 1)), pb * -(-3 // pb)
        t = rng.randint(1, 5)
        p = Params(t, rng.randint(1, t))
        for clause in (CLAUSE_SELF_CONSISTENT, CLAUSE_LITERAL):
            report = check(pat, p, a, b, clause=clause)
            expected = reference_violations(pat, p, a, b, clause)
            assert report.violations == expected
            assert report.strict_efficient == (not expected)


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
    a = embedded_grid_claim(3, 6, max_enum_edges=12)  # 27 edges
    assert not a.enumerated
    assert a.high_attained is None
    assert a.low_attained is False  # claimed 6 < undirected gamma 8
    assert not a.low_obs_consistent


def test_embedded_grid_claim_guard():
    with pytest.raises(TooLarge):
        embedded_grid_claim(6, 6)
