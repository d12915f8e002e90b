import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdom import (
    Digraph,
    build_graph,
    InfeasibleParams,
    Params,
    TooLarge,
    bits_from_index,
    gamma,
    gamma_bruteforce,
    gamma_undirected,
    greedy_upper_bound,
    is_dominating,
    orient,
)
from bdom.families import grid, star, star_orientation

PARAMS6 = [Params(1, 1), Params(2, 1), Params(2, 2), Params(3, 1), Params(3, 2), Params(3, 3)]


def test_gamma_star_source_and_sink():
    assert gamma(star_orientation(9, 0), Params(2, 1)).gamma == 1
    assert gamma(star_orientation(9, 0), Params(2, 1)).witness == frozenset({0})
    assert gamma(star_orientation(9, 8), Params(2, 1)).gamma == 8
    assert gamma(star_orientation(9, 8), Params(2, 1)).witness == frozenset(range(1, 9))


def test_gamma_11_needs_every_vertex():
    d = star_orientation(6, 3)
    res = gamma(d, Params(1, 1))
    assert res.gamma == 6
    assert res.witness == frozenset(range(6))


def test_gamma_empty_digraph():
    assert gamma(Digraph(0, []), Params(2, 2)).gamma == 0


def test_gamma_undirected_worked_grids():
    g = grid(3, 5)
    assert gamma_undirected(g, Params(3, 2)).gamma == 3
    assert gamma_undirected(g, Params(3, 1)).gamma == 2


def test_gamma_undirected_star_with_spare_strength():
    for n in (4, 6, 9):
        for p in (Params(2, 1), Params(3, 2), Params(4, 1)):
            assert gamma_undirected(star(n), p).gamma == 1


def test_infeasible_params_raise():
    d = star_orientation(4, 1)
    for fn in (gamma, gamma_bruteforce, greedy_upper_bound):
        with pytest.raises(InfeasibleParams):
            fn(d, Params(2, 3))


def test_search_size_and_witness_pinned():
    # branch order, bounds and greedy seed fix these exact values
    g = grid(4, 4)
    res = gamma_undirected(g, Params(2, 2))
    assert (res.gamma, sorted(res.witness), res.nodes_explored) == (
        8, [0, 3, 5, 6, 9, 10, 12, 15], 96)
    res = gamma(orient(g, bits_from_index(11766603, len(g.edges))), Params(2, 2))
    assert (res.gamma, sorted(res.witness), res.nodes_explored) == (
        10, [0, 1, 2, 5, 6, 7, 9, 12, 13, 15], 10)
    rg = build_graph(18, [
        (0, 1), (0, 3), (0, 7), (1, 2), (1, 5), (1, 9), (1, 13), (1, 16),
        (1, 17), (2, 6), (2, 8), (2, 14), (2, 15), (3, 4), (3, 11), (4, 7),
        (4, 11), (5, 6), (6, 17), (7, 11), (8, 10), (10, 12), (11, 12),
        (12, 13), (13, 16), (14, 17),
    ])
    res = gamma(orient(rg, bits_from_index(37211386, 26)), Params(3, 1))
    assert (res.gamma, sorted(res.witness), res.nodes_explored) == (
        6, [0, 1, 2, 9, 11, 12], 23)


def test_bruteforce_single_arc():
    d = Digraph(2, [(0, 1)])
    res = gamma_bruteforce(d, Params(2, 1))
    assert (res.gamma, res.witness) == (1, frozenset({0}))
    assert gamma_bruteforce(d, Params(2, 2)).gamma == 2


def test_bruteforce_guard():
    with pytest.raises(TooLarge):
        gamma_bruteforce(Digraph(26, []), Params(1, 1))


def test_bruteforce_forward_path_at_10_8():
    # a single source tower leaves the tail below 8, but any second
    # tower near the source tops up everything downstream
    arcs = [(i, i + 1) for i in range(6)]
    res = gamma_bruteforce(Digraph(7, arcs), Params(10, 8))
    assert res.gamma == 2
    assert not is_dominating(Digraph(7, arcs), {0}, Params(10, 8))


def test_witnesses_always_dominate():
    for (n, s) in [(5, 0), (5, 3), (9, 4)]:
        d = star_orientation(n, s)
        for p in PARAMS6:
            res = gamma(d, p)
            assert is_dominating(d, res.witness, p)
            assert len(res.witness) == res.gamma


def test_greedy_star_and_11():
    assert greedy_upper_bound(star_orientation(9, 0), Params(2, 1)) == frozenset({0})
    d = star_orientation(5, 2)
    assert greedy_upper_bound(d, Params(1, 1)) == frozenset(range(5))


def test_greedy_is_dominating_and_upper_bound():
    g33 = grid(3, 3).as_digraph()
    p = Params(2, 2)
    s = greedy_upper_bound(g33, p)
    assert is_dominating(g33, s, p)
    assert len(s) >= gamma(g33, p).gamma == 4


def test_determinism():
    d = star_orientation(7, 3)
    p = Params(3, 2)
    first = gamma(d, p)
    for _ in range(3):
        again = gamma(d, p)
        assert (again.gamma, again.witness) == (first.gamma, first.witness)


# ---- oracle equivalence and order properties ---------------------------------

small_digraphs = st.builds(
    lambda n, picks: Digraph(
        n, [(u, v) for k, (u, v) in enumerate(
            [(u, v) for u in range(n) for v in range(n) if u != v]
        ) if k in picks]
    ),
    st.integers(min_value=1, max_value=5),
    st.sets(st.integers(min_value=0, max_value=19)),
)


@settings(max_examples=60)
@given(small_digraphs)
def test_gamma_matches_bruteforce(d):
    for p in PARAMS6:
        assert gamma(d, p).gamma == gamma_bruteforce(d, p).gamma


@settings(max_examples=40)
@given(small_digraphs)
def test_gamma_monotone_in_r_antitone_in_t(d):
    assert gamma(d, Params(2, 1)).gamma <= gamma(d, Params(2, 2)).gamma
    assert gamma(d, Params(3, 1)).gamma <= gamma(d, Params(3, 2)).gamma <= gamma(d, Params(3, 3)).gamma
    assert gamma(d, Params(3, 1)).gamma <= gamma(d, Params(2, 1)).gamma <= gamma(d, Params(1, 1)).gamma
    assert gamma(d, Params(3, 2)).gamma <= gamma(d, Params(2, 2)).gamma


def test_orientation_never_beats_undirected():
    # directed gamma is at least the undirected gamma, every orientation
    g = grid(2, 2)
    m = len(g.edges)
    for p in PARAMS6:
        base = gamma_undirected(g, p).gamma
        for i in range(1 << m):
            assert gamma(orient(g, bits_from_index(i, m)), p).gamma >= base


def test_orientation_never_beats_undirected_all_small_graphs():
    from conftest import connected_labeled_graphs

    for g in connected_labeled_graphs(4):
        m = len(g.edges)
        for p in PARAMS6:
            base = gamma_undirected(g, p).gamma
            for i in range(1 << m):
                assert gamma(orient(g, bits_from_index(i, m)), p).gamma >= base
