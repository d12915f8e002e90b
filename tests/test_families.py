from itertools import permutations

import pytest

from bdom import (
    InfeasibleParams,
    Params,
    TooManyEdges,
    domination_interval,
    gamma,
    gamma_undirected,
    is_dominating,
)
from bdom.errors import InvalidDims, OutOfFormulaDomain, OutOfRange
from bdom.families import (
    grid,
    grid_formula_gamma,
    grid_interval_upper,
    max_indegree_le1_orientation,
    orient_outward,
    orient_source_towers,
    path,
    star,
    star_interval,
    star_orientation,
    zigzag,
    zigzag_ratio,
)


# ---- generators --------------------------------------------------------------


def test_grid_shapes():
    assert grid(1, 2).edges == ((0, 1),)
    g = grid(3, 5)
    assert (g.n, len(g.edges)) == (15, 22)
    assert grid(2, 2).edges == ((0, 1), (2, 3), (0, 2), (1, 3))


def test_grid_edge_order_is_horizontal_then_vertical_row_major():
    g = grid(2, 3)
    assert g.edges == ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))


def test_star_and_path_shapes():
    assert star(3).edges == ((0, 1), (0, 2))
    assert star(2).edges == ((0, 1),)
    assert star(9).n == 9
    assert path(1).edges == ()
    assert path(2).edges == ((0, 1),)
    assert path(7).edges == tuple((i, i + 1) for i in range(6))


def test_generator_guards():
    for bad in ((0, 3), (3, 0)):
        with pytest.raises(InvalidDims):
            grid(*bad)
    with pytest.raises(InvalidDims):
        star(1)
    with pytest.raises(InvalidDims):
        path(0)


# ---- closed forms -------------------------------------------------------------


def test_grid_formula_examples():
    assert grid_formula_gamma(3, 6, Params(2, 2)) == 8
    assert grid_formula_gamma(3, 6, Params(3, 1)) == 2
    assert grid_formula_gamma(4, 6, Params(3, 1)) == 4
    assert grid_formula_gamma(4, 4, Params(2, 2)) == 8
    assert grid_formula_gamma(5, 5, Params(2, 2)) == 11


def test_grid_formula_domain():
    with pytest.raises(OutOfFormulaDomain):
        grid_formula_gamma(3, 2, Params(2, 2))
    with pytest.raises(OutOfFormulaDomain):
        grid_formula_gamma(6, 6, Params(2, 2))
    with pytest.raises(OutOfFormulaDomain):
        grid_formula_gamma(3, 5, Params(3, 2))


def test_zigzag_small_values_and_ratio():
    assert [zigzag(k) for k in range(5)] == [1, 1, 1, 2, 5]
    assert zigzag(10) == 50521
    assert zigzag(11) == 353792
    assert zigzag_ratio(10) == 7


def _alternating_count(k: int) -> int:
    if k <= 1:
        return 1
    count = 0
    for perm in permutations(range(k)):
        if all(
            (perm[i] < perm[i + 1]) == (i % 2 == 0) for i in range(k - 1)
        ):
            count += 1
    return count


@pytest.mark.parametrize("k", range(8))
def test_zigzag_matches_permutation_count(k):
    assert zigzag(k) == _alternating_count(k)


def test_grid_interval_upper_values():
    assert grid_interval_upper(2, 10) == 16
    assert grid_interval_upper(3, 10) == 24
    assert grid_interval_upper(4, 10) == 31
    with pytest.raises(OutOfFormulaDomain):
        grid_interval_upper(5, 10)
    with pytest.raises(OutOfFormulaDomain):
        grid_interval_upper(2, 0)


# ---- star classification -------------------------------------------------------


def test_star_interval_closed_forms():
    assert (star_interval(6, Params(2, 2)).d, star_interval(6, Params(2, 2)).D) == (5, 6)
    assert (star_interval(6, Params(3, 3)).d, star_interval(6, Params(3, 3)).D) == (2, 6)
    assert (star_interval(6, Params(3, 2)).d, star_interval(6, Params(3, 2)).D) == (1, 5)
    assert (star_interval(4, Params(1, 1)).d, star_interval(4, Params(1, 1)).D) == (4, 4)
    assert star_interval(5, Params(4, 4)).attained == frozenset({2, 3, 4, 5})


def test_star_interval_guards():
    with pytest.raises(OutOfFormulaDomain):
        star_interval(2, Params(2, 2))
    with pytest.raises(InfeasibleParams):
        star_interval(5, Params(2, 3))


def test_star_interval_matches_enumeration_small():
    for n in (3, 4, 5):
        for p in (Params(2, 2), Params(3, 1), Params(3, 3)):
            expected = star_interval(n, p)
            actual = domination_interval(star(n), p)
            assert (expected.d, expected.D) == (actual.d, actual.D)
            assert actual.full


def test_star_orientation_shapes():
    assert star_orientation(9, 0).out_adjacency[0] == tuple(range(1, 9))
    assert tuple(u for u, v in star_orientation(9, 8).arcs if v == 0) == tuple(
        range(1, 9)
    )
    arcs = {star_orientation(5, s).arcs for s in range(5)}
    assert len(arcs) == 5
    with pytest.raises(OutOfRange):
        star_orientation(5, 5)


# ---- preserving orientations ----------------------------------------------------


def test_orient_source_towers_star_center():
    d, flagged = orient_source_towers(star(5), {0})
    assert d == star_orientation(5, 0)
    assert flagged == ()


def test_orient_source_towers_flags_tower_edges():
    g = star(4)
    d, flagged = orient_source_towers(g, set(range(4)))
    assert flagged == (0, 1, 2)
    assert d.out_adjacency[0] == (1, 2, 3)  # low->high fallback


def test_orient_source_towers_preserves_22_gamma():
    g = grid(3, 4)
    p = Params(2, 2)
    base = gamma_undirected(g, p)
    d, _ = orient_source_towers(g, base.witness)
    assert is_dominating(d, base.witness, p)
    assert gamma(d, p).gamma == base.gamma


def test_orient_outward_path_points_away_from_tower():
    d, flagged = orient_outward(path(7), {3})
    assert (3, 2) in d.arcs and (3, 4) in d.arcs
    assert (2, 1) in d.arcs and (4, 5) in d.arcs
    assert flagged == ()


def test_orient_outward_all_towers_flags_everything():
    g = path(4)
    d, flagged = orient_outward(g, {0, 1, 2, 3})
    assert flagged == (0, 1, 2)
    assert d.arcs == ((0, 1), (1, 2), (2, 3))


def test_orient_outward_preserves_31_gamma():
    g = grid(3, 6)
    p = Params(3, 1)
    base = gamma_undirected(g, p)
    assert base.gamma == 2
    d, _ = orient_outward(g, base.witness)
    assert gamma(d, p).gamma == 2


# ---- in-degree search ------------------------------------------------------------


def test_max_indegree_le1_counts():
    for (m, n), want in [((2, 3), 5), ((2, 4), 7), ((1, 2), 2), ((2, 2), 4)]:
        g = grid(m, n)
        d, count = max_indegree_le1_orientation(m, n)
        assert count == want
        heads = [v for _, v in d.arcs]
        indeg = [heads.count(w) for w in range(d.n)]
        assert sum(1 for x in indeg if x <= 1) == count
        # in-degrees sum to |E|, which caps how many can stay <= 1
        assert sum(indeg) == len(g.edges)
        max_deg = max(len(a) for a in g.adjacency)
        assert count + (g.n - count) * max_deg >= len(g.edges)


def test_max_indegree_guard():
    with pytest.raises(TooManyEdges):
        max_indegree_le1_orientation(4, 5)  # 31 edges, over the 24 guard
