import random
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
from bdom.graphs import orient, orient_index
from conftest import connected_labeled_graphs


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
    with pytest.raises(OutOfRange, match="zigzag index must be >= 0, got -1"):
        zigzag(-1)


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


def reference_orient_outward(g, towers, outward=True):
    """orient_outward as it was written over a multi-source undirected
    BFS from the towers, reading distance 1 off the BFS distances; with
    outward=False no distances are read, which was orient_source_towers."""
    dist = {v: 0 for v in towers}
    frontier = sorted(towers) if outward else []
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    bits = []
    flagged = []
    for k, (u, v) in enumerate(g.edges):
        tu, tv = u in towers, v in towers
        if tu and tv:
            bits.append(0)
            flagged.append(k)
        elif tu:
            bits.append(0)
        elif tv:
            bits.append(1)
        elif dist.get(u) == 1 and dist.get(v) == 1:
            bits.append(0)
            flagged.append(k)
        elif dist.get(u) == 1:
            bits.append(0)
        elif dist.get(v) == 1:
            bits.append(1)
        else:
            bits.append(0)
    return orient(g, bits), tuple(flagged)


def test_orientations_match_bfs_reference():
    rng = random.Random(4242)
    for g in connected_labeled_graphs(5):
        for density in (0.2, 0.4, 0.7):
            towers = {v for v in range(g.n) if rng.random() < density}
            d, flagged = orient_outward(g, towers)
            want, want_flagged = reference_orient_outward(g, towers)
            assert d.out_adjacency == want.out_adjacency, (g.edges, towers)
            assert flagged == want_flagged, (g.edges, towers)
            d, flagged = orient_source_towers(g, towers)
            want, want_flagged = reference_orient_outward(g, towers, outward=False)
            assert d.out_adjacency == want.out_adjacency, (g.edges, towers)
            assert flagged == want_flagged, (g.edges, towers)


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


@pytest.mark.parametrize(
    "m, n, index, count", [(3, 3, 1656, 8), (2, 4, 104, 7)]
)
def test_max_indegree_le1_pinned(m, n, index, count):
    # max over the orbit minima keeps the first maximizer, the one found
    # by counting every orbit minimum
    assert max_indegree_le1_orientation(m, n) == (orient_index(grid(m, n), index), count)


def test_max_indegree_guard():
    with pytest.raises(TooManyEdges):
        max_indegree_le1_orientation(4, 5)  # 31 edges, over the 24 guard


def _mask_loop_max_indegree_le1(m, n):
    """Reference: the first maximizer over every one of the 2^|E| masks."""
    g = grid(m, n)
    best_count, best_mask = -1, 0
    for mask in range(1 << len(g.edges)):
        indeg = [0] * g.n
        for k, (u, v) in enumerate(g.edges):
            indeg[u if (mask >> k) & 1 else v] += 1
        count = sum(1 for x in indeg if x <= 1)
        if count > best_count:
            best_count, best_mask = count, mask
    return orient_index(g, best_mask), best_count


def test_max_indegree_le1_matches_mask_loop():
    # every grid with at least two rows and columns and at most 17 edges,
    # both ways round (the transpose numbers its edges differently), and
    # the paths of up to 12 vertices
    dims = [(m, n) for m in range(2, 7) for n in range(2, 7) if 2 * m * n - m - n <= 17]
    dims += [(1, n) for n in range(1, 13)] + [(n, 1) for n in range(2, 13)]
    for m, n in dims:
        assert max_indegree_le1_orientation(m, n) == _mask_loop_max_indegree_le1(m, n)
