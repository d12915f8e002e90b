import random

import pytest

import bdom.interval
from bdom import (
    Graph,
    InfeasibleParams,
    Params,
    TooManyEdges,
    automorphism_generators,
    bits_from_index,
    domination_interval,
    flip_walk,
    gamma,
    jump_search,
    max_step,
    orient,
    orient_index,
)
from bdom.families import grid, path, star, star_interval
from bdom.interval import orbit_minima
from conftest import connected_labeled_graphs

SIX_PAIRS = [Params(t, r) for t in (1, 2, 3) for r in range(1, t + 1)]


def test_star5_22_interval():
    iv = domination_interval(star(5), Params(2, 2))
    assert (iv.d, iv.D, iv.full) == (4, 5, True)
    assert iv.attained == frozenset({4, 5})


def test_star5_31_interval():
    iv = domination_interval(star(5), Params(3, 1))
    assert (iv.d, iv.D, iv.full) == (1, 4, True)


def test_star6_44_interval():
    iv = domination_interval(star(6), Params(4, 4))
    assert (iv.d, iv.D, iv.full) == (2, 6, True)


def test_p2_interval_is_degenerate():
    p2 = Graph(2, [(0, 1)])
    iv = domination_interval(p2, Params(2, 1))
    assert (iv.d, iv.D, iv.attained) == (1, 1, frozenset({1}))


def test_interval_guards():
    big = grid(3, 6)  # 27 edges
    with pytest.raises(TooManyEdges):
        domination_interval(big, Params(2, 2))
    with pytest.raises(InfeasibleParams):
        domination_interval(star(4), Params(1, 2))


def test_witnesses_map_to_first_orientation():
    iv = domination_interval(star(4), Params(2, 1))
    assert iv.witnesses is not None
    assert set(iv.witnesses) == set(iv.attained)
    for value, bits in iv.witnesses.items():
        assert gamma(orient(star(4), bits), Params(2, 1)).gamma == value
    # all-zero bits (index 0) is the center-source star with gamma 1
    assert iv.witnesses[1] == (0, 0, 0)


def test_partition_independence_across_jobs():
    g = star(5)
    p = Params(2, 2)
    seq = domination_interval(g, p, jobs=1)
    par = domination_interval(g, p, jobs=2)
    assert (seq.d, seq.D, seq.attained, seq.witnesses) == (
        par.d,
        par.D,
        par.attained,
        par.witnesses,
    )


def test_attained_set_is_transpose_closed():
    # transposing every orientation flips every bit: a bijection on the
    # index space, so the attained set is unchanged even though single
    # orientations change value drastically
    g = star(4)
    p = Params(2, 1)
    m = len(g.edges)
    direct = {gamma(orient(g, bits_from_index(i, m)), p).gamma for i in range(1 << m)}
    transposed = {
        gamma(orient(g, bits_from_index(i ^ ((1 << m) - 1), m)), p).gamma
        for i in range(1 << m)
    }
    assert direct == transposed


def test_flip_walk_star9_source_to_sink():
    trace = flip_walk(star(9), [0] * 8, [1] * 8, Params(2, 1))
    assert trace.gamma_sequence[0] == 1
    assert trace.gamma_sequence[-1] == 8
    assert trace.flip_sequence == tuple(range(8))
    assert max_step(trace) == 1
    # source-leaf count s gives gamma s+1 until the last flip retires the center
    assert trace.gamma_sequence == (1, 2, 3, 4, 5, 6, 7, 8, 8)


def test_flip_walk_without_flips():
    trace = flip_walk(star(5), "0101", "0101", Params(2, 2))
    assert trace.flip_sequence == ()
    assert len(trace.gamma_sequence) == 1
    assert max_step(trace) == 0


def test_flip_walk_star_t_equals_r_step():
    # one more source leaf costs exactly one more tower when t = r > 2
    trace = flip_walk(star(6), [1, 0, 0, 0, 0], [1, 1, 0, 0, 0], Params(3, 3))
    assert trace.gamma_sequence == (2, 3)


def test_flip_walk_endpoints_match_independent_solves():
    g = grid(2, 3)
    p = Params(2, 2)
    src, dst = "0101010", "1110001"
    trace = flip_walk(g, src, dst, p)
    assert trace.gamma_sequence[0] == gamma(orient(g, src), p).gamma
    assert trace.gamma_sequence[-1] == gamma(orient(g, dst), p).gamma


def test_witness_orientation_found_and_absent():
    g = star(5)
    p = Params(2, 1)
    witnesses = domination_interval(g, p).witnesses
    bits = witnesses.get(3)
    assert bits is not None
    assert gamma(orient(g, bits), p).gamma == 3
    assert witnesses.get(5) is None
    p2 = Graph(2, [(0, 1)])
    iv = domination_interval(p2, Params(2, 1))
    assert iv.witnesses.get(1) == (0,)


def test_jump_search_empty_where_theorems_forbid():
    assert jump_search(Params(2, 1), 8, 120, seed=5) == []
    assert jump_search(Params(2, 2), 8, 120, seed=5) == []


def test_jump_search_certificates_recompute():
    found = jump_search(Params(5, 3), 11, 1200, seed=1)
    for j in found:
        d0 = orient(j.graph, j.bits)
        flipped = list(j.bits)
        flipped[j.edge_index] ^= 1
        d1 = orient(j.graph, flipped)
        assert gamma(d0, Params(5, 3)).gamma == j.gamma_before
        assert gamma(d1, Params(5, 3)).gamma == j.gamma_after
        assert abs(j.delta) >= 2


# ---- one orientation per automorphism orbit ----------------------------------


def _full_scan(g, p):
    """Reference: every one of the 2^|E| indices, lowest index per value."""
    first = {}
    for i in range(1 << len(g.edges)):
        first.setdefault(gamma(orient_index(g, i), p).gamma, i)
    return first


def test_orbit_minima_counts():
    for n in range(3, 8):
        # an orientation of a star is fixed up to symmetry by its in-leaf count
        assert len(orbit_minima(star(n))) == n
    assert len(orbit_minima(path(5))) == 10
    assert len(orbit_minima(grid(3, 3))) == 570
    spider = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert orbit_minima(spider) == range(64)


def test_orbit_minima_guard_without_automorphisms():
    # a path 0..24 with a pendant 25 at vertex 2: arms of lengths 1, 2
    # and 22 meet there, so only the identity maps the 25 edges onto
    # themselves, and without the guard the minima would be all 2^25 indices
    g = Graph(26, [(k, k + 1) for k in range(24)] + [(2, 25)])
    assert automorphism_generators(g) == []
    with pytest.raises(TooManyEdges):
        orbit_minima(g)


def test_interval_matches_full_scan_on_sampled_graphs():
    rng = random.Random(4)
    small = [g for g in connected_labeled_graphs(5) if len(g.edges) <= 7]
    hexagon = Graph(6, [(k, (k + 1) % 6) for k in range(6)])
    for g in rng.sample(small, 6) + [hexagon, grid(2, 3)]:
        for p in SIX_PAIRS:
            first = _full_scan(g, p)
            iv = domination_interval(g, p)
            assert (iv.d, iv.D, iv.attained) == (min(first), max(first), frozenset(first))
            assert iv.witnesses == {
                value: bits_from_index(i, len(g.edges))
                for value, i in sorted(first.items())
            }


@pytest.mark.parametrize("p", [Params(1, 1), Params(2, 2), Params(3, 3), Params(2, 1)])
def test_star16_interval_matches_closed_form(p):
    # 2^15 orientations, 16 orbits: one gamma call per in-leaf count
    iv = domination_interval(star(16), p)
    expected = star_interval(16, p)
    assert (iv.d, iv.D, iv.attained, iv.full) == (
        expected.d,
        expected.D,
        expected.attained,
        expected.full,
    )


@pytest.mark.parametrize(
    "g",
    [
        # asymmetric: every one of the 64 orientations is its own orbit
        Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]),
        grid(3, 3),  # 570 orbit minima
    ],
)
def test_pool_path_matches_serial(monkeypatch, g):
    p = Params(2, 2)
    serial = domination_interval(g, p, jobs=1)
    opened = []
    real_pool = bdom.interval.Pool

    def spy(processes):
        opened.append(processes)
        return real_pool(processes=processes)

    monkeypatch.setattr(bdom.interval.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(bdom.interval, "Pool", spy)
    pooled = domination_interval(g, p, jobs=2)
    assert opened == [2]
    assert pooled == serial
