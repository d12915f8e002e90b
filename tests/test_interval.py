import random
from itertools import combinations, permutations

import pytest

import bdom.interval
import bdom.solver
from bdom import (
    DominationInterval,
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
from bdom.interval import _upper, orbit_minima
from conftest import connected_labeled_graphs, pool_spy

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


def test_partition_independence_across_jobs(monkeypatch):
    g = star(5)  # 5 orbit minima
    p = Params(2, 2)
    seq = domination_interval(g, p, jobs=1)
    opened = pool_spy(monkeypatch)
    par = domination_interval(g, p, jobs=2)
    assert opened == [2]
    assert (seq.d, seq.D, seq.attained, seq.witnesses) == (
        par.d,
        par.D,
        par.attained,
        par.witnesses,
    )


def test_jobs_below_threshold_open_no_pool(monkeypatch):
    # grid(3, 3) has 570 orbit minima, far below two workers' threshold
    assert len(orbit_minima(grid(3, 3))) < 2 * bdom.interval.MIN_MINIMA_PER_WORKER
    opened = pool_spy(monkeypatch, per_worker=bdom.interval.MIN_MINIMA_PER_WORKER)
    pooled = domination_interval(grid(3, 3), Params(2, 2), jobs=2)
    assert opened == []
    assert pooled == domination_interval(grid(3, 3), Params(2, 2), jobs=1)


@pytest.mark.parametrize(
    "jobs, cpus, per_worker, opened_want",
    [
        (2, 2, 285, [2]),  # 570 // 285: two workers
        (2, 2, 286, []),  # 570 // 286: one worker, no Pool
        (3, 2, 1, [2]),  # the CPU count caps jobs
        (3, 4, 285, [2]),  # the minima cap jobs, not only switch the Pool off
    ],
)
def test_worker_count_rule(monkeypatch, jobs, cpus, per_worker, opened_want):
    # grid(3, 3) has 570 orbit minima
    serial = domination_interval(grid(3, 3), Params(2, 2), jobs=1)
    opened = pool_spy(monkeypatch, per_worker=per_worker)
    monkeypatch.setattr(bdom.interval.os, "cpu_count", lambda: cpus)
    assert domination_interval(grid(3, 3), Params(2, 2), jobs=jobs) == serial
    assert opened == opened_want


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


def test_jump_search_on_one_and_two_vertices():
    # budgets below 4 draw graphs of exactly that many vertices: no edge,
    # or one edge, whose flip moves gamma by at most 1
    assert jump_search(Params(2, 1), 1, 3, seed=1) == []
    assert jump_search(Params(2, 1), 2, 3, seed=1) == []


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


def _rule(p):
    """Which of _upper's bounds applies at p."""
    if p.t == 1:
        return "n"
    return "matching" if p.r < p.t else "dense packing"


@pytest.fixture(scope="module")
def sampled_full_scans():
    """(graph, params) -> lowest index per value over all 2^|E| indices.

    Every graph has at most 12 edges, since each orientation is solved.
    """
    rng = random.Random(4)
    small = [g for g in connected_labeled_graphs(5) if len(g.edges) <= 7]
    hexagon = Graph(6, [(k, (k + 1) % 6) for k in range(6)])
    graphs = rng.sample(small, 6) + [
        hexagon,
        star(4),
        grid(2, 3),
        grid(3, 2),
        grid(2, 4),
        grid(3, 3),
    ]
    return {(g, p): _full_scan(g, p) for g in graphs for p in SIX_PAIRS}


def test_interval_matches_full_scan_on_sampled_graphs(monkeypatch, sampled_full_scans):
    # the scan declines the orbits whose value is already known, each
    # pool worker declines against its own values only, and every scan
    # stops once it holds each value up to _upper; star(4) at (2,2) and
    # grid(2, 4) at (3,2) each reach a new value at an orientation whose
    # greedy size is already known
    expected = {}
    for (g, p), first in sampled_full_scans.items():
        expected[g, p] = DominationInterval(
            d=min(first),
            D=max(first),
            attained=frozenset(first),
            full=len(first) == max(first) - min(first) + 1,
            witnesses={
                value: bits_from_index(i, len(g.edges))
                for value, i in sorted(first.items())
            },
        )
    calls = []
    real = bdom.interval._greedy

    def spy(cover_out, r):
        calls.append(r)
        return real(cover_out, r)

    monkeypatch.setattr(bdom.interval, "_greedy", spy)
    stopped = set()
    for (g, p), want in expected.items():
        calls.clear()
        assert domination_interval(g, p, jobs=1) == want
        if len(calls) < len(orbit_minima(g)):
            stopped.add(_rule(p))
    # each bound stops some scan early (grid(2, 4): 1 of 264 minima at
    # (1,1), 5 at (2,1); grid(3, 2): 10 of 36 at (2,2))
    assert stopped == {"n", "matching", "dense packing"}
    opened = pool_spy(monkeypatch)
    for (g, p), want in expected.items():
        assert domination_interval(g, p, jobs=2) == want
    assert opened == [2] * len(expected)


def _matching_reference(g):
    """The most pairwise disjoint edges, over all edge subsets."""
    return max(
        k
        for k in range(len(g.edges) + 1)
        for chosen in combinations(g.edges, k)
        if len({v for e in chosen for v in e}) == 2 * k
    )


def _dense_packing_reference(g):
    """The most disjoint vertex sets inducing more edges than vertices,
    by a DP over vertex subsets: the lowest vertex of a subset is in no
    set or in one dense set within the subset."""
    size = 1 << g.n
    dense = [
        sum(1 for u, v in g.edges if x >> u & 1 and x >> v & 1) > x.bit_count()
        for x in range(size)
    ]
    best = [0] * size
    for x in range(1, size):
        low = x & -x
        rest = x ^ low
        best[x] = best[rest]
        sub = rest
        while True:
            if dense[sub | low]:
                best[x] = max(best[x], 1 + best[x & ~(sub | low)])
            if not sub:
                break
            sub = (sub - 1) & rest
    return best[size - 1]


def test_upper_bounds_match_references():
    rng = random.Random(11)
    graphs = connected_labeled_graphs(5)
    for _ in range(120):
        n = rng.randint(1, 9)
        pairs = list(combinations(range(n), 2))
        graphs.append(Graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 16)))))
    for g in graphs:
        assert _upper(g, Params(1, 1)) == g.n
        assert _upper(g, Params(3, 2)) == g.n - _matching_reference(g)
        assert _upper(g, Params(3, 3)) == g.n - _dense_packing_reference(g)


def test_upper_bounds_every_orientation(sampled_full_scans):
    # the connected graphs on up to 5 vertices, one per isomorphism
    # class, and the differential test's graphs, against full scans
    classes = {}
    for g in connected_labeled_graphs(5):
        key = min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
            for perm in permutations(range(g.n))
        )
        classes.setdefault((g.n, key), g)
    scans = dict(sampled_full_scans)
    for g in classes.values():
        for p in SIX_PAIRS:
            scans[g, p] = _full_scan(g, p)
    tight = set()
    for (g, p), first in scans.items():
        assert max(first) <= _upper(g, p)
        if max(first) == _upper(g, p):
            tight.add(_rule(p))
    # the criterion-9 graph: n - beta = 6 - 1
    assert max(scans[grid(3, 2), Params(2, 2)]) == _upper(grid(3, 2), Params(2, 2)) == 5
    # each bound is attained somewhere, so one below it fails above
    assert tight == {"n", "matching", "dense packing"}


def test_edge_guard_fires_before_the_bound(monkeypatch):
    def upper(g, p):
        raise AssertionError("_upper ran before the edge guard")

    monkeypatch.setattr(bdom.interval, "_upper", upper)
    # a path 0..24 with a pendant 25 at vertex 2: 25 edges
    g = Graph(26, [(k, k + 1) for k in range(24)] + [(2, 25)])
    with pytest.raises(TooManyEdges):
        domination_interval(g, Params(2, 2))


def test_scan_runs_one_greedy_per_minimum(monkeypatch):
    calls = []
    real = bdom.solver._greedy

    def spy(cover_out, r):
        calls.append(len(cover_out))
        return real(cover_out, r)

    monkeypatch.setattr(bdom.solver, "_greedy", spy)
    monkeypatch.setattr(bdom.interval, "_greedy", spy)
    # one orientation: nothing is known yet, so the floor is not computed
    iv = domination_interval(Graph(300, []), Params(2, 1))
    assert (iv.d, iv.D) == (300, 300)
    assert calls == [300]
    # each orbit minimum runs the greedy once, searching from that seed
    # when it cannot decline; the floor may add one more on the graph.
    # At (3,3) grid(3, 3) has D = 6 below n - beta = 8, so the scan
    # visits all 570 minima
    calls.clear()
    domination_interval(grid(3, 3), Params(3, 3))
    assert 570 <= len(calls) <= 571
    # at (2,2) D = n - beta = 8: the scan stops once it holds 4..8
    calls.clear()
    domination_interval(grid(3, 3), Params(2, 2))
    assert len(calls) == 324
    # at t = 1 every orientation has gamma n: one scan greedy, then the
    # floor, and the scan stops before its second minimum
    calls.clear()
    domination_interval(grid(3, 3), Params(1, 1))
    assert calls == [9, 9]


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
    opened = pool_spy(monkeypatch)
    pooled = domination_interval(g, p, jobs=2)
    assert opened == [2]
    assert pooled == serial
