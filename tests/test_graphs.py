import random
from itertools import permutations

import pytest
from hypothesis import given

import bdom.graphs
from hypothesis import strategies as st

from bdom import (
    Digraph,
    DuplicateEdge,
    Graph,
    GraphConstructionError,
    InfeasibleParams,
    InvalidParams,
    InvalidVertex,
    LengthMismatch,
    LoopEdge,
    Params,
    ParseError,
    TooLarge,
    TooManyEdges,
    automorphism_generators,
    bits_from_index,
    format_dg,
    format_ug,
    index_from_bits,
    is_dominating,
    orient,
    orient_index,
    orientation_image,
    parse_dg,
    parse_ug,
    reception,
    transpose,
)
from bdom.families import grid, path, star, star_orientation
from conftest import connected_labeled_graphs, reference_bfs


# ---- construction -----------------------------------------------------------


def test_build_minimal_graph():
    g = Graph(2, [(0, 1)])
    assert g.n == 2
    assert g.edges == ((0, 1),)
    assert g.adjacency == ((1,), (0,))


def test_build_normalizes_endpoint_order():
    g = Graph(3, [(2, 0), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))
    # bit 0 of an orientation means low id -> high id, also when the
    # caller named the edge high end first
    assert Graph(3, [(1, 0)]).edges == ((0, 1),)
    assert orient(Graph(3, [(1, 0)]), [0]).arcs == ((0, 1),)


def test_build_rejects_bad_edges():
    with pytest.raises(InvalidVertex):
        Graph(2, [(0, 2)])
    with pytest.raises(LoopEdge):
        Graph(2, [(1, 1)])
    with pytest.raises(DuplicateEdge):
        Graph(3, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdge):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(DuplicateEdge, match=r"duplicate edge \(0, 1\)"):
        Graph(2, [(0, 1), (0, 1)])
    with pytest.raises(InvalidVertex, match=r"edge \(0, 5\) out of range for n=3"):
        Graph(3, [(0, 5)])
    with pytest.raises(InvalidVertex, match="vertex count must be nonnegative"):
        Graph(-1, [])
    # malformed shapes and types stay inside the BdomError tree
    for bad in ([(0, 1, 2)], [(0, "1")], [0], [(0, 1.5)], [(0,)]):
        with pytest.raises(InvalidVertex, match="not a pair of integer vertex ids"):
            Graph(3, bad)


def reference_edges(n, edge_list):
    """The checks and normalization Graph's constructor took over from
    the removed build_graph, kept as a reference: the normalized edges
    in input order, or the first error."""
    if n < 0:
        raise InvalidVertex(f"vertex count must be nonnegative, got {n}")
    edges = []
    seen = set()
    for pair in edge_list:
        a, b = pair
        if not (0 <= a < n) or not (0 <= b < n):
            raise InvalidVertex(f"edge ({a}, {b}) out of range for n={n}")
        if a == b:
            raise LoopEdge(f"loop at vertex {a}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise DuplicateEdge(f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return edges


def random_edge_list(rng, n):
    """Distinct pairs in random direction, with about every other list
    given one fault: a repeat (either direction), a loop or an end out
    of range (negative or >= n)."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = [
        (b, a) if rng.random() < 0.5 else (a, b)
        for a, b in rng.sample(pairs, rng.randint(0, len(pairs)))
    ]
    fault = rng.choice(["none", "repeat", "reversed", "loop", "range"])
    if fault in ("repeat", "reversed") and edges:
        a, b = rng.choice(edges)
        edges.append((a, b) if fault == "repeat" else (b, a))
    elif fault == "loop" and n:
        v = rng.randrange(n)
        edges.append((v, v))
    elif fault == "range":
        edges.append((rng.choice([-1, n, n + 3]), rng.randrange(max(n, 1))))
    rng.shuffle(edges)
    return edges


def test_graph_constructor_matches_reference_checks():
    rng = random.Random(19)
    outcomes = set()
    for _ in range(2000):
        n = rng.randrange(9)
        edges = random_edge_list(rng, n)
        try:
            normalized = reference_edges(n, edges)
        except (InvalidVertex, LoopEdge, DuplicateEdge) as exc:
            outcomes.add(type(exc))
            with pytest.raises(type(exc)) as raised:
                Graph(n, edges)
            assert str(raised.value) == str(exc)
            continue
        outcomes.add(None)
        g, h = Graph(n, edges), Graph(n, normalized)
        assert g.edges == h.edges == tuple(normalized)
        assert g.adjacency == h.adjacency
        assert g._incidence == h._incidence
    assert outcomes == {None, InvalidVertex, LoopEdge, DuplicateEdge}


def test_digraph_allows_antiparallel_but_not_parallel():
    d = Digraph(2, [(0, 1), (1, 0)])
    assert d.out_adjacency == ((1,), (0,))
    with pytest.raises(DuplicateEdge):
        Digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(InvalidVertex, match="vertex count must be nonnegative"):
        Digraph(-1, [])
    with pytest.raises(LoopEdge, match="loop at vertex 1"):
        Digraph(2, [(1, 1)])
    # arcs get Graph's pair check, so no builtin error leaves the library
    for bad in ((0.5, 1), (0, 1, 2), ("a", 1), None):
        with pytest.raises(InvalidVertex, match="arc .* is not a pair of integer vertex ids"):
            Digraph(3, [bad])


# ---- orientation ------------------------------------------------------------


def test_orient_single_edge():
    p2 = Graph(2, [(0, 1)])
    assert orient(p2, [0]).arcs == ((0, 1),)
    assert orient(p2, [1]).arcs == ((1, 0),)
    assert orient(p2, "1").arcs == ((1, 0),)


def test_orient_length_mismatch():
    p2 = Graph(2, [(0, 1)])
    with pytest.raises(LengthMismatch):
        orient(p2, [0, 1])
    with pytest.raises(LengthMismatch):
        orient(p2, [2])
    # only the characters 0/1 and values equal to 0 or 1 are bits
    p3 = Graph(3, [(0, 1), (1, 2)])
    for bad in ([0, 1.5], [0.7, 1], "\u0660\u0661", [None, 0], ["1", "0"], "1x", 5, None):
        with pytest.raises(LengthMismatch, match="must be 0/1"):
            orient(p3, bad)
    assert orient(p3, [True, 0.0]) == orient(p3, "10") == orient(p3, (1, 0))


def test_center_source_star_is_all_zero_bits():
    s9 = star(9)
    d = orient(s9, [0] * 8)
    assert d == star_orientation(9, 0)
    assert d.out_adjacency[0] == tuple(range(1, 9))


def test_all_orientations_of_square_are_distinct():
    c4 = grid(2, 2)
    seen = {orient(c4, bits_from_index(i, 4)) for i in range(16)}
    assert len(seen) == 16


def test_bits_index_round_trip():
    for i in range(32):
        assert index_from_bits(bits_from_index(i, 5)) == i


def test_transpose_examples_and_involution():
    d = Digraph(2, [(0, 1)])
    assert transpose(d).arcs == ((1, 0),)
    left = star_orientation(9, 0)
    right = star_orientation(9, 8)
    assert transpose(left) == right
    assert transpose(transpose(left)) == left


# ---- distances --------------------------------------------------------------


def cover_distances(d, horizon):
    """Per-source {w: d(v, w)} for d < horizon, read off d.cover(horizon)."""
    return tuple(
        {w: horizon - c for w, c in pairs} for pairs in d.cover(horizon)
    )


def test_bounded_distances_single_arc():
    d = Digraph(2, [(0, 1)])
    assert cover_distances(d, 2) == ({0: 0, 1: 1}, {1: 0})


def test_bounded_distances_truncates_at_horizon():
    d = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert cover_distances(d, 3)[0] == {0: 0, 1: 1, 2: 2}


def test_center_source_star_reaches_all_at_t2():
    d = star_orientation(9, 0)
    assert len(d.cover(2)[0]) == 9


def test_cover_matches_reference_bfs_on_random_digraphs():
    rng = random.Random(20210524)
    for _ in range(300):
        n = rng.randint(1, 10)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < rng.choice((0.15, 0.3, 0.6))]
        d = Digraph(n, arcs)
        for t in range(1, 5):
            cover_out = d.cover(t)
            for v in range(n):
                dist = reference_bfs(d.out_adjacency, v, t)
                assert cover_out[v][0] == (v, t)
                assert sorted(cover_out[v]) == sorted(
                    (w, t - dw) for w, dw in dist.items()
                )


def test_cover_pairs_guard(monkeypatch):
    # grid(3, 3) at t = 5 reaches all 81 (tower, vertex) pairs, at t = 1 only 9
    monkeypatch.setattr(bdom.graphs, "MAX_COVER_PAIRS", 80)
    with pytest.raises(TooLarge, match="9 vertices at t=5 exceeds the guard of 80 pairs"):
        grid(3, 3).as_digraph().cover(5)
    assert sum(map(len, grid(3, 3).as_digraph().cover(1))) == 9
    # n * n within the limit: built without counting
    monkeypatch.setattr(bdom.graphs, "MAX_COVER_PAIRS", 81)
    assert sum(map(len, grid(3, 3).as_digraph().cover(5))) == 81


def test_cover_is_cached_per_strength():
    d = star_orientation(5, 0)
    assert d.cover(2) is d.cover(2)
    assert d.cover(3) is not d.cover(2)


def test_orient_index_matches_orient_on_every_index():
    for g in (grid(2, 3), grid(3, 3), star(6), path(5)):
        m = len(g.edges)
        for i in range(1 << m):
            bits = bits_from_index(i, m)
            fast = orient_index(g, i)
            # reference: the arcs through Digraph's validating constructor
            checked = Digraph(g.n, [
                (v, u) if b else (u, v) for (u, v), b in zip(g.edges, bits)
            ])
            assert fast == checked == orient(g, bits)
            assert fast.arcs == checked.arcs


def test_orient_index_rejects_out_of_range_index():
    g = path(3)
    for index in (-1, 4):
        with pytest.raises(LengthMismatch):
            orient_index(g, index)


# ---- automorphisms -----------------------------------------------------------


def _maps_edges_onto_edges(g, sigma) -> bool:
    edges = set(g.edges)
    return all(
        (min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) in edges
        for u, v in g.edges
    )


def _generated_group(generators, n):
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for s in generators:
            q = tuple(s[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def _cycle(n):
    return Graph(n, [(k, (k + 1) % n) for k in range(n)])


def test_automorphism_generators_generate_the_brute_force_group():
    complete4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    extra = [star(6), _cycle(6), complete4, grid(2, 3)]
    for g in connected_labeled_graphs(5) + extra:
        brute = {
            sigma
            for sigma in permutations(range(g.n))
            if _maps_edges_onto_edges(g, sigma)
        }
        generators = automorphism_generators(g)
        assert set(generators) <= brute
        assert tuple(range(g.n)) not in generators
        assert _generated_group(generators, g.n) == brute, g.edges


def _automorphisms_by_extension(g):
    """Reference: extend vertex maps 0, 1, ... one vertex at a time,
    keeping adjacency to the vertices already mapped."""
    adj = [set(a) for a in g.adjacency]
    found = set()

    def extend(sigma):
        v = len(sigma)
        if v == g.n:
            found.add(tuple(sigma))
            return
        for w in set(range(g.n)) - set(sigma):
            if all((u in adj[v]) == (sigma[u] in adj[w]) for u in range(v)):
                extend(sigma + [w])

    extend([])
    return found


def test_automorphism_generators_reject_refinement_look_alikes():
    # a cubic graph on 12 vertices: degree refinement is powerless and
    # some leaves with the first leaf's cell sizes are not automorphisms
    g = Graph(12, [
        (0, 3), (0, 5), (0, 7), (1, 2), (1, 4), (1, 5), (2, 8), (2, 11), (3, 4),
        (3, 6), (4, 10), (5, 7), (6, 8), (6, 9), (7, 11), (8, 10), (9, 10), (9, 11),
    ])
    generators = automorphism_generators(g)
    assert all(_maps_edges_onto_edges(g, s) for s in generators)
    assert _generated_group(generators, g.n) == _automorphisms_by_extension(g)


def test_automorphism_generators_stay_few():
    for n in range(3, 10):
        assert len(automorphism_generators(star(n))) == n - 2
    assert len(automorphism_generators(star(25))) == 23
    # asymmetric: the smallest asymmetric tree, a spider with legs 1, 2, 3
    spider = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert automorphism_generators(spider) == []
    # isolated vertices stay fixed: swapping them moves no edge
    assert automorphism_generators(Graph(4, [(0, 1)])) == [(1, 0, 2, 3)]


def test_orientation_image_relabels_the_orientation():
    for g in (grid(2, 3), star(6), path(5), _cycle(6)):
        for sigma in automorphism_generators(g):
            image = orientation_image(g, sigma)
            for i in range(1 << len(g.edges)):
                moved = Digraph(g.n, [(sigma[u], sigma[v]) for u, v in orient_index(g, i).arcs])
                assert orient_index(g, image(i)) == moved


def test_orientation_image_rejects_non_automorphisms():
    with pytest.raises(GraphConstructionError):
        orientation_image(path(4), (1, 0, 2, 3))
    # not permutations: both edges of the path would map onto edge 0,
    # or vertex 2 would have no image
    for sigma in ((1, 0, 1), (0, 1)):
        with pytest.raises(GraphConstructionError):
            orientation_image(path(3), sigma)
    with pytest.raises(TooManyEdges):
        orientation_image(star(26), tuple(range(26)))


# ---- reception --------------------------------------------------------------


def test_reception_center_source_star():
    d = star_orientation(9, 0)
    assert reception(d, {0}, 2) == [2] + [1] * 8


def test_reception_center_sink_star():
    d = star_orientation(9, 8)
    assert reception(d, set(range(1, 9)), 2) == [8] + [2] * 8


def test_reception_no_towers_is_zero():
    d = star_orientation(5, 2)
    assert reception(d, set(), 3) == [0] * 5


def test_reception_undirected_worked_grid():
    # towers at ids 10, 2, 14 of the 3x5 grid; the far corner hears two
    # towers at distance 2 each, the top-center hears all three
    g = grid(3, 5)
    rec = reception(g.as_digraph(), {10, 2, 14}, 3)
    assert rec[0] == 2
    assert rec[12] == 3
    assert min(rec) >= 2


def test_reception_undirected_all_towers_t1():
    g = grid(2, 3)
    assert reception(g.as_digraph(), set(range(6)), 1) == [1] * 6


def test_reception_rejects_stray_tower():
    with pytest.raises(InvalidVertex):
        reception(Digraph(2, [(0, 1)]), {5}, 2)
    # no cover table below strength 1: it would read negative receptions
    d = path(3).as_digraph()
    for t in (-2, 0):
        with pytest.raises(InvalidParams):
            reception(d, [0, 2], t)


def test_is_dominating_star_cases():
    d = star_orientation(9, 0)
    assert is_dominating(d, {0}, Params(2, 1))
    assert not is_dominating(d, {0}, Params(2, 2))
    assert not is_dominating(d, set(), Params(2, 1))


def test_params_checks_the_domain():
    with pytest.raises(InfeasibleParams):
        Params(1, 2)
    # both checks fail here; the input error comes first (CLI exit 2, not 3)
    with pytest.raises(InvalidParams):
        Params(0, 5)


# ---- properties -------------------------------------------------------------

small_digraphs = st.builds(
    lambda n, picks: Digraph(
        n, [(u, v) for k, (u, v) in enumerate(
            [(u, v) for u in range(n) for v in range(n) if u != v]
        ) if k in picks]
    ),
    st.integers(min_value=1, max_value=5),
    st.sets(st.integers(min_value=0, max_value=19)),
)


@given(small_digraphs, st.integers(min_value=1, max_value=3), st.data())
def test_adding_tower_never_decreases_reception(d, t, data):
    towers = data.draw(st.sets(st.integers(min_value=0, max_value=d.n - 1)))
    extra = data.draw(st.integers(min_value=0, max_value=d.n - 1))
    before = reception(d, towers, t)
    after = reception(d, towers | {extra}, t)
    assert all(b >= a for a, b in zip(before, after))


def test_directed_reception_bounded_by_undirected_exhaustive():
    g = grid(2, 2)
    m = len(g.edges)
    for towers in ({0}, {1, 2}, {0, 3}):
        for t in (1, 2, 3):
            und = reception(g.as_digraph(), towers, t)
            for i in range(1 << m):
                rec = reception(orient(g, bits_from_index(i, m)), towers, t)
                assert all(a <= b for a, b in zip(rec, und))


@given(small_digraphs)
def test_transpose_swaps_distances(d):
    dt = transpose(d)
    assert dt == Digraph(d.n, [(v, u) for u, v in d.arcs])
    horizon = d.n + 1
    fwd = cover_distances(d, horizon)
    bwd = cover_distances(dt, horizon)
    for u in range(d.n):
        for v, dist in fwd[u].items():
            assert bwd[v][u] == dist


@given(small_digraphs, st.data(), st.integers(min_value=1, max_value=4))
def test_truncation_matches_full_distances(d, data, t):
    towers = data.draw(st.sets(st.integers(min_value=0, max_value=d.n - 1)))
    expected = [0] * d.n
    for v in towers:
        # horizon beyond any path length
        for w, dist in reference_bfs(d.out_adjacency, v, d.n + t).items():
            if dist < t:
                expected[w] += t - dist
    assert reception(d, towers, t) == expected


# ---- text formats -----------------------------------------------------------


def test_ug_round_trip_preserves_canonical_order():
    g = grid(3, 5)
    assert parse_ug(format_ug(g)) == g
    assert format_ug(parse_ug(format_ug(g))) == format_ug(g)


def test_dg_round_trip():
    d = star_orientation(9, 3)
    assert parse_dg(format_dg(d)) == d


def test_parse_ug_ignores_comments_and_blanks():
    g = parse_ug("# a graph\n\n2 1\n0 1\n")
    assert g.edges == ((0, 1),)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n",
        "2 2\n0 1\n",
        "2 1\n0 1 2\n",
        "2 1\nzero one\n",
        "-1 0\n",
    ],
)
def test_parse_ug_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_ug(text)


def test_parse_dg_rejects_parallel_arcs():
    with pytest.raises(DuplicateEdge):
        parse_dg("2 2\n0 1\n0 1\n")
