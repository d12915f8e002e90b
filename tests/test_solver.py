import functools
import random
import sys

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
        8, [0, 3, 5, 6, 9, 10, 12, 15], 139)
    res = gamma(orient(g, bits_from_index(11766603, len(g.edges))), Params(2, 2))
    assert (res.gamma, sorted(res.witness), res.nodes_explored) == (
        10, [0, 1, 2, 5, 6, 7, 9, 12, 13, 15], 6)
    rg = build_graph(18, [
        (0, 1), (0, 3), (0, 7), (1, 2), (1, 5), (1, 9), (1, 13), (1, 16),
        (1, 17), (2, 6), (2, 8), (2, 14), (2, 15), (3, 4), (3, 11), (4, 7),
        (4, 11), (5, 6), (6, 17), (7, 11), (8, 10), (10, 12), (11, 12),
        (12, 13), (13, 16), (14, 17),
    ])
    res = gamma(orient(rg, bits_from_index(37211386, 26)), Params(3, 1))
    assert (res.gamma, sorted(res.witness), res.nodes_explored) == (
        6, [0, 1, 2, 9, 11, 12], 47)


@functools.cache
def random_digraphs():
    """1,000 random digraphs on 1-12 vertices, then orientations and the
    doubled digraphs of the 3x4 and 4x4 grids: the cases both reference
    searches are compared on."""
    rng = random.Random(7)
    cases = []
    for _ in range(1000):
        n = rng.randint(1, 12)
        density = rng.choice((0.1, 0.2, 0.35, 0.6))
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < density]
        cases.append(Digraph(n, arcs))
    for g in (grid(3, 4), grid(4, 4)):
        m = len(g.edges)
        cases += [orient(g, bits_from_index(rng.getrandbits(m), m)) for _ in range(4)]
        cases.append(g.as_digraph())
    return tuple(cases)


def reference_gamma(d, p):
    """The branch and bound as it was before in-masks and the k-largest
    gains bound: tuple candidates rebuilt for every deficient vertex at
    every node, and a cut at ceil(total / best single-tower gain).
    Returns (gamma, witness, nodes)."""
    n, r = d.n, p.r
    cover_out = d.cover(p.t)
    cover_in = [[] for _ in range(n)]
    for v in range(n):
        for w, _ in cover_out[v]:
            cover_in[w].append(v)

    def best_tower(rec, blocked):
        best_v, best = -1, 0
        for v in range(n):
            if blocked >> v & 1:
                continue
            gain = sum(min(c, r - rec[w]) for w, c in cover_out[v] if rec[w] < r)
            if gain > best:
                best_v, best = v, gain
        return best_v, best

    def place(v, rec, sign):
        cleared = 0
        for w, c in cover_out[v]:
            if sign > 0 and rec[w] < r:
                cleared += min(c, r - rec[w])
            rec[w] += sign * c
        return cleared

    rec = [0] * n
    total = r * n
    chosen = static_max = 0
    while total > 0:
        v, gain = best_tower(rec, chosen)
        static_max = static_max or gain
        chosen |= 1 << v
        total -= place(v, rec, 1)
    state = {"size": chosen.bit_count(), "mask": chosen, "nodes": 0}
    rec = [0] * n

    def dfs(size, chosen, banned, total):
        state["nodes"] += 1
        if total == 0:
            if size < state["size"]:
                state["size"], state["mask"] = size, chosen
            return
        if size + 1 >= state["size"]:
            return
        blocked = chosen | banned
        lb = -(-total // static_max)
        if size + lb < state["size"]:
            denom = best_tower(rec, blocked)[1]
            if denom == 0:
                return
            lb = -(-total // denom)
        if size + lb >= state["size"]:
            return
        branch = None
        for w in range(n):
            if rec[w] >= r:
                continue
            avail = tuple(v for v in cover_in[w] if not blocked >> v & 1)
            if not avail:
                return
            if branch is None or len(avail) < len(branch):
                branch = avail
                if len(avail) == 1:
                    break
        for v in branch:
            delta = place(v, rec, 1)
            dfs(size + 1, chosen | (1 << v), banned, total - delta)
            place(v, rec, -1)
            banned |= 1 << v

    dfs(0, 0, 0, r * n)
    witness = frozenset(v for v in range(n) if state["mask"] >> v & 1)
    return state["size"], witness, state["nodes"]


def test_gamma_matches_reference_branch_and_bound():
    # same gamma and witness as the tuple-branching search; the node
    # total pins the search's bounds and branch order
    nodes = 0
    for d in random_digraphs():
        for p in PARAMS6:
            res = gamma(d, p)
            ref_gamma, ref_witness, _ = reference_gamma(d, p)
            assert (res.gamma, res.witness) == (ref_gamma, ref_witness), (d.arcs, p)
            nodes += res.nodes_explored
    assert nodes == 18450


def recursive_gamma(d, p):
    """The branch and bound as it was before the explicit stack and the
    packing bound: a recursive dfs closure, the static and k-largest
    gains cuts, and a branch-vertex scan that stops at one candidate.
    Returns (gamma, witness, nodes)."""
    n, r = d.n, p.r
    if n == 0:
        return 0, frozenset(), 0
    cover_out = d.cover(p.t)

    def gains_of(rec, blocked):
        return [0 if blocked >> v & 1 else
                sum(min(c, r - rec[w]) for w, c in pairs if rec[w] < r)
                for v, pairs in enumerate(cover_out)]

    def place(pairs, rec):
        cleared = sum(min(c, r - rec[w]) for w, c in pairs if rec[w] < r)
        for w, c in pairs:
            rec[w] += c
        return cleared

    rec = [0] * n
    total = r * n
    chosen = static_max = 0
    while total > 0:
        gains = gains_of(rec, chosen)
        gain = max(gains)
        v = gains.index(gain)
        static_max = static_max or gain
        chosen |= 1 << v
        total -= place(cover_out[v], rec)
    best_mask, best_size = chosen, chosen.bit_count()
    in_mask = [0] * n
    for v, pairs in enumerate(cover_out):
        for w, _ in pairs:
            in_mask[w] |= 1 << v
    rec = [0] * n
    total = r * n
    nodes = 0

    def dfs(size, chosen, banned):
        nonlocal best_size, best_mask, nodes, total
        nodes += 1
        if total == 0:
            if size < best_size:
                best_size, best_mask = size, chosen
            return
        if size + -(-total // static_max) >= best_size:
            return
        blocked = chosen | banned
        gains = sorted(gains_of(rec, blocked), reverse=True)
        if sum(gains[: best_size - size - 1]) < total:
            return
        branch, fewest = 0, n + 1
        for w in range(n):
            if rec[w] >= r:
                continue
            avail = in_mask[w] & ~blocked
            if not avail:
                return
            if avail.bit_count() < fewest:
                branch, fewest = avail, avail.bit_count()
                if fewest == 1:
                    break
        while branch:
            low = branch & -branch
            branch ^= low
            pairs = cover_out[low.bit_length() - 1]
            delta = place(pairs, rec)
            total -= delta
            dfs(size + 1, chosen | low, banned)
            for w, c in pairs:
                rec[w] -= c
            total += delta
            banned |= low

    dfs(0, 0, 0)
    witness = frozenset(v for v in range(n) if best_mask >> v & 1)
    return best_size, witness, nodes


def test_gamma_matches_recursive_search():
    # the explicit stack branches in the recursive search's order, so
    # gamma and witness are the same; the node total pins the search
    nodes = 0
    for d in random_digraphs():
        for p in PARAMS6:
            res = gamma(d, p)
            old_gamma, old_witness, _ = recursive_gamma(d, p)
            assert (res.gamma, res.witness) == (old_gamma, old_witness), (d.arcs, p)
            nodes += res.nodes_explored
    assert nodes == 18450


def disjoint_paths(k, start=0):
    """Edges of k disjoint 4-vertex paths on the ids from start on."""
    return [(start + 4 * i + j, start + 4 * i + j + 1) for i in range(k) for j in range(3)]


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


# at (2,1) the greedy takes 4 towers here, one more than gamma = 3
NON_GREEDY9 = [(0, 2), (0, 3), (0, 8), (1, 2), (1, 5), (1, 6), (2, 4), (2, 6),
               (3, 6), (3, 7), (4, 5)]


def test_search_deeper_than_recursion_limit():
    # the greedy's 204 towers are beaten only by a leaf 203 towers deep
    g = build_graph(409, NON_GREEDY9 + disjoint_paths(100, 9))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        res = gamma_undirected(g, Params(2, 1))
    finally:
        sys.setrecursionlimit(limit)
    paths = {9 + 4 * i + k for i in range(100) for k in (0, 2)}
    assert (res.gamma, res.witness, res.nodes_explored) == (
        203, frozenset({0, 3, 5}) | paths, 408)


def test_disjoint_paths_solved_at_the_root():
    # the path ends' candidate sets are pairwise disjoint, so packing
    # meets the greedy's 2 towers per path before any branch
    res = gamma_undirected(build_graph(40, disjoint_paths(10)), Params(2, 1))
    assert (res.gamma, res.nodes_explored) == (20, 1)


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


def disjoint_union(parts):
    arcs, n = [], 0
    for d in parts:
        arcs += [(u + n, v + n) for u, v in d.arcs]
        n += d.n
    return Digraph(n, arcs)


@settings(max_examples=40)
@given(st.lists(small_digraphs, min_size=2, max_size=3))
def test_gamma_adds_over_disjoint_unions(parts):
    union = disjoint_union(parts)
    for p in PARAMS6:
        res = gamma(union, p)
        assert res.gamma == sum(gamma(d, p).gamma for d in parts)
        assert is_dominating(union, res.witness, p)
