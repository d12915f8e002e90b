"""Domination values across all orientations of a graph.

The 2^|E| orientations of a graph are indexed by the integer whose
k-th bit orients edge k (0 = low id -> high id).  An automorphism of
the graph maps each orientation to an isomorphic one with the same
gamma, so domination_interval solves one orientation per orbit of the
automorphism group on indices: the orbit's lowest index.  Because gamma
is constant on an orbit, the lowest index attaining each value is an
orbit minimum, and the result, witnesses included, equals that of a scan
of all 2^|E| indices.

_scan keeps only the lowest index of each value, so it needs an
orientation's value only when that value is new.  For each orbit
minimum it runs gamma's greedy seed alone, which bounds gamma between
lb = max(floor, ceil(r*n / static_max)) and the greedy set's size.
floor is the undirected gamma of the graph: every orientation's arcs
are a subset of the doubled ones, so none has a lower gamma.  When every
integer in that range already has a lower index, the scan skips the
index; otherwise the search runs from the same seed.

Every orientation's gamma also lies at or below U = _upper(g, p), a
bound proven for all orientations at once: n at t = 1, n - nu(g) (the
maximum matching) for r < t, and n - beta(g) (the most disjoint vertex
sets inducing more edges than vertices) for r = t >= 2.  One packing
search, _packing, gives both nu and beta.  So once the scan holds every
integer in [floor, U], no later index can add a value or a lower
witness, and it stops.  The skip and the stop are one check: every
value in a range already has a lower index.  It computes floor at most
once per scan, and only once the range's top value (the greedy size,
or U) is known, so a scan with one minimum costs one greedy.

The minima can be split across worker processes, each skipping and
stopping on its own values only; a worker's later indices exceed its
own witnesses, and merging keeps the lowest-index witness per value,
so the result does not depend on the split either.  One worker
is given per MIN_MINIMA_PER_WORKER minima, up to jobs and the CPU
count: below that, starting and stopping a pool costs more than it
saves.  A single worker scans in this process.

flip_walk realizes the constructive interval arguments: walking between
two orientations one arc flip at a time and recording gamma along the
way.  jump_search hunts for the opposite phenomenon: seeded random
graphs and orientations where one flip moves gamma by two or more.
"""

from __future__ import annotations

import os
import random
from array import array
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Sequence

from .errors import OutOfRange
from .graphs import (
    Bits,
    Graph,
    Params,
    _check_enum,
    _check_size,
    automorphism_generators,
    bits_from_index,
    index_from_bits,
    normalize_bits,
    orient_index,
    orientation_image,
)
from .solver import _cover_tables, _greedy, _search, gamma

# Pool(2) time over serial time of domination_interval on 2 shared
# cores, Python 3.11.7 (tables in CHANGES.md).  Where the scan runs to
# its last minimum, the Pool pays from 1,024-4,096 minima ((3,3),
# (3,1)) and loses up to 4,096 at (2,2).  Where it stops at _upper's
# bound, each worker stops only once its own slice holds every value:
# from 8,192 minima the Pool cost 0.78-6.4x the serial scan.  The
# count cannot tell the two apart, so it stays at 4,096
MIN_MINIMA_PER_WORKER = 4096


@dataclass(frozen=True)
class DominationInterval:
    """Attained gamma values over all orientations of one graph.

    d/D are the extremes, attained is the full value set, full says
    whether every integer in [d, D] is attained, witnesses maps each
    attained value to the lowest-index orientation producing it.
    domination_interval always fills witnesses; a closed form such as
    families.star_interval has none.
    """

    d: int
    D: int
    attained: frozenset[int]
    full: bool
    witnesses: dict[int, tuple[int, ...]] | None = None


@dataclass(frozen=True)
class WalkTrace:
    """Arc-flip walk: edge indices flipped and gamma after each step."""

    flip_sequence: tuple[int, ...]
    gamma_sequence: tuple[int, ...]


@dataclass(frozen=True)
class Jump:
    """A single arc flip that moved gamma by 2 or more, with both
    endpoint values recomputed by the solver."""

    graph: Graph
    bits: tuple[int, ...]
    edge_index: int
    gamma_before: int
    gamma_after: int

    @property
    def delta(self) -> int:
        return self.gamma_after - self.gamma_before


def orbit_minima(g: Graph) -> Sequence[int]:
    """The lowest orientation index of each orbit of Aut(g), ascending.

    A range over all 2^|E| indices when no automorphism is found;
    otherwise an array('I') built with a 2^|E|-byte bitmap: the first
    unmarked index of an orbit is its minimum, and marking the closure
    of that index under the generators retires the rest of the orbit.
    Raises TooManyEdges above MAX_ENUM_EDGES, before either is built.
    """
    _check_enum(len(g.edges))
    count = 1 << len(g.edges)
    images = [orientation_image(g, s) for s in automorphism_generators(g)]
    if not images:
        return range(count)
    seen = bytearray(count)
    minima = array("I")
    stack = array("I")
    index = seen.find(0)
    while index >= 0:
        minima.append(index)
        seen[index] = 1
        stack.append(index)
        while stack:
            x = stack.pop()
            for image in images:
                y = image(x)
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        index = seen.find(0, index)
    return minima


def _packing(nbrs: list[int], alive: int, s: int, memo: dict[int, int]) -> int:
    """The most vertex-disjoint connected sets X within alive that each
    induce more than |X| + s edges: nu(g) at s = -2, where the minimal
    sets are single edges, and beta(g) at s = 0.

    A packing may keep only minimal sets.  Each vertex of a minimal set
    has at least 2 + s//2 neighbours in it: one in an edge, and two at
    s = 0, where dropping a vertex with fewer leaves a dense set.  The
    set has at least 4 + s vertices.  So alive is first cut to its core
    where every vertex keeps 2 + s//2 neighbours, and the core's lowest
    vertex is either in no set or in a minimal one; memo holds the
    answer per core.  The sets holding that vertex are grown from it,
    deciding each neighbour of the set once (in or out), so every
    connected set is reached once; a set is not grown past its first
    dense one, so a minimal one is always reached.
    """
    degree = 2 + s // 2
    shrunk = True
    while shrunk:
        shrunk = False
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            if (nbrs[low.bit_length() - 1] & alive).bit_count() < degree:
                alive ^= low
                shrunk = True
    if not alive:
        return 0
    if alive in memo:
        return memo[alive]
    cap = alive.bit_count() // (4 + s)
    best = 0
    low = alive & -alive
    # set, its induced edge count, neighbours still to decide, and the
    # set plus the neighbours left out
    stack = [(low, 0, nbrs[low.bit_length() - 1] & alive, low)]
    while stack and best < cap:
        members, edges, ext, closed = stack.pop()
        if not ext:
            continue
        w = ext & -ext
        stack.append((members, edges, ext ^ w, closed | w))
        near = nbrs[w.bit_length() - 1]
        grown = members | w
        grown_edges = edges + (near & members).bit_count()
        if grown_edges <= grown.bit_count() + s:
            stack.append(
                (grown, grown_edges, (ext ^ w) | (near & alive & ~closed), closed | w)
            )
        else:
            best = max(best, 1 + _packing(nbrs, alive & ~grown, s, memo))
    if best < cap:
        best = max(best, _packing(nbrs, alive ^ low, s, memo))
    memo[alive] = best
    return best


def _upper(g: Graph, p: Params) -> int:
    """A bound U >= gamma(D) for every orientation D of g.

    * t = 1: U = n, since the whole vertex set dominates (r <= t).
    * r < t: U = n - nu(g), nu the maximum matching.  In any
      orientation, let S hold the head of each matching edge.  Its
      tail is not in S and sends it t - 1 >= r at distance 1; every
      vertex outside S gives itself t.  So the vertices outside S
      dominate.
    * r = t >= 2: U = n - beta(g), beta the most vertex-disjoint vertex
      sets that each induce more edges than vertices.  In any
      orientation the in-degrees within such a set X, counting arcs
      inside X only, sum to more than |X|, so some vertex of X has two
      in-neighbours in X.  They send t - 1 each, and 2(t - 1) >= t, so
      taking one such vertex out of each set still dominates.  (For
      the 3x2 grid, beta = 1 and U = 5.)

    nu and beta come from one search, _packing, over the vertices that
    have a neighbour.  A weaker U is still a bound; a tight one lets
    _scan stop sooner.
    """
    if p.t == 1:
        return g.n
    nbrs = [0] * g.n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    alive = sum(1 << v for v, near in enumerate(nbrs) if near)
    return g.n - _packing(nbrs, alive, -2 if p.r < p.t else 0, {})


def _scan(
    g: Graph, p: Params, indices: Sequence[int], upper: int
) -> dict[int, int]:
    """gamma over the given orientation indices, ascending: value -> first
    index.  An index whose greedy seed bounds its value to values already
    in first is skipped without a search.  Every value lies in [floor,
    upper], so once first holds all of them the scan stops: no later
    index can add a value or a lower witness."""
    r = p.r
    first: dict[int, int] = {}
    floor: int | None = None

    def known(low: int, high: int) -> bool:
        """Whether every value in [max(floor, low), high] has a lower
        index.  None can unless high does, so the floor waits for it."""
        nonlocal floor
        if high not in first:
            return False
        if floor is None:
            floor = gamma(g.as_digraph(), p).gamma
        return all(x in first for x in range(max(floor, low), high))

    for index in indices:
        if known(0, upper):
            break
        cover_out = _cover_tables(orient_index(g, index), p.t)
        mask, static_max = _greedy(cover_out, r)
        # the counting bound; static_max is 0 only on the empty graph
        if known(-(-r * g.n // (static_max or 1)), mask.bit_count()):
            continue
        first.setdefault(_search(cover_out, r, mask, static_max).gamma, index)
    return first


def domination_interval(g: Graph, p: Params, jobs: int = 1) -> DominationInterval:
    """gamma over all 2^|E| orientations, solving one per symmetry orbit,
    skipping the orbits whose value is already known and stopping once
    every value up to _upper's bound is known.

    orbit_minima raises TooManyEdges above MAX_ENUM_EDGES edges, before
    the bound is computed.  The scan runs on max(1, min(jobs, CPU count, minima //
    MIN_MINIMA_PER_WORKER)) workers: one scans in this process, more take
    strided slices of the orbit minima in a Pool.
    """
    if jobs < 1:
        raise OutOfRange(f"jobs must be >= 1, got {jobs}")
    minima = orbit_minima(g)
    upper = _upper(g, p)
    jobs = min(jobs, os.cpu_count() or 1, len(minima) // MIN_MINIMA_PER_WORKER)
    if jobs <= 1:
        partials = [_scan(g, p, minima, upper)]
    else:
        # strided: gamma's cost drifts with the index, so every worker
        # gets a share of each stretch
        slices = [(g, p, minima[j::jobs], upper) for j in range(jobs)]
        with Pool(processes=jobs) as pool:
            partials = pool.starmap(_scan, slices)
    first: dict[int, int] = {}
    for part in partials:
        for value, index in part.items():
            if value not in first or index < first[value]:
                first[value] = index
    lo, hi = min(first), max(first)
    return DominationInterval(
        d=lo,
        D=hi,
        attained=frozenset(first),
        # the attained values are distinct integers in [lo, hi]
        full=len(first) == hi - lo + 1,
        witnesses={
            value: bits_from_index(index, len(g.edges))
            for value, index in sorted(first.items())
        },
    )


def flip_walk(
    g: Graph, from_bits: Bits | str, to_bits: Bits | str, p: Params
) -> WalkTrace:
    """Flip the differing arcs one at a time, in ascending edge index,
    recording gamma before any flip and after each one.

    Intermediate values depend on this flip order; only the endpoints
    and (for r = 1 and (2,2)) the one-step bound are order-free.
    """
    num_edges = len(g.edges)
    index = index_from_bits(normalize_bits(from_bits, num_edges))
    target = index_from_bits(normalize_bits(to_bits, num_edges))
    flips = tuple(k for k in range(num_edges) if (index ^ target) >> k & 1)
    values = [gamma(orient_index(g, index), p).gamma]
    for k in flips:
        index ^= 1 << k
        values.append(gamma(orient_index(g, index), p).gamma)
    return WalkTrace(flip_sequence=flips, gamma_sequence=tuple(values))


def max_step(trace: WalkTrace) -> int:
    """Largest |delta gamma| along consecutive walk steps (0 if no flips)."""
    seq = trace.gamma_sequence
    return max(
        (abs(b - a) for a, b in zip(seq, seq[1:])), default=0
    )


def _random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Uniform random labeled tree plus a few extra edges."""
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    # Pruefer decode gives a uniform labeled spanning tree
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    for x in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((min(leaf, x), max(leaf, x)))
                degree[leaf] -= 1
                degree[x] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    present = set(edges)
    for _ in range(rng.randint(0, n // 2)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in present:
            present.add(e)
            edges.append(e)
    return Graph(n, edges)


def _sample_orientation(rng: random.Random, g: Graph) -> tuple[int, ...]:
    """Half the time uniform bits, half the time a flow orientation
    (edges point away from a random root, ties by coin).

    Uniform sampling alone essentially never produces the long coherent
    signal chains along which a single flip can strand several distant
    vertices at once; flow orientations make those common.
    """
    if rng.random() < 0.5:
        return tuple(rng.randint(0, 1) for _ in g.edges)
    root = rng.randrange(g.n)
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in depth:
                    depth[w] = depth[u] + 1
                    nxt.append(w)
        frontier = nxt
    return tuple(
        (0 if depth[u] < depth[v] else 1)
        if depth[u] != depth[v]
        else rng.randint(0, 1)
        for (u, v) in g.edges
    )


def jump_search(
    p: Params, vertex_budget: int, trials: int, seed: int
) -> list[Jump]:
    """Seeded random hunt for single flips with |delta gamma| >= 2.

    Each trial samples a connected graph on up to vertex_budget vertices
    and an orientation, then tries every single-edge flip and records the
    ones that move gamma by at least 2.  Both endpoint values come from
    the solver, so each returned Jump is its own certificate.  trials is
    at least 0, and vertex_budget at most MAX_PARSED_VERTICES.
    """
    if vertex_budget < 1:
        raise OutOfRange(f"vertex budget must be >= 1, got {vertex_budget}")
    _check_size(vertex_budget, "vertex budget of", "the jump search")
    if trials < 0:
        raise OutOfRange(f"trials must be >= 0, got {trials}")
    rng = random.Random(seed)
    found: list[Jump] = []
    low = min(4, vertex_budget)
    for _ in range(trials):
        n = rng.randint(low, vertex_budget)
        g = _random_connected_graph(rng, n)
        bits = _sample_orientation(rng, g)
        index = index_from_bits(bits)
        base = gamma(orient_index(g, index), p).gamma
        for k in range(len(g.edges)):
            value = gamma(orient_index(g, index ^ (1 << k)), p).gamma
            if abs(value - base) >= 2:
                found.append(
                    Jump(
                        graph=g,
                        bits=bits,
                        edge_index=k,
                        gamma_before=base,
                        gamma_after=value,
                    )
                )
    return found
