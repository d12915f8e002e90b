"""Domination values across all orientations of a graph.

The 2^|E| orientations of a graph are indexed by the integer whose
k-th bit orients edge k (0 = low id -> high id).  An automorphism of
the graph maps each orientation to an isomorphic one with the same
gamma, so domination_interval solves one orientation per orbit of the
automorphism group on indices: the orbit's lowest index.  Because gamma
is constant on an orbit, the lowest index attaining each value is an
orbit minimum, and the result, witnesses included, equals that of a scan
of all 2^|E| indices.  The minima can be split across worker processes;
merging keeps the lowest-index witness per value, so the result does not
depend on the split either.

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
from functools import partial
from multiprocessing import Pool
from typing import Callable, Sequence

from .errors import OutOfRange
from .graphs import (
    Bits,
    Digraph,
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
from .solver import gamma


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


def _scan(
    g: Graph, value: Callable[[Digraph], int], indices: Sequence[int]
) -> dict[int, int]:
    """The one loop over orientation indices: value of each orientation,
    for ascending indices; value -> first index."""
    first: dict[int, int] = {}
    for index in indices:
        x = value(orient_index(g, index))
        if x not in first:
            first[x] = index
    return first


def _gamma_value(p: Params, d: Digraph) -> int:
    return gamma(d, p).gamma


def domination_interval(g: Graph, p: Params, jobs: int = 1) -> DominationInterval:
    """gamma over all 2^|E| orientations, solving one per symmetry orbit.

    orbit_minima raises TooManyEdges above MAX_ENUM_EDGES edges.  jobs
    worker processes (from 1 up to the CPU count) take strided slices of
    the orbit minima; fewer than 4 minima per worker run serially.
    """
    if jobs < 1:
        raise OutOfRange(f"jobs must be >= 1, got {jobs}")
    minima = orbit_minima(g)
    gamma_at_p = partial(_gamma_value, p)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(minima) < 4 * jobs:
        first = _scan(g, gamma_at_p, minima)
    else:
        # strided: gamma's cost drifts with the index, so every worker
        # gets a share of each stretch
        slices = [(g, gamma_at_p, minima[j::jobs]) for j in range(jobs)]
        with Pool(processes=jobs) as pool:
            partials = pool.starmap(_scan, slices)
        first = {}
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
