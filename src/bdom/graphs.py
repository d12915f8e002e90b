"""Graphs, orientations, and broadcast signal reception.

Vertices are dense integer ids 0..n-1.  A Graph keeps its edges in a
canonical order (insertion order, endpoints normalized to u < v); that
order is the index space for orientation bit-vectors: bit k = 0 orients
edge k from its low endpoint to its high endpoint, bit k = 1 the other
way around.  There are 2^|E| orientations and they are enumerated by
treating the bit-vector as a binary integer, bit k = (index >> k) & 1.

A Digraph holds n, its ascending out-adjacency (one arc per oriented
edge) and its cover tables, nothing else.  Anti-parallel arc pairs are
allowed (that is how an undirected graph is re-expressed for the
directed machinery, and how undirected reception is computed);
same-direction duplicates and loops are not.

Graph(n, edges) and Digraph(n, arcs) check what comes from outside
(parse_ug, parse_dg, the families, library callers): a negative vertex
count, an endpoint out of range, a loop or a repeated edge or arc
raises.  Only the derived digraphs of Graph.as_digraph, orient_index,
transpose and lattice.torus_digraph skip the checks: they are valid by
construction and built through Digraph._trusted.

Signal model: a tower at v sends strength t - d(v, w) to every vertex w
at directed distance d(v, w) < t, including strength t to itself.  The
reception at w is the sum over towers.  Distances are held as a cover
table per (digraph, t), built once by breadth-first search truncated at
depth t - 1: cover_out[v] lists (w, t - d(v, w)) for every w the tower v
reaches.  Unreachable pairs are absent rather than set to a sentinel.
Reception, the solver and the lattice checks all read this one table; it
is the package's only source of in-neighbours and distances.  The one exception is the BFS in
interval._sample_orientation, which needs the depths from one random
root: reading them from the cover table would build every source's row
to use one.

Params holds (t, r) and is the one place where 1 <= r <= t is checked.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    DuplicateEdge,
    GraphConstructionError,
    InfeasibleParams,
    InvalidParams,
    InvalidVertex,
    LengthMismatch,
    LoopEdge,
    ParseError,
    TooLarge,
    TooManyEdges,
)


@dataclass(frozen=True)
class Params:
    """Transmission strength t and required reception r, 1 <= r <= t.

    r <= t is the model's domain: every vertex then gives itself t >= r,
    so the whole vertex set always dominates.  This is the one place it
    is checked: a value below 1 raises InvalidParams, r > t raises
    InfeasibleParams.  (Digraph.cover, which takes t alone, also rejects
    t below 1.)
    """

    t: int
    r: int

    def __post_init__(self) -> None:
        if self.t < 1 or self.r < 1:
            raise InvalidParams(f"t and r must be positive, got ({self.t}, {self.r})")
        if self.r > self.t:
            raise InfeasibleParams(
                f"r={self.r} exceeds t={self.t}, outside the model's domain r <= t"
            )


class Graph:
    """Undirected simple graph with a canonical edge order.

    The constructor checks and normalizes the edges in one pass: each is
    stored as (u, v) with u < v, in input order.  A negative n, an edge
    that is not a pair of integers or an endpoint out of range raises
    InvalidVertex, a loop LoopEdge and a repeated edge (in either
    direction) DuplicateEdge.
    """

    __slots__ = ("n", "edges", "adjacency", "_incidence", "_digraph")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise InvalidVertex(f"vertex count must be nonnegative, got {n}")
        # an ordered set: insertion order is the canonical edge order
        canonical: dict[tuple[int, int], None] = {}
        incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        high_mask = [0] * n
        for k, edge in enumerate(edges):
            try:
                a, b = map(operator.index, edge)
            except (TypeError, ValueError):
                raise InvalidVertex(
                    f"edge {edge!r} is not a pair of integer vertex ids"
                ) from None
            if not (0 <= a < n) or not (0 <= b < n):
                raise InvalidVertex(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                raise LoopEdge(f"loop at vertex {a}")
            u, v = e = (a, b) if a < b else (b, a)
            if e in canonical:
                raise DuplicateEdge(f"duplicate edge {e}")
            canonical[e] = None
            incident[u].append((v, k))
            incident[v].append((u, k))
            high_mask[v] |= 1 << k
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(canonical)
        for pairs in incident:
            pairs.sort()
        self.adjacency: Adjacency = tuple(
            tuple(w for w, _ in pairs) for pairs in incident
        )
        # per vertex x: the edges where x is the high endpoint, and its
        # (neighbor, edge index) pairs by neighbor; orient_index reads these
        self._incidence = tuple(
            (mask, tuple(pairs)) for mask, pairs in zip(high_mask, incident)
        )
        self._digraph: Digraph | None = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def as_digraph(self) -> "Digraph":
        """The doubly-directed equivalent: each edge becomes two opposite arcs."""
        if self._digraph is None:
            self._digraph = Digraph._trusted(self.n, self.adjacency)
        return self._digraph


Adjacency = tuple[tuple[int, ...], ...]
CoverOut = tuple[tuple[tuple[int, int], ...], ...]


class Digraph:
    """Directed graph without loops or same-direction parallel arcs.
    The constructor checks outside arcs; as_digraph, orient_index,
    transpose and lattice.torus_digraph build through _trusted."""

    __slots__ = ("n", "out_adjacency", "_cover_cache")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise InvalidVertex(f"vertex count must be nonnegative, got {n}")
        out_adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in arcs:
            if not (0 <= u < n) or not (0 <= v < n):
                raise InvalidVertex(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise LoopEdge(f"loop at vertex {u}")
            if (u, v) in seen:
                raise DuplicateEdge(f"parallel arc ({u}, {v})")
            seen.add((u, v))
            out_adj[u].append(v)
        self.n = n
        self.out_adjacency: Adjacency = tuple(tuple(sorted(a)) for a in out_adj)
        self._cover_cache: dict[int, CoverOut] = {}

    @classmethod
    def _trusted(cls, n: int, out_adjacency: Adjacency) -> "Digraph":
        """Digraph from sorted adjacency tuples known to be valid."""
        d = object.__new__(cls)
        d.n = n
        d.out_adjacency = out_adjacency
        d._cover_cache = {}
        return d

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v) for u in range(self.n) for v in self.out_adjacency[u]
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_adjacency == other.out_adjacency
        )

    def __hash__(self) -> int:
        return hash((self.n, self.out_adjacency))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sum(map(len, self.out_adjacency))})"

    def cover(self, t: int) -> CoverOut:
        """cover_out at transmission strength t, cached.

        cover_out[v] lists (w, t - d(v, w)) for every w with d(v, w) < t,
        in breadth-first order starting with (v, t), from one truncated
        breadth-first search per source.  Raises InvalidParams for t
        below 1 and TooLarge past MAX_COVER_PAIRS pairs.
        """
        cover_out = self._cover_cache.get(t)
        if cover_out is None:
            if t < 1:
                raise InvalidParams(f"t must be positive, got {t}")
            cover_out = self._cover_cache[t] = _build_cover(
                self.out_adjacency, t
            )
        return cover_out


# the most (tower, vertex) pairs one cover table may hold (~70 bytes a
# pair); n vertices give at most n * n, so smaller tables go uncounted
MAX_COVER_PAIRS = 5_000_000


def _build_cover(adjacency: Adjacency, t: int) -> CoverOut:
    n = len(adjacency)
    guarded = n * n > MAX_COVER_PAIRS
    total = 0
    cover_out: list[tuple[tuple[int, int], ...]] = []
    # mark[w] == v: w already reached from source v
    mark = [-1] * n
    for v in range(n):
        pairs = [(v, t)]
        mark[v] = v
        frontier = [v]
        c = t - 1
        while c > 0 and frontier:
            reached = []
            for u in frontier:
                for w in adjacency[u]:
                    if mark[w] != v:
                        mark[w] = v
                        reached.append(w)
                        pairs.append((w, c))
            frontier = reached
            c -= 1
        cover_out.append(tuple(pairs))
        if guarded:
            total += len(pairs)
            if total > MAX_COVER_PAIRS:
                raise TooLarge(
                    f"cover table of {n} vertices at t={t} exceeds"
                    f" the guard of {MAX_COVER_PAIRS} pairs"
                )
    return tuple(cover_out)


# ---- orientations ----------------------------------------------------------

Bits = Sequence[int]


def normalize_bits(bits: Bits | str, expected_length: int) -> tuple[int, ...]:
    """Accept '0101' strings or sequences of values equal to 0 or 1 (bools
    too); enforce the edge count.  Anything else raises LengthMismatch."""
    text = isinstance(bits, str)
    digits = ("0", "1") if text else (0, 1)
    try:
        values = tuple(digits.index(b) for b in (bits.strip() if text else bits))
    except (TypeError, ValueError) as exc:
        raise LengthMismatch(f"orientation bits must be 0/1, got {bits!r}") from exc
    if len(values) != expected_length:
        raise LengthMismatch(
            f"expected {expected_length} orientation bits, got {len(values)}"
        )
    return values


def bits_from_index(index: int, length: int) -> tuple[int, ...]:
    """Bit-vector for enumeration index: bit k = (index >> k) & 1."""
    return tuple((index >> k) & 1 for k in range(length))


def index_from_bits(bits: Bits) -> int:
    return sum(b << k for k, b in enumerate(bits))


def orient(graph: Graph, bits: Bits | str) -> Digraph:
    """Orientation of graph: bit k = 0 means edge k runs low id -> high id."""
    values = normalize_bits(bits, len(graph.edges))
    return orient_index(graph, index_from_bits(values))


def orient_index(graph: Graph, index: int) -> Digraph:
    """Orientation number index of graph, bit k of index orienting edge k
    as in orient(); 0 <= index < 2^|E|.

    Builds the adjacency directly, without Digraph's arc checks: every
    edge of a Graph yields exactly one arc, so none of them can fail.
    """
    if not 0 <= index < 1 << len(graph.edges):
        raise LengthMismatch(
            f"orientation index {index} out of range for {len(graph.edges)} edges"
        )
    out_adj = []
    for high_mask, pairs in graph._incidence:
        # the arc to w leaves this vertex iff bit k equals "this is the
        # high endpoint", i.e. iff bit k of index ^ high_mask is 0
        flipped = index ^ high_mask
        out_w = []
        for w, k in pairs:
            if not flipped >> k & 1:
                out_w.append(w)
        out_adj.append(tuple(out_w))
    return Digraph._trusted(graph.n, tuple(out_adj))


# the most edges an orientation search enumerates: 2^24 indices, and
# orientation_image keeps one lookup table per byte of an index.
# _check_enum is the one check against it.
MAX_ENUM_EDGES = 24


def _check_enum(num_edges: int) -> None:
    """The guard on enumerating 2^num_edges orientation indices."""
    if num_edges > MAX_ENUM_EDGES:
        raise TooManyEdges(
            f"2^{num_edges} orientations exceed the enumeration guard"
            f" (|E| <= {MAX_ENUM_EDGES})"
        )


def orientation_image(graph: Graph, sigma: Sequence[int]) -> Callable[[int], int]:
    """The automorphism sigma of graph acting on orientation indices.

    sigma sends edge k = (u, v) to the edge {sigma u, sigma v}, number
    pi(k), and the arc u -> v to sigma u -> sigma v, so bit pi(k) of the
    image is bit k of the index, flipped iff sigma u > sigma v.  The map
    is affine over GF(2) and is evaluated with one lookup table per byte
    of the index.  Raises GraphConstructionError unless sigma is a
    permutation of the vertices that maps the edge set into (so onto)
    itself, and TooManyEdges above 24 edges (three bytes).
    """
    _check_enum(len(graph.edges))
    if sorted(sigma) != list(range(graph.n)):
        raise GraphConstructionError(f"{tuple(sigma)} is not a permutation")
    position = {e: k for k, e in enumerate(graph.edges)}
    flip = 0
    moved = []
    for u, v in graph.edges:
        a, b = sigma[u], sigma[v]
        k = position.get((a, b) if a < b else (b, a))
        if k is None:
            raise GraphConstructionError(f"{tuple(sigma)} is not an automorphism")
        moved.append(1 << k)
        if a > b:
            flip |= 1 << k
    tables = []
    for lo in range(0, MAX_ENUM_EDGES, 8):
        bits = moved[lo : lo + 8]
        table = [0]
        for bit in bits:
            table += [x | bit for x in table]
        tables.append(table)
    t0, t1, t2 = tables
    return lambda index: flip ^ t0[index & 255] ^ t1[index >> 8 & 255] ^ t2[index >> 16]


# ---- automorphisms ---------------------------------------------------------
#
# Individualization-refinement, after nauty: refine an ordered vertex
# partition until it is equitable, individualize a vertex of the first
# non-singleton cell and repeat until the partition is discrete (a
# leaf).  The leaf order of the first path fixes the base b_0, b_1, ...
# Two leaves whose refinement paths have the same cell sizes define a
# candidate permutation, kept only if it maps the edge set onto itself.


def _refine(adjacency: Adjacency, cells: list[list[int]]) -> list[list[int]]:
    """Split cells by each vertex's multiset of neighbour cells until no
    cell splits.  Sub-cells are ordered by that multiset, so relabelling
    the graph and the input partition relabels the output alike."""
    cell_of = [0] * len(adjacency)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = i
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(sorted(cell_of[w] for w in adjacency[v]))
                groups.setdefault(key, []).append(v)
            out.extend(groups[key] for key in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def _individualize(
    adjacency: Adjacency, cells: list[list[int]], j: int, v: int
) -> list[list[int]]:
    rest = [w for w in cells[j] if w != v]
    return _refine(adjacency, cells[:j] + [[v], rest] + cells[j + 1 :])


def _first_open(cells: list[list[int]]) -> int:
    return next(j for j, cell in enumerate(cells) if len(cell) > 1)


def automorphism_generators(graph: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of graph, as vertex maps
    (sigma[v] is the image of v); empty when the group is trivial.

    Searches the base levels deepest first and keeps a generator only
    when it enlarges the orbit of that level's base point under the
    generators found so far, so the set stays small (a star on n
    vertices, with (n - 1)! automorphisms, gets n - 2).  Isolated
    vertices are fixed: permuting them moves no edge.
    """
    adjacency = graph.adjacency
    edges = set(graph.edges)
    identity = list(range(graph.n))
    active = [v for v in identity if adjacency[v]]
    if not active:
        return []
    path = [_refine(adjacency, [active])]
    while len(path[-1]) < len(active):
        node = path[-1]
        j = _first_open(node)
        path.append(_individualize(adjacency, node, j, node[j][0]))
    shapes = [tuple(map(len, node)) for node in path]
    leaf = [cell[0] for cell in path[-1]]

    def search(node: list[list[int]], level: int) -> tuple[int, ...] | None:
        if tuple(map(len, node)) != shapes[level]:
            return None
        if level == len(path) - 1:
            sigma = identity[:]
            for a, cell in zip(leaf, node):
                sigma[a] = cell[0]
            if all(
                ((sigma[u], sigma[v]) if sigma[u] < sigma[v] else (sigma[v], sigma[u]))
                in edges
                for u, v in graph.edges
            ):
                return tuple(sigma)
            return None
        j = _first_open(node)
        for v in node[j]:
            found = search(_individualize(adjacency, node, j, v), level + 1)
            if found is not None:
                return found
        return None

    generators: list[tuple[int, ...]] = []
    for level in range(len(path) - 2, -1, -1):
        node = path[level]
        j = _first_open(node)
        base = node[j][0]
        orbit = {base}
        for v in node[j]:
            if v in orbit:
                continue
            sigma = search(_individualize(adjacency, node, j, v), level + 1)
            if sigma is None:
                continue
            generators.append(sigma)
            # every generator so far fixes the base points above this level
            frontier = list(orbit)
            while frontier:
                x = frontier.pop()
                for s in generators:
                    if s[x] not in orbit:
                        orbit.add(s[x])
                        frontier.append(s[x])
    return generators


def transpose(d: Digraph) -> Digraph:
    """Reverse every arc.  An involution: transpose(transpose(d)) == d."""
    in_adj: list[list[int]] = [[] for _ in range(d.n)]
    for u, v in d.arcs:  # tails ascend, so every in-list comes out sorted
        in_adj[v].append(u)
    return Digraph._trusted(d.n, tuple(map(tuple, in_adj)))


# ---- reception -------------------------------------------------------------


def _check_towers(n: int, towers: Iterable[int]) -> frozenset[int]:
    ts = frozenset(towers)
    for v in ts:
        if not (0 <= v < n):
            raise InvalidVertex(f"tower {v} out of range for n={n}")
    return ts


def reception(d: Digraph, towers: Iterable[int], t: int) -> list[int]:
    """Directed reception at every vertex: sum of t - d(v, w) over towers v."""
    ts = _check_towers(d.n, towers)
    cover_out = d.cover(t)
    rec = [0] * d.n
    for v in ts:
        for w, c in cover_out[v]:
            rec[w] += c
    return rec


def is_dominating(d: Digraph, towers: Iterable[int], p: Params) -> bool:
    """True iff every vertex receives at least r."""
    rec = reception(d, towers, p.t)
    return all(x >= p.r for x in rec)


# ---- text formats -----------------------------------------------------------
#
# .ug (undirected): first line "n m", then m lines "u v"; canonical edge
# order is line order.  .dg (directed): same framing, lines are arcs
# u -> v.  Lines starting with '#' are comments and blank lines are
# ignored, in .pat files too (lattice.parse_pat reads _payload_lines and
# _header_ints).  A header may declare at most MAX_PARSED_VERTICES
# vertices, checked before any per-vertex list is allocated.  The same
# limit bounds the sizes that come from argv: generated grids, stars and
# paths, tori and the jump search's vertex budget.

MAX_PARSED_VERTICES = 10_000


def _check_size(n: int, subject: str, action: str) -> None:
    """The guard on a vertex count, raised before anything is built."""
    if n > MAX_PARSED_VERTICES:
        raise TooLarge(
            f"{subject} {n} vertices; {action} is guarded at {MAX_PARSED_VERTICES}"
        )


def _payload_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


def _header_ints(lines: list[str], kind: str, shape: str) -> tuple[int, int]:
    """The two integers of a header line; shape names them in errors."""
    if not lines:
        raise ParseError(f"empty {kind} input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"{kind} header must be {shape}, got {lines[0]!r}")
    try:
        return int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"{kind} header must be integers: {lines[0]!r}") from exc


def _parse_header(lines: list[str], kind: str) -> tuple[int, int]:
    n, m = _header_ints(lines, kind, "'n m'")
    if n < 0 or m < 0:
        raise ParseError(f"{kind} header values must be nonnegative: {lines[0]!r}")
    _check_size(n, f"{kind} declares", "parsing")
    if len(lines) - 1 != m:
        raise ParseError(
            f"{kind} declares {m} lines but has {len(lines) - 1}"
        )
    return n, m


def _parse_pairs(lines: list[str], kind: str) -> list[tuple[int, int]]:
    pairs = []
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{kind} line must be 'u v', got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"{kind} line must be integers: {line!r}") from exc
    return pairs


def parse_ug(text: str) -> Graph:
    lines = _payload_lines(text)
    n, _ = _parse_header(lines, ".ug")
    return Graph(n, _parse_pairs(lines[1:], ".ug"))


def format_ug(g: Graph) -> str:
    out = [f"{g.n} {len(g.edges)}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def parse_dg(text: str) -> Digraph:
    lines = _payload_lines(text)
    n, _ = _parse_header(lines, ".dg")
    return Digraph(n, _parse_pairs(lines[1:], ".dg"))


def format_dg(d: Digraph) -> str:
    arcs = d.arcs
    out = [f"{d.n} {len(arcs)}"]
    out.extend(f"{u} {v}" for u, v in arcs)
    return "\n".join(out) + "\n"
