"""Graph families and their known broadcast-domination values.

Generators (grid, star, path) fix canonical vertex ids and edge orders
so orientation bit-vectors are reproducible across runs:

* grid(m, n): cell (row i, col j) has id i*n + j; all horizontal edges
  row-major, then all vertical edges row-major;
* star(n): center 0, leaves 1..n-1, edge k joins 0 and k+1;
* path(n): edge k joins k and k+1.

The closed forms collected here (gamma of narrow grids, star
domination intervals, interval upper endpoints driven by zigzag-number
ratios) are exactly the published values; the solver and the
enumeration machinery exist to check them, so nothing in this module
depends on the solver's search path.
"""

from __future__ import annotations

from .errors import InvalidDims, OutOfFormulaDomain, OutOfRange
from .graphs import (
    Digraph,
    Graph,
    Params,
    _check_size,
    orient,
    orient_index,
)
from .interval import DominationInterval, _scan, orbit_minima


def grid(m: int, n: int) -> Graph:
    """Grid with m rows and n columns."""
    if m < 1 or n < 1:
        raise InvalidDims(f"grid dimensions must be positive, got ({m}, {n})")
    _check_size(m * n, f"{m}x{n} grid has", "generation")
    edges = []
    for i in range(m):
        for j in range(n - 1):
            edges.append((i * n + j, i * n + j + 1))
    for i in range(m - 1):
        for j in range(n):
            edges.append((i * n + j, (i + 1) * n + j))
    return Graph(m * n, edges)


def star(n: int) -> Graph:
    """Star: center 0 adjacent to the n - 1 leaves."""
    if n < 2:
        raise InvalidDims(f"star needs at least 2 vertices, got {n}")
    _check_size(n, "star has", "generation")
    return Graph(n, [(0, k + 1) for k in range(n - 1)])


def path(n: int) -> Graph:
    if n < 1:
        raise InvalidDims(f"path needs at least 1 vertex, got {n}")
    _check_size(n, "path has", "generation")
    return Graph(n, [(k, k + 1) for k in range(n - 1)])


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def grid_formula_gamma(m: int, n: int, p: Params) -> int:
    """Published undirected gamma value for narrow grids.

    Covered domain: (2,2) on 3xN (n>=3), 4xN (n>=4), 5xN (n>=5), and
    (3,1) on 3xN (n>=3), 4xN (n>=4).
    """
    tr = (p.t, p.r)
    if tr == (2, 2) and m == 3 and n >= 3:
        return _ceil_div(4 * n, 3)
    if tr == (2, 2) and m == 4 and n >= 4:
        return 2 * n - _ceil_div(n - 6, 4)
    if tr == (2, 2) and m == 5 and n >= 5:
        return 2 * n + _ceil_div(n + 2, 7)
    if tr == (3, 1) and m == 3 and n >= 3:
        return _ceil_div(n, 3)
    if tr == (3, 1) and m == 4 and n >= 4:
        return (n + 1) // 7 + (n + 3) // 7 + (n + 5) // 7 + 1
    raise OutOfFormulaDomain(f"no closed form for {m}x{n} at (t,r)={tr}")


def zigzag(k: int) -> int:
    """Zigzag number (count of alternating permutations of k elements).

    Computed by the boustrophedon recurrence T(i,0) = [i == 0],
    T(i,j) = T(i,j-1) + T(i-1,i-j); the value is T(k,k).  Exact
    integers throughout.
    """
    if k < 0:
        raise OutOfRange(f"zigzag index must be >= 0, got {k}")
    row = [1]
    for i in range(1, k + 1):
        prev = row
        row = [0]
        for j in range(1, i + 1):
            row.append(row[j - 1] + prev[i - j])
    return row[-1]


def zigzag_ratio(n: int) -> int:
    """floor(zigzag(n+1) / zigzag(n)): the fourth-row tower count used
    by the 4xN interval upper endpoint."""
    return zigzag(n + 1) // zigzag(n)


def grid_interval_upper(m: int, n: int) -> int:
    """Claimed upper endpoint of the directed (2,2) interval of an mxN grid.

    These are published claims, audited elsewhere against exhaustive
    enumeration; this function just evaluates the stated formulas.
    """
    if n < 1:
        raise OutOfFormulaDomain(f"n must be >= 1, got {n}")
    if m == 2:
        return (3 * n + 2) // 2
    if m == 3:
        return (3 * n + 2) // 2 + (3 * n + 4) // 4
    if m == 4:
        return (3 * n + 2) // 2 + (3 * n + 4) // 4 + zigzag_ratio(n)
    raise OutOfFormulaDomain(f"upper endpoint formula covers m in 2..4, got {m}")


def star_interval(n: int, p: Params) -> DominationInterval:
    """Directed (t,r) domination interval of the star, in closed form.

    (1,1) -> [n, n]; (2,2) -> [n-1, n]; t = r > 2 -> [2, n];
    t > r -> [1, n-1].  Full in every case.
    """
    if n < 3:
        raise OutOfFormulaDomain(f"star interval formulas need n >= 3, got {n}")
    if p.t == p.r:
        if p.t == 1:
            lo, hi = n, n
        elif p.t == 2:
            lo, hi = n - 1, n
        else:
            lo, hi = 2, n
    else:
        lo, hi = 1, n - 1
    return DominationInterval(
        d=lo,
        D=hi,
        attained=frozenset(range(lo, hi + 1)),
        full=True,
    )


def star_orientation(n: int, s: int) -> Digraph:
    """Star orientation with s source leaves (1..s point at the center)."""
    if not (0 <= s <= n - 1):
        raise OutOfRange(f"source-leaf count must be in 0..{n - 1}, got {s}")
    g = star(n)
    return orient(g, [1] * s + [0] * (n - 1 - s))


def orient_source_towers(
    g: Graph, towers: frozenset[int] | set[int]
) -> tuple[Digraph, tuple[int, ...]]:
    """Make every tower a source; intended for (2,2) dominating sets.

    Tower-nontower edges run tower -> nontower, so every nontower keeps
    the same reception it had undirected.  Nontower-nontower and
    tower-tower edges run low id -> high id; tower-tower edges are
    reported back as flagged indices since both endpoints wanted to be
    sources.
    """
    return _orient_away(g, (towers,))


def orient_outward(
    g: Graph, towers: frozenset[int] | set[int]
) -> tuple[Digraph, tuple[int, ...]]:
    """Orient so signal runs as far out from the towers as it can;
    intended for (3,1) dominating sets.

    Towers become sources; edges at distance-1 vertices point away from
    them unless the tower arcs already fixed them; edges whose both
    endpoints sit at distance >= 2 carry no further signal and run
    low id -> high id.  An edge both of whose endpoints demand the
    outward direction (two towers, or two distance-1 vertices) is
    resolved low id -> high id and flagged.
    """
    # read only for edges between non-towers, where membership means
    # distance exactly 1 from the towers
    near = {w for v in towers for w in g.adjacency[v]}
    return _orient_away(g, (towers, near))


def _orient_away(
    g: Graph, layers: tuple[frozenset[int] | set[int], ...]
) -> tuple[Digraph, tuple[int, ...]]:
    """Each edge leaves the first layer that holds one of its endpoints;
    if that layer holds both, it runs low id -> high id and is flagged.
    Edges touching no layer run low id -> high id."""
    bits = []
    flagged = []
    for k, (u, v) in enumerate(g.edges):
        bit = 0
        for layer in layers:
            in_u, in_v = u in layer, v in layer
            if in_u or in_v:
                if in_u and in_v:
                    flagged.append(k)
                bit = 0 if in_u else 1
                break
        bits.append(bit)
    return orient(g, bits), tuple(flagged)


def _indegree_le1_count(d: Digraph) -> int:
    heads = [0] * d.n
    for out in d.out_adjacency:
        for w in out:
            heads[w] += 1
    return sum(1 for x in heads if x <= 1)


def max_indegree_le1_orientation(m: int, n: int) -> tuple[Digraph, int]:
    """Orientation of the mxN grid maximizing vertices of in-degree <= 1.

    Exhaustive over all 2^|E| orientations, scanning one per Aut(grid)
    orbit (the count is the same across an orbit); returns the first
    maximizer in enumeration order together with the count.
    """
    g = grid(m, n)
    first = _scan(g, _indegree_le1_count, orbit_minima(g))
    best = max(first)
    return orient_index(g, first[best]), best
