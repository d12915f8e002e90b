"""Periodic directed patterns on the grid, checked on toroidal quotients.

A TorusPattern is a pa x pb cell of tower flags plus two orientation
bits per cell: east_bits[i][j] orients the arc between cell (i, j) and
its east neighbor (i, j+1 mod width), north_bits the arc toward
(i+1 mod height, j).  Bit 0 points the arc away from the owning cell,
bit 1 into it.  Tiling the cell over an a x b torus (a, b positive
multiples of the period, both >= 3 so wrap-around does not create
parallel arcs) yields a 4-regular digraph on a*b vertices; statements
about the infinite grid's bulk are certified there, free of boundary
effects.

Efficiency is checked against the published definition.  Its second
clause reads "r - d(u,v)" verbatim, which a tower itself (d = 0,
reception t) cannot satisfy when t > r; the default interpretation
therefore substitutes t - d(u,v), and the literal reading stays
selectable.  Reports always name the clause they used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateTorus,
    NotAMultiple,
    ParseError,
    TooLarge,
)
from .families import grid, orient_source_towers
from .graphs import (
    Digraph,
    Params,
    _check_size,
    _header_ints,
    _payload_lines,
)
from .interval import domination_interval
from .solver import gamma, gamma_undirected

CLAUSE_SELF_CONSISTENT = "self-consistent"
CLAUSE_LITERAL = "literal"

# embedded_grid_claim enumerates every orientation up to this many edges
EMBED_MAX_ENUM_EDGES = 12


@dataclass(frozen=True)
class TorusPattern:
    """Periodic cell: towers plus east/north arc bits, row-major tuples."""

    towers: tuple[tuple[bool, ...], ...]
    east_bits: tuple[tuple[int, ...], ...]
    north_bits: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self) -> None:
        pa = len(self.towers)
        if pa == 0:
            raise ParseError("pattern needs at least one row")
        pb = len(self.towers[0])
        if pb == 0:
            raise ParseError("pattern needs at least one column")
        for grid_field in (self.towers, self.east_bits, self.north_bits):
            if len(grid_field) != pa or any(len(row) != pb for row in grid_field):
                raise ParseError("pattern fields must share the same pa x pb shape")
        for side, bits in (("east", self.east_bits), ("north", self.north_bits)):
            if any(b not in (0, 1) for row in bits for b in row):
                raise ParseError(f"{side} bits must be 0/1")

    @property
    def pa(self) -> int:
        return len(self.towers)

    @property
    def pb(self) -> int:
        return len(self.towers[0])


@dataclass(frozen=True)
class EfficiencyReport:
    dominating: bool
    density: Fraction
    strict_efficient: bool
    nontower_exact: bool
    clause_interpretation: str
    violations: tuple[tuple[tuple[int, int], int], ...]
    torus: tuple[int, int]


def density(pat: TorusPattern) -> Fraction:
    """Tower fraction of the periodic cell, in lowest terms."""
    towers = sum(1 for row in pat.towers for flag in row if flag)
    return Fraction(towers, pat.pa * pat.pb)


def torus_digraph(
    pat: TorusPattern, a: int, b: int
) -> tuple[Digraph, frozenset[int]]:
    """Tile the pattern over an a x b torus; vertex (i, j) has id i*b + j.

    The torus may have at most MAX_PARSED_VERTICES cells.  Its arcs skip
    Digraph's checks: with both sides at least 3, the 2ab east and north
    edges are distinct non-loops, and each yields exactly one arc.
    """
    if a < 3 or b < 3:
        raise DegenerateTorus(f"torus must be at least 3x3, got {a}x{b}")
    if a % pat.pa or b % pat.pb:
        raise NotAMultiple(
            f"{a}x{b} is not a multiple of the {pat.pa}x{pat.pb} period"
        )
    _check_size(a * b, f"{a}x{b} torus has", "building")
    out_adj: list[list[int]] = [[] for _ in range(a * b)]
    towers = set()
    for i in range(a):
        pi = i % pat.pa
        for j in range(b):
            pj = j % pat.pb
            here = i * b + j
            east = i * b + (j + 1) % b
            north = ((i + 1) % a) * b + j
            for there, bits in ((east, pat.east_bits), (north, pat.north_bits)):
                tail, head = (there, here) if bits[pi][pj] else (here, there)
                out_adj[tail].append(head)
            if pat.towers[pi][pj]:
                towers.add(here)
    adjacency = tuple(tuple(sorted(heads)) for heads in out_adj)
    return Digraph._trusted(a * b, adjacency), frozenset(towers)


def check(
    pat: TorusPattern,
    p: Params,
    a: int,
    b: int,
    clause: str = CLAUSE_SELF_CONSISTENT,
) -> EfficiencyReport:
    """Reception audit of the tiled pattern.

    dominating: every vertex receives at least r.  nontower_exact:
    every non-tower receives exactly r.  strict_efficient: the
    efficiency definition holds verbatim at every vertex, with the
    second clause evaluated per the chosen interpretation.  violations
    lists the cells breaking strict efficiency, row-major, with their
    receptions.  One walk over each tower's Digraph.cover(t) row and
    one pass over the cells decide all three.
    """
    if clause not in (CLAUSE_SELF_CONSISTENT, CLAUSE_LITERAL):
        raise ParseError(f"unknown clause interpretation {clause!r}")
    d, towers = torus_digraph(pat, a, b)
    # second clause: t - d(v, u) = c, or verbatim r - d(v, u) = c - t + r
    shift = 0 if clause == CLAUSE_SELF_CONSISTENT else p.r - p.t
    # per cell: its reception; how many towers reach it with signal
    # c > r (distance below t - r); the reception strict efficiency
    # wants there: r, or with one such tower its signal plus shift
    rec = [0] * d.n
    close = [0] * d.n
    want = [p.r] * d.n
    cover_out = d.cover(p.t)
    for v in towers:
        for w, c in cover_out[v]:
            rec[w] += c
            if c > p.r:
                close[w] += 1
                want[w] = c + shift
    dominating = nontower_exact = True
    violations = []
    for u, x in enumerate(rec):
        dominating &= x >= p.r
        nontower_exact &= x == p.r or u in towers
        if close[u] > 1 or x != want[u]:
            violations.append(((u // b, u % b), x))
    return EfficiencyReport(
        dominating=dominating,
        density=density(pat),
        strict_efficient=not violations,
        nontower_exact=nontower_exact,
        clause_interpretation=clause,
        violations=tuple(violations),
        torus=(a, b),
    )


# the built-in patterns as .pat text
BUILTIN_PATTERNS = {
    "diag13": "3 3\nT..\n..T\n.T.\n001\n010\n100\n001\n010\n100\n",
    "checker12": "2 2\nT.\n.T\n00\n00\n00\n00\n",
    "dense23": "3 3\n.TT\nTT.\nT.T\n000\n000\n000\n000\n000\n000\n",
}


def builtin_patterns() -> dict[str, TorusPattern]:
    """The three certified (2,2) pattern constructions.

    diag13 (density 1/3): towers on one diagonal residue class mod 3,
    every tower's four arcs outward, the signal-free rest pointing
    east/north.  checker12 (1/2): checkerboard towers with every arc
    pointing east/north; each non-tower then hears exactly its west and
    south towers.  dense23 (2/3): the complementary diagonal class,
    again all arcs east/north; every non-tower hears exactly its west
    and south towers, while adjacent towers necessarily overhear each
    other, so this one is dominating and non-tower-exact but cannot be
    strictly efficient.
    """
    return {name: parse_pat(text, name) for name, text in BUILTIN_PATTERNS.items()}


# ---- pattern text format -----------------------------------------------------
#
# .pat: line 1 "pa pb"; pa lines over {T, .} for towers; pa lines over
# {0, 1} for east bits; pa lines for north bits.  '#' lines are comments.


def parse_pat(text: str, name: str = "") -> TorusPattern:
    lines = _payload_lines(text)
    pa, pb = _header_ints(lines, ".pat", "'pa pb'")
    if pa < 1 or pb < 1:
        raise ParseError(f".pat periods must be positive, got pa={pa}, pb={pb}")
    if len(lines) != 1 + 3 * pa:
        raise ParseError(
            f".pat needs {3 * pa} body lines for pa={pa}, got {len(lines) - 1}"
        )
    body = lines[1:]

    def rows(block: list[str], alphabet: str) -> tuple[tuple[str, ...], ...]:
        out = []
        for line in block:
            if len(line) != pb or any(ch not in alphabet for ch in line):
                raise ParseError(
                    f".pat row must be {pb} chars over {set(alphabet)}: {line!r}"
                )
            out.append(tuple(line))
        return tuple(out)

    tower_rows = rows(body[:pa], "T.")
    east_rows = rows(body[pa : 2 * pa], "01")
    north_rows = rows(body[2 * pa :], "01")
    return TorusPattern(
        towers=tuple(tuple(ch == "T" for ch in row) for row in tower_rows),
        east_bits=tuple(tuple(int(ch) for ch in row) for row in east_rows),
        north_bits=tuple(tuple(int(ch) for ch in row) for row in north_rows),
        name=name,
    )


def format_pat(pat: TorusPattern) -> str:
    out = [f"{pat.pa} {pat.pb}"]
    out.extend(
        "".join("T" if flag else "." for flag in row) for row in pat.towers
    )
    out.extend("".join(str(b) for b in row) for row in pat.east_bits)
    out.extend("".join(str(b) for b in row) for row in pat.north_bits)
    return "\n".join(out) + "\n"


# ---- grid-in-lattice claim audit ---------------------------------------------


@dataclass(frozen=True)
class GridEmbedAudit:
    """Audit record for the claimed (2,2) interval containment of an
    mxN grid derived from the density-2/3 lattice pattern.

    The claim is recorded as published and each endpoint is tested:
    against the undirected gamma (no orientation may fall below it) and,
    when the graph is small enough to enumerate, against the actual
    attained set.
    """

    m: int
    n: int
    claimed_low: int
    claimed_high: int
    undirected_gamma: int
    low_obs_consistent: bool
    enumerated: bool
    low_attained: bool | None
    high_attained: bool | None
    actual_interval: tuple[int, int] | None
    notes: tuple[str, ...]


def embedded_grid_claim(m: int, n: int) -> GridEmbedAudit:
    """Evaluate the claimed containment interval and audit its endpoints.

    Claimed interval by n mod 3: [floor(mn/3), floor(2mn/3)] at 0,
    [floor(mn/3), floor(2m(n-1)/3)] at 1, [floor(mn/3),
    floor((4mn+5m)/6)] at 2.  Membership is decided exactly by full
    orientation enumeration when |E| <= EMBED_MAX_ENUM_EDGES; otherwise the
    lower endpoint is probed with the source-tower construction and the
    upper endpoint is left undecided.
    """
    if m * n > 30:
        raise TooLarge(f"{m}x{n} grid exceeds the mn <= 30 audit guard")
    p = Params(2, 2)
    claimed_low = (m * n) // 3
    residue = n % 3
    if residue == 0:
        claimed_high = (2 * m * n) // 3
    elif residue == 1:
        claimed_high = (2 * m * (n - 1)) // 3
    else:
        claimed_high = (4 * m * n + 5 * m) // 6
    g = grid(m, n)
    base = gamma_undirected(g, p)
    notes = []
    low_consistent = claimed_low >= base.gamma
    if not low_consistent:
        notes.append(
            f"claimed lower endpoint {claimed_low} is below the undirected"
            f" gamma {base.gamma}; no orientation can attain it"
        )
    if len(g.edges) <= EMBED_MAX_ENUM_EDGES:
        iv = domination_interval(g, p)
        low_attained = claimed_low in iv.attained
        high_attained = claimed_high in iv.attained
        actual = (iv.d, iv.D)
    else:
        actual = None
        high_attained = None
        oriented, _ = orient_source_towers(g, base.witness)
        preserved = gamma(oriented, p).gamma
        low_attained = preserved == claimed_low if low_consistent else False
        notes.append(
            "graph too large to enumerate; lower endpoint probed via the"
            f" source-tower orientation (gamma {preserved})"
        )
    return GridEmbedAudit(
        m=m,
        n=n,
        claimed_low=claimed_low,
        claimed_high=claimed_high,
        undirected_gamma=base.gamma,
        low_obs_consistent=low_consistent,
        enumerated=actual is not None,
        low_attained=low_attained,
        high_attained=high_attained,
        actual_interval=actual,
        notes=tuple(notes),
    )
