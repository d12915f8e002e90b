"""Exact directed (t,r) broadcast domination numbers.

gamma() runs a depth-first branch and bound over tower sets:

* state is the per-vertex deficit (r minus current reception, floored
  at zero) plus the set of towers placed so far;
* the branch vertex is the deficient vertex with the fewest remaining
  candidate dominators (its in-neighborhood within distance t, minus
  towers already placed and candidates banned on this branch), ties to
  the lowest id;
* candidates are tried in ascending vertex id, and each candidate is
  banned for the later siblings, so the branches partition the
  solution space;
* a branch is cut when its size plus ceil(total deficit / best
  deficit-clamped single-tower contribution) reaches the incumbent,
  which is seeded by the greedy set of _greedy().

Each call builds the digraph's cover table for t once (Digraph.cover,
cached on the digraph) and both the greedy seed and the search read it.
The deficit-clamped contribution of a tower is computed in two places
only: _best_tower (greedy rounds and the bound) and _place (placing a
tower).

Params keeps r <= t, the model's domain: in it every vertex gives
itself t >= r, so the whole vertex set always dominates and gamma is
defined.

gamma_bruteforce() is the independent oracle: it tries all k-subsets
in size-then-lexicographic order and returns the first dominating one.
It shares nothing with the branch and bound beyond reception itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import TooLarge
from .graphs import CoverTables, Digraph, Graph, Params, is_dominating

_BRUTEFORCE_MAX_VERTICES = 25


@dataclass(frozen=True)
class GammaResult:
    """Domination number with a witness set and a search-size diagnostic."""

    gamma: int
    witness: frozenset[int]
    nodes_explored: int


def _cover_tables(d: Digraph, t: int) -> CoverTables:
    """(cover_out, cover_in) of d at strength t, as Digraph.cover.

    The solver's one read of the tables, a function of its own so that
    bench/tracing.py can time the table build under this name.
    """
    return d.cover(t)


Pairs = Sequence[tuple[int, int]]


def _best_tower(
    cover_out: Sequence[Pairs], rec: list[int], r: int, blocked: int
) -> tuple[int, int]:
    """The tower outside the mask blocked that clears the most remaining
    deficit, ties to the lowest id, and that amount; (-1, 0) when none
    clears any."""
    best_v = -1
    best = 0
    for v in range(len(cover_out)):
        if blocked >> v & 1:
            continue
        gain = 0
        for w, c in cover_out[v]:
            dw = r - rec[w]
            if dw > 0:
                gain += c if c < dw else dw
        if gain > best:
            best_v, best = v, gain
    return best_v, best


def _place(pairs: Pairs, rec: list[int], r: int) -> int:
    """Add one tower's signal, its cover_out pairs, to rec; returns the
    deficit it clears."""
    cleared = 0
    for w, c in pairs:
        dw = r - rec[w]
        if dw > 0:
            cleared += c if c < dw else dw
        rec[w] += c
    return cleared


def _greedy(cover_out: Sequence[Pairs], r: int) -> tuple[int, int]:
    """Greedy dominating set as a vertex mask, and the largest r-clamped
    single-tower contribution (the first round's best, when nothing is
    covered yet).

    Repeatedly takes the tower that clears the most remaining deficit,
    ties to the lowest id.
    """
    n = len(cover_out)
    rec = [0] * n
    total = r * n
    chosen = 0
    first_best = 0
    while total > 0:
        v, gain = _best_tower(cover_out, rec, r, chosen)
        if not chosen:
            first_best = gain
        # some deficient vertex always accepts itself, so progress is sure
        chosen |= 1 << v
        total -= _place(cover_out[v], rec, r)
    return chosen, first_best


def greedy_upper_bound(d: Digraph, p: Params) -> frozenset[int]:
    """Dominating set built by repeatedly taking the tower that clears
    the most remaining deficit (ties to the lowest id)."""
    mask = _greedy(_cover_tables(d, p.t)[0], p.r)[0]
    return frozenset(v for v in range(d.n) if mask >> v & 1)


def gamma(d: Digraph, p: Params) -> GammaResult:
    """Exact minimum size of a directed (t,r) broadcast dominating set."""
    n = d.n
    if n == 0:
        return GammaResult(0, frozenset(), 0)
    cover_out, cover_in = _cover_tables(d, p.t)
    r = p.r
    # static_max: constant denominator for the cheap first-pass bound
    best_mask, static_max = _greedy(cover_out, r)
    best_size = best_mask.bit_count()
    rec = [0] * n
    total = r * n
    nodes = 0

    def dfs(size: int, chosen: int, banned: int) -> None:
        nonlocal best_size, best_mask, nodes, total
        nodes += 1
        if total == 0:
            if size < best_size:
                best_size = size
                best_mask = chosen
            return
        if size + 1 >= best_size:
            return
        blocked = chosen | banned
        lb = -(-total // static_max)
        if size + lb < best_size:
            # tighter denominator: best deficit-clamped contribution
            # among towers still placeable on this branch
            denom = _best_tower(cover_out, rec, r, blocked)[1]
            if denom == 0:
                return
            lb = -(-total // denom)
        if size + lb >= best_size:
            return
        branch_avail: tuple[int, ...] | None = None
        for w in range(n):
            if rec[w] >= r:
                continue
            avail = tuple(
                v for v in cover_in[w] if not blocked >> v & 1
            )
            if not avail:
                return
            if branch_avail is None or len(avail) < len(branch_avail):
                branch_avail = avail
                if len(avail) == 1:
                    break
        assert branch_avail is not None
        for v in branch_avail:
            pairs = cover_out[v]
            delta = _place(pairs, rec, r)
            total -= delta
            dfs(size + 1, chosen | (1 << v), banned)
            for w, c in pairs:
                rec[w] -= c
            total += delta
            banned |= 1 << v

    dfs(0, 0, 0)
    # dfs refers to itself; unbinding it frees the search state now
    # instead of at the next cyclic garbage collection
    del dfs
    witness = frozenset(v for v in range(n) if best_mask >> v & 1)
    return GammaResult(best_size, witness, nodes)


def gamma_undirected(g: Graph, p: Params) -> GammaResult:
    """gamma on the doubly-directed digraph (signal flows both ways)."""
    return gamma(g.as_digraph(), p)


def gamma_bruteforce(d: Digraph, p: Params) -> GammaResult:
    """Oracle by exhaustive enumeration, for cross-checking gamma().

    Iterates k = 0, 1, 2, ... and every k-subset in lexicographic
    order; the first dominating subset found is optimal.
    """
    if d.n > _BRUTEFORCE_MAX_VERTICES:
        raise TooLarge(
            f"brute force is guarded at n <= {_BRUTEFORCE_MAX_VERTICES}, got {d.n}"
        )
    tested = 0
    for k in range(d.n + 1):
        for subset in combinations(range(d.n), k):
            tested += 1
            if is_dominating(d, subset, p):
                return GammaResult(k, frozenset(subset), tested)
    raise AssertionError("unreachable: the full vertex set dominates when r <= t")
