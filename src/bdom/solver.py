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
  which is seeded by the greedy set of greedy_upper_bound().

Each call builds the digraph's cover table for t once (Digraph.cover,
cached on the digraph) and both the greedy seed and the search read it.

Feasibility requires r <= t: the whole vertex set is then always
dominating (every vertex gives itself t), while for r > t no set
works, which is reported as InfeasibleParams rather than infinity.

gamma_bruteforce() is the independent oracle: it tries all k-subsets
in size-then-lexicographic order and returns the first dominating one.
It shares nothing with the branch and bound beyond reception itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import InfeasibleParams, TooLarge
from .graphs import CoverTables, Digraph, Graph, Params, is_dominating

_BRUTEFORCE_MAX_VERTICES = 25


@dataclass(frozen=True)
class GammaResult:
    """Domination number with a witness set and a search-size diagnostic."""

    gamma: int
    witness: frozenset[int]
    nodes_explored: int


def _require_feasible(p: Params) -> None:
    """The one feasibility check of every exact entry point."""
    if p.r > p.t:
        raise InfeasibleParams(
            f"r={p.r} exceeds t={p.t}: towers cannot cover themselves"
        )


def _cover_tables(d: Digraph, t: int) -> CoverTables:
    """(cover_out, cover_in) of d at strength t, as Digraph.cover.

    The solver's one read of the tables, a function of its own so that
    bench/tracing.py can time the table build under this name.
    """
    return d.cover(t)


def _greedy(
    n: int, cover_out: Sequence[Sequence[tuple[int, int]]], r: int
) -> tuple[set[int], int]:
    """Greedy dominating set, and the largest r-clamped single-tower
    contribution (the first round's best, when nothing is covered yet).

    Repeatedly takes the tower that clears the most remaining deficit,
    ties to the lowest id.
    """
    rec = [0] * n
    total = r * n
    chosen: set[int] = set()
    first_best = 0
    while total > 0:
        best_v = -1
        best_red = 0
        for v in range(n):
            if v in chosen:
                continue
            red = 0
            for w, c in cover_out[v]:
                dw = r - rec[w]
                if dw > 0:
                    red += c if c < dw else dw
            if red > best_red:
                best_v, best_red = v, red
        if not chosen:
            first_best = best_red
        # some deficient vertex always accepts itself, so progress is sure
        chosen.add(best_v)
        for w, c in cover_out[best_v]:
            dw = r - rec[w]
            if dw > 0:
                total -= c if c < dw else dw
            rec[w] += c
    return chosen, first_best


def greedy_upper_bound(d: Digraph, p: Params) -> frozenset[int]:
    """Dominating set built by repeatedly taking the tower that clears
    the most remaining deficit (ties to the lowest id)."""
    _require_feasible(p)
    return frozenset(_greedy(d.n, _cover_tables(d, p.t)[0], p.r)[0])


def gamma(d: Digraph, p: Params) -> GammaResult:
    """Exact minimum size of a directed (t,r) broadcast dominating set."""
    _require_feasible(p)
    n = d.n
    if n == 0:
        return GammaResult(0, frozenset(), 0)
    cover_out, cover_in = _cover_tables(d, p.t)
    r = p.r
    # static_max: constant denominator for the cheap first-pass bound
    seed, static_max = _greedy(n, cover_out, r)
    best_size = len(seed)
    best_mask = 0
    for v in seed:
        best_mask |= 1 << v
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
            denom = 0
            for v in range(n):
                if blocked >> v & 1:
                    continue
                s = 0
                for w, c in cover_out[v]:
                    dw = r - rec[w]
                    if dw > 0:
                        s += c if c < dw else dw
                if s > denom:
                    denom = s
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
            delta = 0
            for w, c in cover_out[v]:
                dw = r - rec[w]
                if dw > 0:
                    delta += c if c < dw else dw
                rec[w] += c
            total -= delta
            dfs(size + 1, chosen | (1 << v), banned)
            for w, c in cover_out[v]:
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
    _require_feasible(p)
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
