"""Exact directed (t,r) broadcast domination numbers.

gamma() runs a depth-first branch and bound over tower sets:

* state is the per-vertex deficit (r minus current reception, floored
  at zero) plus the set of towers placed so far;
* the search is one loop over an explicit stack, one frame per placed
  tower on the current path: the parent's size, chosen and banned
  masks, its branch bits still to try, the placed tower's bit and the
  deficit it cleared.  Backtracking pops a frame and undoes its tower,
  so the depth is bounded by n, not by Python's recursion limit;
* the branch vertex is the deficient vertex with the fewest remaining
  candidate dominators, ties to the lowest id.  Its candidates are the
  set bits of in_mask[w] & ~blocked: in_mask[w] holds the towers whose
  signal reaches w, built from cover_out once per call (unless the
  static bound below cuts the root), and blocked the towers placed or
  banned on this branch.  A deficient vertex with no candidate left
  ends the branch;
* candidates are tried in ascending vertex id, and each candidate is
  banned for the later siblings, so the branches partition the
  solution space;
* a branch is cut when its size plus a lower bound on the towers
  still needed reaches the incumbent, which is seeded by the greedy set
  of _greedy().  Two bounds are tried in turn, cheapest first:
  - static: ceil(total deficit / static_max), static_max the largest
    single-tower contribution on an empty reception;
  - packing: the scan that picks the branch vertex walks every
    deficient vertex in id order and counts those whose candidate
    sets are disjoint from the union of the counted ones.  Each of
    them needs a tower of its own.  A vertex with deficit dw needs
    ceil(dw / t) towers, and dw <= r <= t, so each counts 1.
  A valid bound never cuts the subtree holding the first optimum in
  DFS order while the incumbent is worse, so the witness does not
  depend on the bounds' strength.

Each call builds the digraph's cover table for t once (Digraph.cover,
cached on the digraph) and both the greedy seed and the search read it.
The deficit-clamped contribution of a tower is computed in two places
only: _greedy (each round's pass) and _place (placing a tower).

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
from .graphs import CoverOut, Digraph, Graph, Params, is_dominating

_BRUTEFORCE_MAX_VERTICES = 25


@dataclass(frozen=True)
class GammaResult:
    """Domination number with a witness set and a search-size diagnostic."""

    gamma: int
    witness: frozenset[int]
    nodes_explored: int


def _cover_tables(d: Digraph, t: int) -> CoverOut:
    """cover_out of d at strength t, as Digraph.cover.

    The solver's one read of the tables, a function of its own so that
    bench/tracing.py can time the table build under this name.
    """
    return d.cover(t)


Pairs = Sequence[tuple[int, int]]


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
        best = v = 0
        for u, pairs in enumerate(cover_out):
            if chosen >> u & 1:
                continue
            gain = 0
            for w, c in pairs:
                dw = r - rec[w]
                if dw > 0:
                    gain += c if c < dw else dw
            if gain > best:
                best, v = gain, u
        if not chosen:
            first_best = best
        # some deficient vertex always accepts itself, so progress is sure
        chosen |= 1 << v
        total -= _place(cover_out[v], rec, r)
    return chosen, first_best


def greedy_upper_bound(d: Digraph, p: Params) -> frozenset[int]:
    """Dominating set built by repeatedly taking the tower that clears
    the most remaining deficit (ties to the lowest id)."""
    mask = _greedy(_cover_tables(d, p.t), p.r)[0]
    return frozenset(v for v in range(d.n) if mask >> v & 1)


def gamma(d: Digraph, p: Params) -> GammaResult:
    """Exact minimum size of a directed (t,r) broadcast dominating set."""
    n = d.n
    if n == 0:
        return GammaResult(0, frozenset(), 0)
    cover_out = _cover_tables(d, p.t)
    r = p.r
    # static_max: constant denominator for the cheap first-pass bound
    best_mask, static_max = _greedy(cover_out, r)
    best_size = best_mask.bit_count()
    total = r * n
    # in_mask[w]: the towers whose signal reaches w; the root's static
    # cut, which ends the search at one node, needs none
    in_mask = [0] * n
    if -(-total // static_max) < best_size:
        for v, pairs in enumerate(cover_out):
            bit = 1 << v
            for w, _ in pairs:
                in_mask[w] |= bit
    rec = [0] * n
    nodes = 0
    # (size, chosen, banned, branch bits left, placed tower bit, delta)
    # of each node on the current path, as in the module docstring
    stack: list[tuple[int, int, int, int, int, int]] = []
    size = chosen = banned = 0
    while True:
        nodes += 1
        branch = 0
        if total == 0:
            if size < best_size:
                best_size = size
                best_mask = chosen
        elif size + -(-total // static_max) < best_size:
            free = ~(chosen | banned)
            fewest = n + 1
            used = pack = 0
            for rw, mask in zip(rec, in_mask):
                if rw >= r:
                    continue
                avail = mask & free
                if not avail:
                    branch = 0
                    break
                # packing: deficient vertices with pairwise disjoint
                # candidates each need a tower of their own
                if not avail & used:
                    used |= avail
                    pack += 1
                count = avail.bit_count()
                if count < fewest:
                    branch, fewest = avail, count
            if size + pack >= best_size:
                branch = 0
        # backtrack to the deepest node with a branch bit left, undoing
        # the towers placed below it
        while not branch and stack:
            size, chosen, banned, branch, low, delta = stack.pop()
            for w, c in cover_out[low.bit_length() - 1]:
                rec[w] -= c
            total += delta
            banned |= low
        if not branch:
            break
        low = branch & -branch
        delta = _place(cover_out[low.bit_length() - 1], rec, r)
        total -= delta
        stack.append((size, chosen, banned, branch ^ low, low, delta))
        size += 1
        chosen |= low
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
