"""Answer gate: independent checks of each op's `results` payload.

The reception and torus checks here use their own truncated BFS and
share no code with bdom.  Orientation values are re-derived with
bdom's `gamma_bruteforce`, the package's designated independent oracle,
on the small graphs where it is cheap.  Each check returns None when the
payload is right and a one-line reason otherwise.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

BRUTEFORCE_MAX_N = 11


def balls(out_adj: list[list[int]], sources, horizon: int) -> dict[int, dict[int, int]]:
    """For each source, {w: d(source, w)} over directed distances < horizon."""
    out = {}
    for s in sources:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if dist[u] + 1 >= horizon:
                continue
            for w in out_adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out[s] = dist
    return out


def reception(n: int, out_adj, towers, t: int) -> list[int]:
    rec = [0] * n
    for dist in balls(out_adj, towers, t).values():
        for w, d in dist.items():
            rec[w] += t - d
    return rec


def adjacency(n: int, pairs, directed: bool) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        if not directed:
            adj[v].append(u)
    return adj


def _oriented_gamma(bdom, n: int, edges, bits: str, t: int, r: int) -> int:
    """gamma_bruteforce of the orientation: bit k = 0 orients edge k from
    its low to its high endpoint."""
    low_high = [(min(e), max(e)) for e in edges]
    arcs = [(v, u) if b == "1" else (u, v) for (u, v), b in zip(low_high, bits)]
    d = bdom.graphs.Digraph(n, arcs)
    return bdom.solver.gamma_bruteforce(d, bdom.graphs.Params(t, r)).gamma


def check_interval(bdom, spec: dict, res: dict) -> str | None:
    n, t, r = spec["n"], spec["t"], spec["r"]
    edges = [tuple(e) for e in spec["edges"]]
    attained = res["attained"]
    if attained != sorted(set(attained)) or not attained:
        return f"attained {attained} is not a sorted nonempty set"
    if (res["d"], res["D"]) != (attained[0], attained[-1]):
        return "d/D disagree with attained"
    if res["full"] != (attained == list(range(attained[0], attained[-1] + 1))):
        return "full disagrees with attained"
    wit = res.get("witnesses", {})
    if sorted(int(k) for k in wit) != attained:
        return "witness keys differ from attained values"
    if n > BRUTEFORCE_MAX_N:
        return None
    for value, bits in wit.items():
        if len(bits) != len(edges):
            return f"witness {bits} has the wrong length"
        got = _oriented_gamma(bdom, n, edges, bits, t, r)
        if got != int(value):
            return f"witness {bits} has gamma {got}, reported {value}"
    return None


def check_jumps(bdom, spec: dict, res: dict) -> str | None:
    t, r = spec["t"], spec["r"]
    if res["count"] != len(res["jumps"]):
        return "count disagrees with the jump list"
    for j in res["jumps"]:
        edges = [tuple(e) for e in j["edges"]]
        bits = j["bits"]
        k = j["edge_index"]
        flipped = bits[:k] + ("0" if bits[k] == "1" else "1") + bits[k + 1 :]
        before = _oriented_gamma(bdom, j["n"], edges, bits, t, r)
        after = _oriented_gamma(bdom, j["n"], edges, flipped, t, r)
        if (before, after) != (j["gamma_before"], j["gamma_after"]):
            return f"jump values ({before}, {after}) differ from the report"
        if abs(after - before) < 2:
            return "reported jump moves gamma by less than 2"
    return None


def check_gamma(bdom, spec: dict, res: dict) -> str | None:
    n, t, r = spec["n"], spec["t"], spec["r"]
    witness = res["witness"]
    if (res["t"], res["r"]) != (t, r):
        return "params echo differs"
    if len(set(witness)) != res["gamma"] or not all(0 <= v < n for v in witness):
        return f"witness size {len(witness)} differs from gamma {res['gamma']}"
    adj = adjacency(n, spec["pairs"], spec["directed"])
    if min(reception(n, adj, witness, t), default=r) < r:
        return "witness does not dominate"
    return None


def torus_results(text: str, name: str, t: int, r: int, reps: int) -> dict:
    """The torus verdict re-derived from reception, clause self-consistent."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    pa, pb = map(int, lines[0].split())
    tower_rows = lines[1 : 1 + pa]
    east_rows = lines[1 + pa : 1 + 2 * pa]
    north_rows = lines[1 + 2 * pa : 1 + 3 * pa]
    a, b = reps * pa, reps * pb
    n = a * b
    adj: list[list[int]] = [[] for _ in range(n)]
    towers = []
    for i in range(a):
        for j in range(b):
            here = i * b + j
            east = i * b + (j + 1) % b
            north = ((i + 1) % a) * b + j
            for other, row in ((east, east_rows), (north, north_rows)):
                if row[i % pa][j % pb] == "1":
                    adj[other].append(here)
                else:
                    adj[here].append(other)
            if tower_rows[i % pa][j % pb] == "T":
                towers.append(here)
    tower_balls = balls(adj, towers, t)
    rec = [0] * n
    close: list[list[int]] = [[] for _ in range(n)]
    for dist in tower_balls.values():
        for w, d in dist.items():
            rec[w] += t - d
            if d < t - r:
                close[w].append(d)
    tower_set = set(towers)
    violations = []
    for u in range(n):
        if not close[u]:
            ok = rec[u] == r
        elif len(close[u]) == 1:
            ok = rec[u] == t - close[u][0]
        else:
            ok = False
        if not ok:
            violations.append({"cell": [u // b, u % b], "reception": rec[u]})
    return {
        "pattern": name,
        "torus": [a, b],
        "density": str(Fraction(sum(row.count("T") for row in tower_rows), pa * pb)),
        "dominating": min(rec) >= r,
        "strict_efficient": not violations,
        "nontower_exact": all(rec[v] == r for v in range(n) if v not in tower_set),
        "clause_interpretation": "self-consistent",
        "violations": violations,
    }


def check_torus(bdom, spec: dict, res: dict, text: str, name: str) -> str | None:
    want = torus_results(text, name, spec["t"], spec["r"], spec["reps"])
    for key, value in want.items():
        if res.get(key) != value:
            return f"torus {key} differs from the re-derived verdict"
    return None


# Values a relabelling of the vertices and a reordering of the edges
# leave unchanged, pinned per shape (see workloads.py).
SHAPE_KEYS = {"interval": ("D", "attained", "d", "full"), "gamma": ("gamma",)}


def shape_values(kind: str, res: dict) -> dict:
    return {key: res[key] for key in SHAPE_KEYS[kind]}


def check_shape(kind: str, res: dict, pinned: dict | None) -> str | None:
    if pinned is None:
        return "no pinned value for this shape"
    got = shape_values(kind, res)
    if got != pinned:
        return f"{got} differs from the pinned {pinned} of this shape"
    return None
