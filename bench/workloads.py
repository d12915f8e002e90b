"""Seeded inputs for the bdom benchmark.

Every workload is a list of CLI ops generated here from the benchmark
seed alone; the program only ever sees the written .ug/.dg/.pat files
and the argv.  Nothing is imported from bdom, so a change to one of the
package's private helpers cannot silently change a workload.

Each op carries its units of work, fixed by the inputs rather than by
how the program computes the answer:

* orient-scan: orientations answered, 2^|E| per interval op and
  trials * (1 + |E|) per jumps op (one base orientation plus one per
  single flip, summed over the trials' graphs);
* exact-search: one instance per op;
* torus-check: torus cells a * b per op.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace

WORKLOADS = ("orient-scan", "orient-scan-jobs2", "exact-search", "torus-check")
SCALES = ("full", "tiny")

PAIRS = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv with "{file}" standing for the input path."""

    kind: str
    argv: tuple[str, ...]
    units: int
    file_name: str | None = None
    file_text: str | None = None
    spec: dict = field(default_factory=dict, compare=False)

    def command(self, path: str | None) -> list[str]:
        return [path if a == "{file}" else a for a in self.argv]


@dataclass(frozen=True)
class Sizes:
    edge_counts: tuple[int, ...]
    vertex_counts: tuple[int, ...]
    jump_ops: int
    jump_trials: int
    grids: tuple[tuple[int, int, int, int], ...]
    random_graphs: int
    random_vertices: dict[tuple[int, int], tuple[int, int]]
    torus_builtin: tuple[tuple[str, int], ...]
    torus_shapes: tuple[tuple[int, int, int], ...]


# Sizes and parameters are fixed per workload, so two seeds ask for the
# same amount of work.  The cost of gamma differs tenfold between random
# graphs of one size, so the random graphs' shapes come from a fixed
# stream and the seed reorders their edges (the orientation index space)
# and, in orient-scan, relabels their vertices.  A reordered or
# relabelled shape keeps its gamma and its domination interval, so each
# interval and gamma op names its shape (its file name, fixed before the
# shuffle) and those values are pinned per shape and checked at every
# seed.  The seed also draws the jump searches' seeds, the torus
# patterns' tower cells and arc bits, and the op order.
SIZES = {
    "full": Sizes(
        edge_counts=(8, 9, 10, 11),
        vertex_counts=(6, 7, 8, 9),
        jump_ops=12,
        jump_trials=40,
        # (m, n, t, r)
        grids=(
            (4, 6, 2, 2), (5, 6, 2, 2), (4, 8, 2, 2), (6, 6, 2, 2),
            (4, 8, 3, 3), (6, 6, 3, 3), (5, 8, 3, 3), (6, 7, 3, 3),
            (4, 10, 2, 1), (5, 8, 2, 1), (6, 7, 2, 1),
        ),
        random_graphs=120,
        # (t, r) -> vertex range; the undirected B&B grows fastest with n
        # at (2,1), (2,2) and (3,2), so those stay at 30..36 vertices
        random_vertices={(2, 1): (30, 36), (2, 2): (30, 36), (3, 1): (30, 45), (3, 2): (30, 36)},
        torus_builtin=(
            ("diag13", 12), ("checker12", 18), ("dense23", 12),
            ("diag13", 16), ("checker12", 24), ("dense23", 16),
            ("diag13", 24),
        ),
        # (pa, pb, reps): every torus side between 36 and 72
        torus_shapes=(
            (2, 2, 18), (2, 3, 18), (3, 3, 12), (3, 4, 12), (4, 4, 9),
            (4, 5, 9), (5, 5, 8), (5, 6, 8), (6, 6, 6), (3, 5, 12),
            (4, 6, 9), (2, 4, 18), (3, 6, 12), (6, 5, 8),
        ),
    ),
    "tiny": Sizes(
        edge_counts=(4, 5),
        vertex_counts=(4, 5),
        jump_ops=2,
        jump_trials=2,
        grids=((3, 3, 2, 2), (3, 4, 3, 3), (3, 4, 2, 1)),
        random_graphs=4,
        random_vertices={(2, 1): (10, 12), (2, 2): (10, 12), (3, 1): (10, 12), (3, 2): (10, 12)},
        torus_builtin=(("diag13", 4), ("checker12", 6), ("dense23", 4)),
        torus_shapes=((2, 3, 6), (4, 4, 3)),
    ),
}

# (2,2) certified pattern constructions, written out as .pat text
BUILTIN_PATTERNS = {
    "diag13": "3 3\nT..\n..T\n.T.\n001\n010\n100\n001\n010\n100\n",
    "checker12": "2 2\nT.\n.T\n00\n00\n00\n00\n",
    "dense23": "3 3\n.TT\nTT.\nT.T\n000\n000\n000\n000\n000\n000\n",
}

JUMP_T, JUMP_R, JUMP_BUDGET = 5, 3, 11


def _rng(family: str, seed: int) -> random.Random:
    return random.Random(f"bdom-bench/{family}/{seed}")


def random_connected_edges(
    rng: random.Random, n: int, m: int
) -> list[tuple[int, int]]:
    """Random spanning tree plus random extra edges, m in total, in a
    shuffled order (the order is the orientation index space)."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph with n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    present: set[tuple[int, int]] = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        present.add((min(u, v), max(u, v)))
    while len(present) < m:
        u, v = rng.sample(range(n), 2)
        present.add((min(u, v), max(u, v)))
    edges = sorted(present)
    rng.shuffle(edges)
    return edges


def relabel(rng: random.Random, n: int, pairs) -> list[tuple[int, int]]:
    """The pairs under a random vertex permutation, in a random order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in pairs]
    rng.shuffle(out)
    return out


def grid_edges(m: int, n: int) -> list[tuple[int, int]]:
    """m rows by n columns, cell (i, j) = i*n + j."""
    edges = [(i * n + j, i * n + j + 1) for i in range(m) for j in range(n - 1)]
    edges += [(i * n + j, (i + 1) * n + j) for i in range(m - 1) for j in range(n)]
    return edges


def flow_arcs(
    rng: random.Random, n: int, edges: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Arcs pointing away from a random root by BFS depth, ties by coin."""
    depth = bfs_depths(n, edges, rng.randrange(n))
    arcs = []
    for u, v in edges:
        if depth[u] > depth[v] or (depth[u] == depth[v] and rng.random() < 0.5):
            u, v = v, u
        arcs.append((u, v))
    return arcs


def bfs_depths(n: int, edges, root: int) -> dict[int, int]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in depth:
                    depth[w] = depth[u] + 1
                    nxt.append(w)
        frontier = nxt
    return depth


def pairs_text(n: int, pairs) -> str:
    return f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


def jump_orientations(budget: int, trials: int, seed: int) -> int:
    """Orientations one `bdom jumps` op answers: sum over trials of 1 + |E|.

    The graphs are drawn inside the program, so this replays the seeded
    draws its jump search makes (a Pruefer tree plus up to n//2 extra
    edge attempts, then a uniform or flow orientation).  The replay is
    frozen here so that the unit stays fixed by the op's inputs even if
    the program's sampler changes later.
    """
    rng = random.Random(seed)
    total = 0
    for _ in range(trials):
        n = rng.randint(min(4, budget), budget)
        edges = _replay_jump_graph(rng, n)
        if rng.random() >= 0.5:
            depth = bfs_depths(n, edges, rng.randrange(n))
            ties = sum(1 for u, v in edges if depth[u] == depth[v])
        else:
            ties = len(edges)
        for _ in range(ties):
            rng.randint(0, 1)
        total += 1 + len(edges)
    return total


def _replay_jump_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    if n <= 2:
        return [(0, 1)] if n == 2 else []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    present = set(edges)
    for _ in range(rng.randint(0, n // 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u != v and e not in present:
            present.add(e)
            edges.append(e)
    return edges


# ---- workloads -------------------------------------------------------------


def _interval_op(name: str, n: int, edges, t: int, r: int) -> Op:
    return Op(
        kind="interval",
        argv=("interval", "{file}", "--t", str(t), "--r", str(r), "--witnesses"),
        units=1 << len(edges),
        file_name=name,
        file_text=pairs_text(n, edges),
        spec={"n": n, "edges": [list(e) for e in edges], "t": t, "r": r,
              "shape": name},
    )


def _orient_scan(seed: int, sz: Sizes) -> list[Op]:
    shapes = _rng("orient-scan-shapes", 0)
    rng = _rng("orient-scan", seed)
    ops = []
    k = len(sz.vertex_counts)
    for p, (t, r) in enumerate(PAIRS):
        for j, m in enumerate(sz.edge_counts):
            # a fixed Latin square: each pair meets every edge and vertex count
            n = sz.vertex_counts[(j + p) % k]
            edges = relabel(rng, n, random_connected_edges(shapes, n, m))
            ops.append(_interval_op(f"g{len(ops):02d}.ug", n, edges, t, r))
    for _ in range(sz.jump_ops):
        s = rng.randrange(1 << 31)
        ops.append(
            Op(
                kind="jumps",
                argv=(
                    "jumps", "--t", str(JUMP_T), "--r", str(JUMP_R),
                    "--budget", str(JUMP_BUDGET), "--trials", str(sz.jump_trials),
                    "--seed", str(s),
                ),
                units=jump_orientations(JUMP_BUDGET, sz.jump_trials, s),
                spec={"t": JUMP_T, "r": JUMP_R},
            )
        )
    rng.shuffle(ops)
    return ops


def _exact_search(seed: int, sz: Sizes) -> list[Op]:
    shapes = _rng("exact-search-shapes", 0)
    rng = _rng("exact-search", seed)
    ops = []
    for m, n, t, r in sz.grids:
        edges = grid_edges(m, n)
        ops.append(_gamma_op(f"grid{m}x{n}_{t}{r}.ug", m * n, edges, False, t, r))
    pairs = tuple(sz.random_vertices)
    for i in range(sz.random_graphs):
        t, r = pairs[i % len(pairs)]
        lo, hi = sz.random_vertices[t, r]
        n = lo + (i // len(pairs)) % (hi - lo + 1)
        edges = random_connected_edges(shapes, n, n + n // 5)
        arcs = flow_arcs(shapes, n, edges)
        # no relabelling here: the B&B search branches in vertex order, so
        # a relabelling changes one op's B&B nodes up to elevenfold between
        # seeds, and the p90 of the ops' nodes by a quartile spread of 13%
        # over ten seeds; the edge and arc order changes neither
        rng.shuffle(edges)
        rng.shuffle(arcs)
        ops.append(_gamma_op(f"r{i:03d}.ug", n, edges, False, t, r))
        ops.append(_gamma_op(f"r{i:03d}.dg", n, arcs, True, t, r))
    rng.shuffle(ops)
    return ops


def _gamma_op(name: str, n: int, pairs, directed: bool, t: int, r: int) -> Op:
    return Op(
        kind="gamma",
        argv=("gamma", "{file}", "--t", str(t), "--r", str(r)),
        units=1,
        file_name=name,
        file_text=pairs_text(n, pairs),
        spec={"n": n, "pairs": [list(p) for p in pairs], "directed": directed,
              "t": t, "r": r, "shape": name},
    )


def _torus_op(name: str, text: str, t: int, r: int, reps: int) -> Op:
    pa, pb = map(int, text.split("\n", 1)[0].split())
    return Op(
        kind="torus",
        argv=("torus", "--pattern", "{file}", "--t", str(t), "--r", str(r),
              "--reps", str(reps)),
        units=reps * pa * reps * pb,
        file_name=name,
        file_text=text,
        spec={"t": t, "r": r, "reps": reps},
    )


def random_pattern_text(rng: random.Random, pa: int, pb: int) -> str:
    """Tower density as close to 1/3 as the cell allows, random arc bits."""
    cells = pa * pb
    towers = set(rng.sample(range(cells), max(1, round(cells / 3))))
    rows = ["".join("T" if i * pb + j in towers else "." for j in range(pb))
            for i in range(pa)]
    for _ in range(2):
        rows += ["".join(rng.choice("01") for _ in range(pb)) for _ in range(pa)]
    return f"{pa} {pb}\n" + "".join(row + "\n" for row in rows)


def _torus_check(seed: int, sz: Sizes) -> list[Op]:
    rng = _rng("torus-check", seed)
    ops = [
        _torus_op(f"{name}.pat", BUILTIN_PATTERNS[name], 2, 2, reps)
        for name, reps in sz.torus_builtin
    ]
    for i, (pa, pb, reps) in enumerate(sz.torus_shapes):
        t = 2 + i % 3
        r = 1 + i % t
        ops.append(_torus_op(f"p{i:02d}.pat", random_pattern_text(rng, pa, pb), t, r, reps))
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, scale: str = "full") -> list[Op]:
    sz = SIZES[scale]
    if workload == "orient-scan":
        return _orient_scan(seed, sz)
    if workload == "orient-scan-jobs2":
        return [with_jobs(op, 2) for op in _orient_scan(seed, sz) if op.kind == "interval"]
    if workload == "exact-search":
        return _exact_search(seed, sz)
    if workload == "torus-check":
        return _torus_check(seed, sz)
    raise ValueError(f"unknown workload {workload!r}")


def with_jobs(op: Op, jobs: int) -> Op:
    return replace(op, argv=op.argv + ("--jobs", str(jobs)))


def warmup_op(workload: str, scale: str = "full") -> Op:
    """A fixed, seed-independent op of the workload's kind, run untimed
    at the end of set-up."""
    small = scale == "tiny"
    if workload.startswith("orient-scan"):
        n, edges = (4, grid_edges(2, 2)) if small else (6, grid_edges(2, 3))
        op = _interval_op("warmup.ug", n, edges, 2, 2)
        return with_jobs(op, 2) if workload == "orient-scan-jobs2" else op
    if workload == "exact-search":
        m, n = (3, 3) if small else (5, 5)
        return _gamma_op("warmup.ug", m * n, grid_edges(m, n), False, 2, 2)
    if workload == "torus-check":
        return _torus_op("warmup.pat", BUILTIN_PATTERNS["diag13"], 2, 2, 4 if small else 12)
    raise ValueError(f"unknown workload {workload!r}")


def op_list_sha256(ops: list[Op]) -> str:
    """Digest of everything the program sees, plus the units of work."""
    body = [[list(op.argv), op.file_name, op.file_text, op.units] for op in ops]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()
