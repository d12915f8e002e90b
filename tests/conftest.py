"""Shared helpers for the test suite."""

from __future__ import annotations

from collections import deque
from itertools import combinations

import bdom.interval
from bdom import Graph


def is_connected(n: int, edges) -> bool:
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_labeled_graphs(max_n: int) -> list[Graph]:
    """Every connected labeled graph on 1..max_n vertices, edges in
    lexicographic canonical order."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if is_connected(n, edges):
                out.append(Graph(n, edges))
    return out


def reference_bfs(out_adjacency, source: int, horizon: int) -> dict[int, int]:
    """Reference dict-BFS: directed distances from source strictly below
    horizon, the kernel the cover tables replaced."""
    dist = {source: 0}
    if horizon <= 1:
        return dist
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du + 1 >= horizon:
            continue
        for w in out_adjacency[u]:
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


def pool_spy(monkeypatch, per_worker=1):
    """Report 2 CPUs, start the Pool from per_worker minima per worker,
    and record the size of every Pool opened."""
    opened = []
    real_pool = bdom.interval.Pool

    def spy(processes):
        opened.append(processes)
        return real_pool(processes=processes)

    monkeypatch.setattr(bdom.interval.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(bdom.interval, "MIN_MINIMA_PER_WORKER", per_worker)
    monkeypatch.setattr(bdom.interval, "Pool", spy)
    return opened
