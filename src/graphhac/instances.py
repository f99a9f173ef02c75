"""Synthetic test and benchmark instances."""

from __future__ import annotations

import random

from .graph import WeightedGraph, make_graph


def star_graph(n: int) -> WeightedGraph:
    """Center 0 joined to the n-1 leaves, every edge of weight 1. The worst
    case for eager average-linkage updates."""
    if n < 1:
        raise ValueError("star needs at least one vertex")
    return make_graph(n, ((0, i, 1.0) for i in range(1, n)))


def random_connected_graph(
    seed: int,
    n: int | None = None,
    max_n: int = 64,
    max_m: int = 256,
    *,
    m: int | None = None,
) -> WeightedGraph:
    """Connected graph with i.i.d. uniform weights, guaranteed free of exact
    weight ties. A random spanning tree plus random extra edges: exactly `m`
    edges when given, else a uniform draw between n - 1 and max_m."""
    rng = random.Random(seed)
    if n is None:
        n = rng.randint(4, max_n)
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    if m is not None:
        if not n - 1 <= m <= n * (n - 1) // 2:
            raise ValueError(f"m={m} is outside [n-1, n(n-1)/2] for n={n}")
        target_m = m
    else:
        cap = min(max_m, n * (n - 1) // 2)
        target_m = rng.randint(len(edges), cap) if cap > len(edges) else len(edges)
    while len(edges) < target_m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    weights: set[float] = set()
    out = []
    for u, v in sorted(edges):
        w = rng.random()
        while w in weights:
            w = rng.random()
        weights.add(w)
        out.append((u, v, w))
    return make_graph(n, out)


def random_sparse_graph(seed: int, n: int) -> WeightedGraph:
    """Connected sparse benchmark instance of average degree 8: 4n edges (at
    least a spanning tree, at most the complete graph)."""
    target_m = min(4 * n, n * (n - 1) // 2)
    return random_connected_graph(seed, n=n, m=max(target_m, n - 1))
