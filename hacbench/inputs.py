"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed, and the program under test
only sees the files these functions write.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

SPARSE_AVG_DEGREE = 8


def sparse_edges(seed: int, n: int, part: int = 0) -> list[tuple[int, int, float]]:
    """Connected random graph with exactly 4n edges (average degree 8) and
    distinct uniform weights in (0, 1): a random recursive spanning tree
    plus uniformly drawn extra pairs, with vertex ids shuffled. `part`
    draws another graph from the same seed."""
    m = SPARSE_AVG_DEGREE * n // 2
    if n < 2 or not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph with n={n} and m={m}")
    rng = random.Random(f"sparse/{seed}/{part}")
    perm = list(range(n))
    rng.shuffle(perm)
    pairs: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = perm[u], perm[v]
        pairs.add((min(a, b), max(a, b)))
    while len(pairs) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    seen: set[float] = set()
    edges = []
    for a, b in sorted(pairs):
        w = rng.random()
        while w == 0.0 or w in seen:
            w = rng.random()
        seen.add(w)
        edges.append((a, b, w))
    return edges


def star_pairs(seed: int, n: int) -> list[tuple[int, int]]:
    """Unit star on n vertices, each leaf once, lines and endpoint order
    shuffled. The hub id is drawn from the middle tenth of the id range:
    with all weights tied, the global-heap driver's stale pops grow as
    hub * (n - hub), so an id near the middle exercises them fully, and
    keeping it there holds that count within about 1% across seeds."""
    if n < 20:
        raise ValueError("star needs at least 20 vertices")
    rng = random.Random(seed)
    hub = rng.randrange(n * 45 // 100, n * 55 // 100)
    pairs = [(hub, v) if rng.random() < 0.5 else (v, hub) for v in range(n) if v != hub]
    rng.shuffle(pairs)
    return pairs


def blobs(
    seed: int, n: int, clusters: int = 6, dim: int = 8, separation: float = 3.4
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced unit-variance Gaussian blobs around the scaled basis vectors
    separation * e_i, so every pair of centers is equally far apart and only
    the sampled points vary with the seed. Returns (points, labels)."""
    if clusters > dim:
        raise ValueError("basis-vector centers need clusters <= dim")
    rng = np.random.default_rng(random.Random(seed).getrandbits(64))
    labels = np.arange(n) % clusters
    rng.shuffle(labels)
    centers = separation * np.eye(clusters, dim)
    return centers[labels] + rng.standard_normal((n, dim)), labels


def write_weighted(path: Path, edges) -> None:
    path.write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in edges), encoding="utf-8")


def write_pairs(path: Path, pairs) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs), encoding="utf-8")


def write_points(path: Path, points: np.ndarray) -> None:
    path.write_text(
        "".join(",".join(repr(float(x)) for x in row) + "\n" for row in points),
        encoding="utf-8",
    )


def write_labels(path: Path, labels) -> None:
    path.write_text("".join(f"{int(x)}\n" for x in labels), encoding="utf-8")
