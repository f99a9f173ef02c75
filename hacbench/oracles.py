"""Output checks for every benchmark operation.

Each check takes the text an operation wrote and returns a list of problems;
an empty list means the output passed. The checks run outside every timed
region and every traced span. The Kruskal, star and k-NN oracles share no
code with graphhac; the others use its dendrogram parser, `same_clustering`,
`closeness_audit`, `cut_dendrogram`, `ari` and `nmi`, as the reference
suites do.
"""

from __future__ import annotations

import math

import numpy as np

from graphhac.dendrogram import Dendrogram, DendrogramError, parse_dendrogram, same_clustering
from graphhac.evaluation import ari, closeness_audit, cut_dendrogram, nmi
from graphhac.graph import WeightedGraph

REL_TOL = 1e-12
KNN_REL_TOL = 1e-9


def parse(text: str | None) -> tuple[Dendrogram | None, list[str]]:
    """Parse a dendrogram file's text; a missing or malformed file is a problem."""
    if text is None:
        return None, ["no output written"]
    try:
        return parse_dendrogram(text), []
    except DendrogramError as e:
        return None, [f"malformed dendrogram: {e}"]


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def closeness(graph: WeightedGraph, d: Dendrogram, epsilon: float) -> list[str]:
    try:
        rep = closeness_audit(graph, d, epsilon)
    except ValueError as e:
        return [f"closeness replay rejected the trace: {e}"]
    if rep.passed:
        return []
    return [f"merge {rep.worst_step} is {rep.worst_ratio:.6g} of the best (epsilon {epsilon})"]


def agrees(d: Dendrogram, ref: Dendrogram, what: str) -> list[str]:
    return [] if same_clustering(d, ref) else [f"clustering differs from {what}"]


def identical(text: str | None, twin: str | None, what: str) -> list[str]:
    return [] if text is not None and text == twin else [f"file differs from {what}"]


def average_weights(n: int, edges, d: Dendrogram) -> list[str]:
    """Replay the merges on cut sums and check that each recorded weight is
    the merged pair's true average linkage, cut / (|A| |B|), within 1e-9."""
    rows: dict[int, dict[int, float]] = {v: {} for v in range(n)}
    for u, v, w in edges:
        rows[u][v] = rows[v][u] = w
    size = dict.fromkeys(range(n), 1)
    for i, m in enumerate(d.merges):
        a, b = m.left, m.right
        cut = rows.get(a, {}).get(b)
        if cut is None:
            return [f"merge {i} joins non-adjacent or dead clusters {a},{b}"]
        true = cut / (size[a] * size[b])
        if not _close(m.weight, true, 1e-9):
            return [f"merge {i} records weight {m.weight!r}, true average is {true!r}"]
        ra, rb = rows.pop(a), rows.pop(b)
        del ra[b], rb[a]
        if len(ra) > len(rb):
            ra, rb = rb, ra
        for c, x in ra.items():
            rb[c] = rb.get(c, 0.0) + x
        new = n + i
        for c, x in rb.items():
            row = rows[c]
            row.pop(a, None)
            row.pop(b, None)
            row[new] = x
        rows[new] = rb
        size[new] = size.pop(a) + size.pop(b)
    return []


def max_spanning_forest(n: int, edges) -> list[float]:
    """Kruskal on descending weight; the weights of the forest's edges."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for u, v, w in sorted(edges, key=lambda e: -e[2]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append(w)
    return out


def single_linkage_weights(d: Dendrogram, forest: list[float]) -> list[str]:
    """Single-linkage merge heights are exactly the maximum spanning forest's
    edge weights."""
    got = sorted((m.weight for m in d.merges), reverse=True)
    if got != sorted(forest, reverse=True):
        return ["single-linkage merge weights differ from the maximum spanning forest"]
    return []


def star_closed_form(d: Dendrogram, n: int, average: bool) -> list[str]:
    """On a unit star reweighted to w = 1/ln n, merge i joins one leaf to the
    previous merge's cluster (the hub at i = 0) with size i + 2 and weight
    w / (i + 1) under average linkage, w under single linkage."""
    if d.n != n or len(d.merges) != n - 1:
        return [f"expected {n - 1} merges over {n} leaves, got {len(d.merges)} over {d.n}"]
    w = 1.0 / math.log(n)
    for i, m in enumerate(d.merges):
        want = w / (i + 1) if average else w
        if m.size != i + 2:
            return [f"merge {i} has size {m.size}, want {i + 2}"]
        if not _close(m.weight, want):
            return [f"merge {i} has weight {m.weight!r}, want {want!r}"]
        if min(m.left, m.right) >= n or (i > 0 and max(m.left, m.right) != n + i - 1):
            return [f"merge {i} does not add one leaf to the growing cluster"]
    return []


def knn_graph(text: str | None, points: np.ndarray, k: int) -> list[str]:
    """Check a written k-NN edge list against distances computed here by
    direct differences: weights are 1/(1+dist) within 1e-9, every point
    strictly closer than a vertex's k-th distance is its neighbor, every edge
    is within one endpoint's k-th distance, and every vertex has degree >= k.
    Neighbors tied with the k-th distance may be chosen either way."""
    if text is None:
        return ["no output written"]
    n = len(points)
    nbrs: list[dict[int, float]] = [{} for _ in range(n)]
    try:
        for line in text.splitlines():
            u, v, w = line.split()
            nbrs[int(u)][int(v)] = nbrs[int(v)][int(u)] = float(w)
    except (ValueError, IndexError) as e:
        return [f"malformed edge list: {e}"]
    kth = np.empty(n)
    dists = []
    for i in range(n):
        d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        kth[i] = np.partition(d, k - 1)[k - 1]
        dists.append(d)
    for i in range(n):
        d, row = dists[i], nbrs[i]
        if len(row) < k:
            return [f"vertex {i} has degree {len(row)} < k={k}"]
        inside = np.flatnonzero(d < kth[i] * (1 - KNN_REL_TOL))
        missing = [int(j) for j in inside if int(j) not in row]
        if missing:
            return [f"vertex {i} lacks nearer neighbors {missing[:5]}"]
        for j, w in row.items():
            if not (d[j] <= kth[i] * (1 + KNN_REL_TOL) or d[j] <= kth[j] * (1 + KNN_REL_TOL)):
                return [f"edge ({i},{j}) is outside both endpoints' k nearest"]
            if not _close(w, 1.0 / (1.0 + d[j]), KNN_REL_TOL):
                return [f"edge ({i},{j}) weight {w!r} != 1/(1+{d[j]!r})"]
    return []


def parse_report(text: str) -> tuple[list[tuple[int, float, float]], dict[str, tuple[float, int]]]:
    rows, best = [], {}
    for line in text.splitlines()[1:]:
        f = line.split()
        if f[0] in ("best_ari", "best_nmi"):
            best[f[0]] = (float(f[1]), int(f[3]))
        else:
            rows.append((int(f[0]), float(f[1]), float(f[2])))
    return rows, best


def eval_report(text: str | None, d: Dendrogram | None, truth: list[int]) -> list[str]:
    """The report scores every level, its best values are the table maxima,
    and re-cutting the dendrogram at the reported levels reproduces them."""
    if text is None or d is None:
        return ["no report or no dendrogram to score"]
    try:
        rows, best = parse_report(text)
        a, a_at = best["best_ari"]
        m, m_at = best["best_nmi"]
    except (ValueError, IndexError, KeyError) as e:
        return [f"malformed report: {e}"]
    levels = d.n - (d.n - len(d.merges)) + 1
    if len(rows) != levels:
        return [f"report scores {len(rows)} levels, want {levels}"]
    if a != max(r[1] for r in rows) or m != max(r[2] for r in rows):
        return ["reported best is not the table maximum"]
    if ari(cut_dendrogram(d, a_at), truth) != a:
        return [f"ARI at {a_at} clusters does not recompute to {a!r}"]
    if nmi(cut_dendrogram(d, m_at), truth) != m:
        return [f"NMI at {m_at} clusters does not recompute to {m!r}"]
    return []


def iris_quality(text: str | None) -> list[str]:
    """The bundled iris data (k=50, epsilon=0.1) scores ARI 0.759 / NMI 0.806."""
    if text is None:
        return ["no report written"]
    try:
        _rows, best = parse_report(text)
        a, m = best["best_ari"][0], best["best_nmi"][0]
    except (ValueError, IndexError, KeyError) as e:
        return [f"malformed report: {e}"]
    if round(a, 3) != 0.759 or round(m, 3) != 0.806:
        return [f"iris scores ARI {a:.4f} / NMI {m:.4f}, want 0.759 / 0.806"]
    return []
