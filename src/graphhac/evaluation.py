"""Dendrogram flattening, partition quality scores, and the merge-trace
closeness audit."""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .dendrogram import Dendrogram, Merge
from .graph import WeightedGraph


def _strongest_first(n: int, merges: Sequence[Merge]) -> list[int]:
    """Merge indices by descending effective weight, stable on the recorded
    order: a level with k clusters keeps the first n - k of them.

    A merge's effective weight is the least weight in its subtree (scipy's
    `maxdists` closure), so no merge precedes its children and every prefix
    is a tree level. On a monotone tree it is the merge's own weight."""
    eff: list[float] = []
    for m in merges:
        w = m.weight
        for side in (m.left, m.right):
            if side >= n:
                w = min(w, eff[side - n])
        eff.append(w)
    return sorted(range(len(merges)), key=lambda i: -eff[i])


def cut_dendrogram(d: Dendrogram, target_clusters: int) -> list[int]:
    """Flatten to exactly `target_clusters` groups by undoing merges from the
    weakest upward: the first n - target merges in `_strongest_first` order
    are kept. On a monotone tree these are the strongest (stable on the
    recorded order, so for greedy-ordered dendrograms exactly the first
    n - target merges); a merge stronger than one below it ranks with its
    weakest descendant, so every valid dendrogram has every level from its
    component count to n. Labels are 0-based, contiguous, assigned in order
    of each group's first leaf."""
    n = d.n
    if not 1 <= target_clusters <= n:
        raise ValueError(f"target_clusters {target_clusters} outside [1, {n}]")
    keep = n - target_clusters
    if keep > len(d.merges):
        raise ValueError(
            f"cannot form {target_clusters} clusters: input has "
            f"{n - len(d.merges)} components"
        )
    parent = list(range(n + len(d.merges)))
    for i in _strongest_first(n, d.merges)[:keep]:
        m = d.merges[i]
        parent[m.left] = parent[m.right] = n + i

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    labels = [0] * n
    seen: dict[int, int] = {}
    for leaf in range(n):
        root = find(leaf)
        labels[leaf] = seen.setdefault(root, len(seen))
    return labels


def _comb2(x: int) -> float:
    return x * (x - 1) / 2.0


def _ari_from_pairs(index: float, sum_a: float, sum_b: float, total: float) -> float:
    """ARI from its pair counts: same-cell pairs, same-cluster pairs in each
    partition, and all pairs."""
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:  # both partitions trivial, hence identical
        return 1.0
    return (index - expected) / (max_index - expected)


def ari(a: Sequence[int], b: Sequence[int]) -> float:
    """Adjusted Rand index via the pair-counting contingency table.

    1.0 iff the partitions are identical up to label permutation; 0 expected
    for independent random partitions; symmetric."""
    if len(a) != len(b):
        raise ValueError(f"label length mismatch: {len(a)} vs {len(b)}")
    index = sum(_comb2(c) for c in Counter(zip(a, b)).values())
    sum_a = sum(_comb2(c) for c in Counter(a).values())
    sum_b = sum(_comb2(c) for c in Counter(b).values())
    return _ari_from_pairs(index, sum_a, sum_b, _comb2(len(a)))


def _entropy_term(c: int, n: int) -> float:
    return (c / n) * math.log(c / n)


def _info_term(c: int, n: int, size_a: int, size_b: int) -> float:
    return (c / n) * math.log(n * c / (size_a * size_b))


def _nmi_from_sums(h_a: float, h_b: float, info: float) -> float:
    denom = (h_a + h_b) / 2.0
    if denom == 0.0:
        return 0.0
    return min(1.0, max(0.0, info / denom))


def nmi(a: Sequence[int], b: Sequence[int]) -> float:
    """Mutual information normalized by the arithmetic mean of the two label
    entropies; 0 by convention when both entropies vanish. In [0, 1].

    Each sum is `math.fsum`, correctly rounded, so the result does not
    depend on the order of the labels."""
    if len(a) != len(b):
        raise ValueError(f"label length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    ca, cb = Counter(a), Counter(b)
    h_a = -math.fsum(_entropy_term(c, n) for c in ca.values())
    h_b = -math.fsum(_entropy_term(c, n) for c in cb.values())
    info = math.fsum(
        _info_term(c, n, ca[x], cb[y]) for (x, y), c in Counter(zip(a, b)).items()
    )
    return _nmi_from_sums(h_a, h_b, info)


# Every finite double is a multiple of 2**-1074, so a sum of doubles scaled
# by 2**1074 is an exact int, and int / int rounds correctly: the same double
# `math.fsum` returns for those terms.
_EXP = 1074
_ONE = 1 << _EXP


def _exact(x: float) -> int:
    num, den = x.as_integer_ratio()
    return num << (_EXP + 1 - den.bit_length())


@dataclass(frozen=True)
class LevelScores:
    best_ari: float
    best_ari_at: int
    best_nmi: float
    best_nmi_at: int
    table: tuple[tuple[int, float, float], ...]  # (clusters, ari, nmi)


def best_level_scores(
    d: Dendrogram,
    ground_truth: Sequence[int],
    levels: Sequence[int] | None = None,
) -> LevelScores:
    """Score every tree level (cluster count) against the ground truth and
    report the maxima (the first, i.e. fewest clusters, on ties). `levels`
    restricts the report to a sampled subset.

    One sweep applies the merges in `cut_dendrogram`'s order, where each
    merge comes after its children. Per node it keeps the size, truth-class
    counts and exact info sum of its cluster; merge i folds its children's
    into node n + i, the smaller count map into the larger, and updates the
    ARI pair counts and the exact NMI sums: O(n log n + n*C) for C truth
    classes. Every row equals `ari` / `nmi` of `cut_dendrogram` at that
    level, bit for bit."""
    n = d.n
    if len(ground_truth) != n:
        raise ValueError(f"expected {n} labels, got {len(ground_truth)}")
    merges = d.merges
    n_components = n - len(merges)
    ks = range(n_components, n + 1) if levels is None else sorted(set(levels))
    if ks and (ks[0] < max(n_components, 1) or ks[-1] > n):
        raise ValueError("sampled level outside the valid cluster counts")
    wanted = set(ks)

    class_size = Counter(ground_truth)
    sum_b = float(sum(c * (c - 1) // 2 for c in class_size.values()))
    h_b = -math.fsum(_entropy_term(c, n) for c in class_size.values())
    total = _comb2(n)

    def entropy_of(size: int) -> int:
        return _exact(_entropy_term(size, n))

    # Per node: size, truth-class counts and exact info sum of its cluster;
    # merge nodes are filled when their merge is applied.
    size = [1] * n + [0] * len(merges)
    counts: list[dict | None] = [{y: 1} for y in ground_truth] + [None] * len(merges)
    info = [_exact(_info_term(1, n, 1, class_size[y])) for y in ground_truth]
    info += [0] * len(merges)
    same_cell = same_cluster = 0  # pair counts
    entropy_sum = n * entropy_of(1)
    info_sum = sum(info)

    rows: dict[int, tuple[float, float]] = {}

    def score(k: int) -> None:
        rows[k] = (
            _ari_from_pairs(float(same_cell), float(same_cluster), sum_b, total),
            _nmi_from_sums(-(entropy_sum / _ONE), h_b, info_sum / _ONE),
        )

    if n in wanted:
        score(n)
    for k, i in zip(range(n - 1, -1, -1), _strongest_first(n, merges)):
        l, r = merges[i].left, merges[i].right
        big, small = counts[l], counts[r]
        if len(big) < len(small):
            big, small = small, big
        for y, c in small.items():
            held = big.get(y, 0)
            same_cell += held * c
            big[y] = held + c
        same_cluster += size[l] * size[r]
        merged = size[l] + size[r]
        entropy_sum += entropy_of(merged) - entropy_of(size[l]) - entropy_of(size[r])
        new_info = sum(
            _exact(_info_term(c, n, merged, class_size[y])) for y, c in big.items()
        )
        info_sum += new_info - info[l] - info[r]
        size[n + i], counts[n + i], info[n + i] = merged, big, new_info
        if k in wanted:
            score(k)

    table = tuple((k, *rows[k]) for k in ks)
    best_a, best_a_at, best_n, best_n_at = -math.inf, 0, -math.inf, 0
    for k, a, m in table:
        if a > best_a:
            best_a, best_a_at = a, k
        if m > best_n:
            best_n, best_n_at = m, k
    return LevelScores(best_a, best_a_at, best_n, best_n_at, table)


@dataclass(frozen=True)
class ClosenessReport:
    passed: bool
    worst_ratio: float
    worst_step: int
    merges: int


def closeness_audit(
    graph: WeightedGraph, d: Dendrogram, epsilon: float
) -> ClosenessReport:
    """Replay a merge trace on an exact quadratic simulator and check that
    every merged edge's true weight was >= (1-epsilon) times the true current
    maximum at that step (with 1e-9 absolute slack)."""
    n = graph.n
    if d.n != n:
        raise ValueError("trace leaf count does not match the graph")
    adj: dict[int, dict[int, float]] = {v: {} for v in range(n)}
    size = {v: 1 for v in range(n)}
    for u, v, w in graph.edges:
        adj[u][v] = w
        adj[v][u] = w
    heap: list[tuple[float, int, int]] = [(-w, u, v) for u, v, w in graph.edges]
    heapq.heapify(heap)

    def current_max() -> float:
        while heap:
            nw, u, v = heap[0]
            if u in adj and v in adj.get(u, {}) and (
                adj[u][v] / (size[u] * size[v]) == -nw
            ):
                return -nw
            heapq.heappop(heap)
        return -math.inf

    worst, worst_step = math.inf, -1
    for i, m in enumerate(d.merges):
        l, r = m.left, m.right
        if l not in adj or r not in adj:
            raise ValueError(f"merge {i} references a dead or unknown cluster")
        if r not in adj[l]:
            raise ValueError(f"merge {i} joins non-adjacent clusters {l},{r}")
        w_merged = adj[l][r] / (size[l] * size[r])
        w_max = current_max()
        ratio = 1.0 if w_max == -math.inf else w_merged / w_max
        if ratio < worst:
            worst, worst_step = ratio, i
        new = n + i
        size[new] = size.pop(l) + size.pop(r)
        row_l, row_r = adj.pop(l), adj.pop(r)
        del row_l[r], row_r[l]
        merged_row: dict[int, float] = {}
        for c, cs in row_l.items():
            del adj[c][l]
            merged_row[c] = cs
        for c, cs in row_r.items():
            del adj[c][r]
            merged_row[c] = merged_row.get(c, 0.0) + cs
        adj[new] = merged_row
        ns = size[new]
        for c, cs in merged_row.items():
            adj[c][new] = cs
            heapq.heappush(heap, (-(cs / (ns * size[c])), new, c))
    passed = worst >= (1.0 - epsilon) - 1e-9
    return ClosenessReport(passed, worst, worst_step, len(d.merges))
