"""Input graph model: edge-list ingestion, degree-based similarity weighting,
symmetrization, and brute-force k-NN graph construction from point sets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

# parse_edge_list caps n = 1 + max id at 2 * m + ID_SLACK for m edges, so one
# stray huge id cannot size every per-vertex list of the engines.
ID_SLACK = 2**20


class GraphFormatError(ValueError):
    """Malformed edge-list / point input. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected simple graph with float64 similarity weights.

    Edges are stored once per unordered pair as (u, v, w) with u < v, sorted.
    Larger weight = more similar.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[dict[int, float]]:
        """Per-vertex neighbor -> weight maps."""
        adj: list[dict[int, float]] = [{} for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return adj


def make_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """Normalize (sort endpoints, sort edge list) and validate."""
    normed = tuple(sorted((min(u, v), max(u, v), float(w)) for u, v, w in edges))
    g = WeightedGraph(n, normed)
    validate_graph(g)
    return g


def validate_graph(g: WeightedGraph) -> None:
    """Check the representation invariants; raise ValueError on violation."""
    if g.n < 0:
        raise ValueError("negative vertex count")
    seen: set[tuple[int, int]] = set()
    for u, v, w in g.edges:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={g.n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u > v:
            raise ValueError(f"edge ({u},{v}) not stored with u < v")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight on edge ({u},{v})")


def parse_edge_list(
    source: str | Iterable[str],
    *,
    weighted: bool = True,
    duplicate_policy: str = "error",
) -> WeightedGraph:
    """Parse a whitespace-separated edge list.

    Lines are "u v w" (weighted) or "u v" (unweighted, weight fixed at the
    1.0 placeholder pending reweighting). '#' starts a comment line. Vertex
    ids are non-negative integers; n = 1 + max id, which may not exceed
    2 * m + ID_SLACK (ValueError), so n stays proportional to the input.
    duplicate_policy is "error" or "max" (combine repeated unordered pairs by
    max weight).
    """
    if duplicate_policy not in ("error", "max"):
        raise ValueError(f"unknown duplicate policy {duplicate_policy!r}")
    lines = source.splitlines() if isinstance(source, str) else source
    pairs: dict[tuple[int, int], float] = {}
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        want = 3 if weighted else 2
        if len(fields) != want:
            raise GraphFormatError(
                f"expected {want} fields, got {len(fields)}", lineno
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as e:
            raise GraphFormatError(f"bad vertex id: {e}", lineno) from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative vertex id in ({u},{v})", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop ({u},{u})", lineno)
        if weighted:
            try:
                w = float(fields[2])
            except ValueError:
                raise GraphFormatError(f"bad weight {fields[2]!r}", lineno) from None
            if not math.isfinite(w):
                raise GraphFormatError(f"non-finite weight {fields[2]!r}", lineno)
        else:
            w = 1.0
        key = (min(u, v), max(u, v))
        if key in pairs:
            if duplicate_policy == "error":
                raise GraphFormatError(f"duplicate edge ({u},{v})", lineno)
            pairs[key] = max(pairs[key], w)
        else:
            pairs[key] = w
        max_id = max(max_id, u, v)
    bound = 2 * len(pairs) + ID_SLACK
    if max_id + 1 > bound:
        raise ValueError(
            f"max vertex id {max_id} gives n = {max_id + 1} vertices, above the "
            f"bound 2 * m + {ID_SLACK} = {bound} for m = {len(pairs)} edges"
        )
    return make_graph(max_id + 1, ((u, v, w) for (u, v), w in pairs.items()))


def load_edge_list(path: str | Path, **kwargs) -> WeightedGraph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"), **kwargs)


def write_edge_list(g: WeightedGraph, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for u, v, w in g.edges:
            f.write(f"{u} {v} {w:.17g}\n")


def degree_log_reweight(g: WeightedGraph) -> WeightedGraph:
    """Replace every weight by 1/ln(d(u)+d(v)), the similarity used for
    unweighted inputs. Degrees come from the simple graph, so d(u)+d(v) >= 2
    and the log is always positive. Structure is unchanged."""
    if g.m == 0:
        raise ValueError("cannot reweight a graph with no edges")
    deg = g.degrees()
    return make_graph(
        g.n, ((u, v, 1.0 / math.log(deg[u] + deg[v])) for u, v, _ in g.edges)
    )


def symmetrize(
    directed_edges: Iterable[tuple[int, int, float]], n: int | None = None
) -> tuple[WeightedGraph, int]:
    """Collapse a directed edge multiset into an undirected simple graph.

    Each unordered pair keeps the max weight over all directed copies.
    Self-loops (which k-NN sources may emit) are dropped; their count is
    returned alongside the graph.
    """
    pairs: dict[tuple[int, int], float] = {}
    dropped = 0
    max_id = -1
    for u, v, w in directed_edges:
        max_id = max(max_id, u, v)
        if u == v:
            dropped += 1
            continue
        key = (min(u, v), max(u, v))
        if key in pairs:
            pairs[key] = max(pairs[key], w)
        else:
            pairs[key] = float(w)
    count = max_id + 1 if n is None else n
    return make_graph(count, ((u, v, w) for (u, v), w in pairs.items())), dropped


@dataclass(frozen=True)
class PointSet:
    """d-dimensional points with optional integer class labels."""

    points: np.ndarray  # shape (n, d)
    labels: np.ndarray | None = None  # shape (n,), int

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] < 1:
            raise ValueError("points must be a (n, d) array with d >= 1")
        if self.labels is not None and len(self.labels) != len(self.points):
            raise ValueError("label count must equal point count")

    def __len__(self) -> int:
        return len(self.points)


def load_points_csv(path: str | Path) -> PointSet:
    """One point per row, all-numeric comma-separated columns; a nan or inf
    coordinate is a format error."""
    rows: list[list[float]] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            rows.append([float(x) for x in line.split(",")])
        except ValueError:
            raise GraphFormatError("non-numeric field", lineno) from None
        if not all(map(math.isfinite, rows[-1])):
            raise GraphFormatError("non-finite coordinate", lineno)
        if len(rows[-1]) != len(rows[0]):
            raise GraphFormatError(
                f"dimension mismatch: {len(rows[-1])} vs {len(rows[0])}", lineno
            )
    if not rows:
        raise GraphFormatError("empty point file")
    return PointSet(np.asarray(rows, dtype=float))


def load_labels(path: str | Path) -> np.ndarray:
    """One integer class id per line."""
    out = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise GraphFormatError(f"bad label {line!r}", lineno) from None
    return np.asarray(out, dtype=int)


def inverse_distance_similarity(d: np.ndarray) -> np.ndarray:
    """Default distance -> similarity map s = 1/(1+d), strictly decreasing."""
    return 1.0 / (1.0 + d)


def build_knn_graph(
    points: PointSet | np.ndarray,
    k: int,
    similarity: Callable[[np.ndarray], np.ndarray] = inverse_distance_similarity,
) -> WeightedGraph:
    """Exact brute-force k-NN graph, symmetrized.

    Each point contributes directed edges to its k nearest neighbors by
    Euclidean distance (ties broken by lower point index); the directed graph
    is then symmetrized with the max rule. Distances are computed one row at
    a time by direct differences, sqrt(sum((p_j - p_i)^2)), so d(i, j) and
    d(j, i) are bitwise equal by construction and working memory is O(n d)
    rather than O(n^2). O(n^2 d) time, intended for desk scale.
    """
    pts = points.points if isinstance(points, PointSet) else np.asarray(points, float)
    n = len(pts)
    if n == 0:
        raise ValueError("empty point set")
    if not 1 <= k < n:
        raise ValueError(f"k={k} must satisfy 1 <= k < n={n}")
    directed: list[tuple[int, int, float]] = []
    for i in range(n):
        dist = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        dist[i] = np.inf  # exclude self
        # keep the k closest in (distance, index) order: every point tied
        # with the k-th distance is a candidate, so the tie rule is exact
        kth = np.partition(dist, k - 1)[k - 1]
        cand = np.flatnonzero(dist <= kth)
        order = cand[np.lexsort((cand, dist[cand]))[:k]]
        sims = np.asarray(similarity(dist[order]), dtype=float)
        directed.extend(zip([i] * k, order.tolist(), sims.tolist()))
    g, _dropped = symmetrize(directed, n=n)
    return g
