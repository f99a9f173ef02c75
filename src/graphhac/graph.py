"""Input graph model: edge-list ingestion, degree-based similarity weighting,
symmetrization, and brute-force k-NN graph construction from point sets."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

# parse_edge_list caps n = 1 + max id at 2 * m + ID_SLACK for m edges, so one
# stray huge id cannot size every per-vertex list of the engines.
ID_SLACK = 2**20

# build_knn_graph works a block of rows at a time; a block's (rows, n) float64
# Gram-form distances hold at most this many bytes (at least one row), and its
# candidates are verified in chunks whose two (chunk, d) float64 arrays, the
# gathered p_j and p_i, fit in it together.
# Large enough to amortize the per-block numpy calls, small enough to stay in
# cache and to keep peak RSS low (512 KiB raised the benchmark's peak RSS by
# 0.4-1 MiB when blocks were (rows, n, d) differences; not re-measured since).
KNN_BLOCK_BYTES = 2**18


class GraphFormatError(ValueError):
    """Malformed edge-list, point or label input, or an input file that is
    not UTF-8. Carries a 1-based line number when known."""

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
    u, v, w = zip(*g.edges) if g.edges else ((), (), ())
    # ids beyond int64 turn the id arrays to float or object; any such id
    # is out of range, and that rule is checked first
    _check_edges(g.n, np.array(u), np.array(v), np.array(w, float))


def _check_edges(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """The graph rules on edge arrays, for `validate_graph` and for graphs
    built from arrays (the k-NN build, `symmetrize` and parsing): ids in
    [0, n), u < v, pairs strictly increasing, finite weights. Raises for the
    first rule broken, naming its first offending edge."""
    if n < 0:
        raise ValueError("negative vertex count")
    same_u = np.r_[False, u[1:] == u[:-1]]
    prev_v = np.r_[v[:1], v[:-1]]
    rules = (
        ((u < 0) | (v < 0) | (u >= n) | (v >= n), f"edge ({{}},{{}}) out of range for n={n}"),
        (u == v, "self-loop at vertex {}"),
        (u > v, "edge ({},{}) not stored with u < v"),
        (same_u & (v == prev_v), "duplicate edge ({},{})"),
        (np.r_[False, u[1:] < u[:-1]] | (same_u & (v < prev_v)), "edge ({},{}) out of sorted order"),
        (~np.isfinite(w), "non-finite weight on edge ({},{})"),
    )
    for bad, message in rules:
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(message.format(u[i], v[i]))


def parse_edge_list(
    source: str | Iterable[str],
    *,
    weighted: bool = True,
    duplicate_policy: str = "error",
) -> WeightedGraph:
    """Parse a whitespace-separated edge list.

    Lines are "u v w" (weighted) or "u v" (unweighted, weight fixed at the
    1.0 placeholder pending reweighting). A line whose first token starts
    with '#' is a comment. Vertex ids are non-negative ASCII decimal
    integers and weights ASCII decimal floats (a sign, an exponent, inf and
    nan are read as `int` and `float` read them; a token holding `_` or any
    non-ASCII character is rejected). n = 1 + max id, which may not exceed
    2 * m + ID_SLACK (ValueError), so n stays proportional to the input.
    duplicate_policy is "error" or "max" (combine repeated unordered pairs by
    max weight; on equal weights, 0.0 and -0.0, the first line's wins).

    Two paths. The bulk path drops comment and blank lines and reads the
    rest with one `np.loadtxt` call, numpy's C reader, into a structured
    array of int64 ids and float64 weights. That reader splits on the
    whitespace `str.split` splits on, checks every row's field count, and
    accepts exactly the tokens `int` and `float` accept under the ASCII rule
    above, with equal values (numpy < 2 also reads an id such as 1.5 through
    float with a DeprecationWarning, which the bulk path turns into a
    rejection); `_symmetrize_arrays` then sorts, merges
    duplicates and checks the rules. Where the bulk path rejects the input,
    for any reason, `_edge_list_error` reads the same lines one at a time and
    raises the first error in line order, with its line number: the bulk
    path never names an error itself. A str `source` is split with
    `str.splitlines`; an iterable `source` is read once, and each of its
    items is split the same way, so an item may end in a line break.
    """
    if duplicate_policy not in ("error", "max"):
        raise ValueError(f"unknown duplicate policy {duplicate_policy!r}")
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line for item in source for line in item.splitlines()]
    try:
        g = _parse_bulk(lines, weighted, duplicate_policy == "error")
    except ValueError:  # a bad token, a bad row or a negative id
        g = None
    if g is None:
        _edge_list_error(lines, weighted, duplicate_policy)
    return g


def _parse_bulk(lines: list[str], weighted: bool, strict: bool) -> WeightedGraph | None:
    """parse_edge_list's bulk path. Returns None, or raises ValueError, for
    any input that breaks a rule; `strict` forbids duplicate pairs."""
    fields = [("u", np.int64), ("v", np.int64)] + [("w", np.float64)] * weighted
    # a generator, since a list of the data lines raised the peak memory;
    # loadtxt warns on input with no data line
    data = (line for line in lines if line.lstrip()[:1] not in ("", "#"))
    first = next(data, None)
    if first is None:
        rows = np.zeros(0, fields)
    else:
        with warnings.catch_warnings():
            # numpy < 2 reads an int64 field such as 1.5 or 1e3 through
            # float and truncates it, with only a DeprecationWarning; as an
            # error, it rejects the file like any other bad token
            warnings.simplefilter("error", DeprecationWarning)
            try:
                rows = np.loadtxt(chain((first,), data), dtype=fields, comments=None, ndmin=1)
            except DeprecationWarning:
                return None
    m = len(rows)
    u, v = rows["u"], rows["v"]
    w = rows["w"] if weighted else np.ones(m)
    # before the merge: under "max" a -inf beside a finite copy would vanish
    if not np.isfinite(w).all():
        return None
    n = int(max(u.max(), v.max())) + 1 if m else 0
    # _check_edges raises for negative ids
    g, loops = _symmetrize_arrays(n, u, v, w)
    if loops or strict and g.m < m or n > 2 * g.m + ID_SLACK:
        return None
    return g


def _ascii_number(convert: type, token: str) -> int | float:
    """`convert(token)`, `int` or `float`, for a token of ASCII characters
    without `_`, the tokens the bulk path's reader can accept; any other
    token raises ValueError. `int` and `float` alone would also read digit
    groups such as 1_0 and non-ASCII digits, which the reader rejects."""
    if token.isascii() and "_" not in token:
        return convert(token)
    raise ValueError(f"{token!r} holds '_' or a non-ASCII character")


def _edge_list_error(lines: list[str], weighted: bool, duplicate_policy: str) -> NoReturn:
    """Raise the first error of an edge list that the bulk path rejected:
    the line loop that names every GraphFormatError with its line, then
    the ValueError of the vertex-id bound."""
    want = 3 if weighted else 2
    pairs: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != want:
            raise GraphFormatError(
                f"expected {want} fields, got {len(fields)}", lineno
            )
        try:
            u, v = _ascii_number(int, fields[0]), _ascii_number(int, fields[1])
        except ValueError as e:
            raise GraphFormatError(f"bad vertex id: {e}", lineno) from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative vertex id in ({u},{v})", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop ({u},{u})", lineno)
        if weighted:
            try:
                w = _ascii_number(float, fields[2])
            except ValueError:
                raise GraphFormatError(f"bad weight {fields[2]!r}", lineno) from None
            if not math.isfinite(w):
                raise GraphFormatError(f"non-finite weight {fields[2]!r}", lineno)
        key = (min(u, v), max(u, v))
        if key in pairs and duplicate_policy == "error":
            raise GraphFormatError(f"duplicate edge ({u},{v})", lineno)
        pairs.add(key)
        max_id = max(max_id, u, v)
    bound = 2 * len(pairs) + ID_SLACK
    if max_id + 1 > bound:
        raise ValueError(
            f"max vertex id {max_id} gives n = {max_id + 1} vertices, above the "
            f"bound 2 * m + {ID_SLACK} = {bound} for m = {len(pairs)} edges"
        )
    raise AssertionError("the bulk parse rejected an edge list that breaks no rule")


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; one that is not UTF-8 raises
    GraphFormatError naming the path. Every loader reads through it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise GraphFormatError(f"{path}: {e}") from None


def load_edge_list(path: str | Path, **kwargs) -> WeightedGraph:
    return parse_edge_list(read_text(path), **kwargs)


def write_edge_list(g: WeightedGraph, path: str | Path) -> None:
    """One "u v w" line per edge, w as %.17g, which round-trips every float."""
    text = ("%d %d %.17g\n" * g.m) % tuple(chain.from_iterable(g.edges))
    Path(path).write_text(text, encoding="utf-8")


def degree_log_reweight(g: WeightedGraph) -> WeightedGraph:
    """Replace every weight by 1/ln(d(u)+d(v)), the similarity used for
    unweighted inputs. Degrees come from the simple graph, so d(u)+d(v) >= 2
    and the log is always positive. Structure and edge order are unchanged,
    so `g` must be valid (as every WeightedGraph built here is) and is not
    checked again; `math.log` runs once per distinct degree sum."""
    if g.m == 0:
        raise ValueError("cannot reweight a graph with no edges")
    deg = g.degrees()
    sums = [deg[u] + deg[v] for u, v, _ in g.edges]
    log = {s: math.log(s) for s in set(sums)}
    # one float object per edge: naive_avg_hac ran about 3% slower on a star
    # whose edges all shared one
    edges = tuple((u, v, 1.0 / log[s]) for (u, v, _), s in zip(g.edges, sums))
    return WeightedGraph(g.n, edges)


def symmetrize(
    directed_edges: Iterable[tuple[int, int, float]], n: int | None = None
) -> tuple[WeightedGraph, int]:
    """Collapse a directed edge multiset into an undirected simple graph.

    Each unordered pair keeps the max weight over all directed copies.
    Self-loops (which k-NN sources may emit) are dropped; their count is
    returned alongside the graph. n defaults to 1 + the largest id seen,
    self-loops included.
    """
    edges = list(directed_edges)
    if any(len(e) != 3 for e in edges):
        raise ValueError("every directed edge must be a (u, v, w) triple")
    if edges:
        u, v, w = (np.array(col) for col in zip(*edges))
    else:
        u, v, w = np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    if u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
        raise ValueError("vertex ids must be integers")
    if n is None:
        n = int(max(u.max(), v.max())) + 1 if len(u) else 0
    return _symmetrize_arrays(n, u.astype(np.int64), v.astype(np.int64), w.astype(float))


def _symmetrize_arrays(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[WeightedGraph, int]:
    """symmetrize on arrays of directed edges: canonical (min, max) pairs,
    one stable lexsort, and the max of each run of equal pairs. Max is
    exact, so every weight is one of the input weights; as with Python's
    `max`, the first maximal copy in input order wins, which only tells
    0.0 and -0.0 apart."""
    loop = u == v
    a, b, w = np.minimum(u, v)[~loop], np.maximum(u, v)[~loop], w[~loop]
    order = np.lexsort((b, a))
    a, b, w = a[order], b[order], w[order]
    if len(a):
        starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        a, b, top = a[starts], b[starts], np.maximum.reduceat(w, starts)
        zero = top == 0  # np.maximum may keep any zero of a +-0.0 tie
        if zero.any():
            first = np.minimum.reduceat(np.where(w == 0, np.arange(len(w)), len(w)), starts)
            top[zero] = w[first[zero]]
        w = top
    _check_edges(n, a, b, w)
    edges = tuple(zip(a.tolist(), b.tolist(), w.tolist()))
    return WeightedGraph(n, edges), int(np.count_nonzero(loop))


@dataclass(frozen=True)
class PointSet:
    """n d-dimensional points; class labels load separately (`load_labels`)."""

    points: np.ndarray  # shape (n, d)

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] < 1:
            raise ValueError("points must be a (n, d) array with d >= 1")

    def __len__(self) -> int:
        return len(self.points)


def load_points_csv(path: str | Path) -> PointSet:
    """One point per row, all-numeric comma-separated columns; a nan or inf
    coordinate is a format error. Every field goes through `float` in one
    pass; where that rejects the file, `_points_error` names the line."""
    lines = read_text(path).splitlines()
    rows = [line.split(",") for line in map(str.strip, lines) if line]
    if len(set(map(len, rows))) == 1:
        try:
            pts = np.fromiter(map(float, chain.from_iterable(rows)), float)
        except ValueError:
            pass
        else:
            if np.isfinite(pts).all():
                return PointSet(pts.reshape(len(rows), -1))
    _points_error(lines)


def _points_error(lines: list[str]) -> NoReturn:
    """Raise the first error of a point file that load_points_csv rejected,
    by reading it one line at a time."""
    dim = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError:
            raise GraphFormatError("non-numeric field", lineno) from None
        if not all(map(math.isfinite, row)):
            raise GraphFormatError("non-finite coordinate", lineno)
        dim = dim or len(row)
        if len(row) != dim:
            raise GraphFormatError(f"dimension mismatch: {len(row)} vs {dim}", lineno)
    if dim is None:
        raise GraphFormatError("empty point file")
    raise AssertionError("load_points_csv rejected a point file that breaks no rule")


def load_labels(path: str | Path) -> np.ndarray:
    """One integer class id per line."""
    out = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise GraphFormatError(f"bad label {line!r}", lineno) from None
    return np.asarray(out, dtype=int)


def _gram_block(ct: np.ndarray, s: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Gram-form squared distances s_i + s_j - 2 c_i.c_j from the centred
    points i0..i1 to every centred point, as a (rows, n) array. `ct` holds
    the centred points as contiguous columns, and s their squared norms.
    numpy's own einsum loops compute the dot products: a BLAS call would be
    faster for large blocks, but its first call maps the library's kernels
    and buffers, which raised the peak RSS of a run clustering iris by about
    0.4 MiB."""
    g = np.einsum("ki,kj->ij", ct[:, i0:i1], ct)
    g *= -2.0
    g += s
    g += s[i0:i1, None]
    return g


def build_knn_graph(points: PointSet | np.ndarray, k: int) -> WeightedGraph:
    """Exact brute-force k-NN graph, symmetrized.

    Each point contributes directed edges to its k nearest neighbors by
    Euclidean distance (ties broken by lower point index), weighted by the
    similarity 1/(1+d), which strictly decreases with the distance d; the
    directed graph is then symmetrized with the max rule. Every distance is
    computed by direct differences, sqrt(sum((p_j - p_i)^2)), summed over
    the contiguous last axis of a (pairs, d) array, so each one, d(i, j) ==
    d(j, i) included, is bitwise the same however the pairs are grouped.
    O(n^2 d) time, intended for desk scale. A non-finite coordinate, or a
    distance that overflows to inf, raises ValueError.

    Filter, then verify. Only the pairs that can be among a row's k nearest
    get a direct distance. The points are first centred, c_i = fl(p_i - m)
    for the computed mean m, because the Gram form's rounding error grows
    with the squared norms s_i = |c_i|^2: centring keeps them near the
    spread of the data rather than its offset from the origin. For a block
    of rows, G_ij = s_i + s_j - 2 c_i.c_j (`_gram_block`) approximates the
    exact squared distance D_ij = |p_i - p_j|^2. Let T_i be row i's k-th
    smallest G_ij (j != i), u = 2^-53 the unit roundoff, eta the smallest
    subnormal, S = max_j s_j and
        e_i = 2 (d + 4) (u (s_i + S) + eta).
    Row i keeps every j != i with G_ij <= T_i + 8 e_i, verifies those by the
    direct form, and takes its k smallest by (distance, index).

    Why no neighbor is lost (to first order in u; Higham, Accuracy and
    Stability of Numerical Algorithms, gamma_n = n u / (1 - n u)):
    (1) |G_ij - D_ij| <= e_i, whatever order the norms and dot products are
        summed in, with or without fused multiply-adds, so the bound holds
        for numpy's loops, any BLAS kernel and any thread split. Centring
        moves each c_i by at most u |c_i|, which moves D_ij by at most about
        4 u (s_i + s_j). The two squared norms and the dot product carry
        gamma_d relative to s_i, s_j and |c_i| |c_j| <= (s_i + s_j) / 2, the
        scaling by -2 is exact, and the two additions, each of a value at
        most 2 (s_i + s_j), add 4 u (s_i + s_j). That totals (2 d + 8) u
        (s_i + s_j) <= e_i. A product that underflows adds at most eta / 2,
        2 d eta in all with the doubled dot product, which the eta term
        covers.
    (2) The direct form returns d(i, j)^2 = D_ij (1 + theta), |theta| <=
        gamma_(d+4) (difference, square, d-term sum, square root), plus
        d eta / 2 of underflow. So d(i, j) <= d(i, l) implies D_ij <= D_il
        (1 + 2 (d + 4) u) + d eta.
    (3) Let K be the k points j != i of smallest G_ij. Each l in K has D_il
        <= T_i + e_i by (1), and T_i <= 2 (s_i + S). Each of the true k
        nearest is no farther than some l in K, as K holds k points, so by
        (2) it has D_ij <= T_i + 3 e_i and by (1) G_ij <= T_i + 4 e_i.
    The window 8 e_i is twice that bound. The factor 2 absorbs the second-
    order terms and the roundings in forming e_i and T_i + 8 e_i, and it
    keeps the filter exact under a further error of up to e_i in every G_ij
    (the same steps then give 6 e_i). Over-estimating the window only
    admits more candidates.

    Overflow. If 8 S <= the largest float, nothing overflows: |p_i - p_j|
    <= (|c_i| + |c_j|) (1 + u) <= 2 sqrt(S) (1 + u), and |G_ij| <= 4 S to
    first order, so every intermediate of G and of a direct distance stays
    below about half the largest float. Where that certificate fails (S is
    inf or nan, or coordinates reach about 1e153), the filter is skipped:
    every j != i is a candidate, verified by the same direct form, which
    raises on the first overflowing distance in row order, and selected by
    the same code. That is the only other path.

    Memory. A block's (rows, n) Gram values stay within KNN_BLOCK_BYTES, and
    its candidates are verified in chunks whose gathered (chunk, d) arrays
    stay within it too, so a filter that passes whole clusters (offset
    clusters, whose large s_i widen the window) and the unfiltered path
    both work in O(KNN_BLOCK_BYTES) memory plus O(n k) for the chosen
    edges, never O(n^2).
    """
    pts = np.asarray(points.points if isinstance(points, PointSet) else points, float)
    n, d = pts.shape
    if n == 0:
        raise ValueError("empty point set")
    if not 1 <= k < n:
        raise ValueError(f"k={k} must satisfy 1 <= k < n={n}")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite coordinate")
    with np.errstate(over="ignore", invalid="ignore"):
        ct = (pts - pts.mean(axis=0)).T.copy()
        s = np.einsum("ij,ij->j", ct, ct)
    smax = s.max()
    certified = smax <= np.finfo(float).max / 8  # False for inf and nan
    u, eta = np.finfo(float).eps / 2, np.finfo(float).smallest_subnormal
    window = 8 * 2 * (d + 4) * (u * (s + smax) + eta)  # 8 e_i
    rows = max(1, KNN_BLOCK_BYTES // (8 * n))
    chunk = max(1, KNN_BLOCK_BYTES // (16 * d))
    nbr = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        r = np.arange(i1 - i0)
        if certified:
            g = _gram_block(ct, s, i0, i1)
            g[r, r + i0] = np.inf  # exclude self
            keep = g <= (np.partition(g, k - 1, axis=1)[:, k - 1] + window[i0:i1])[:, None]
            del g  # free the block before the candidates' arrays are made
        else:
            keep = np.ones((i1 - i0, n), dtype=bool)
            keep[r, r + i0] = False
        cnt = keep.sum(axis=1)  # at least k in every row
        j = np.flatnonzero(keep) % n  # row-major, so each row's j ascend
        i = np.repeat(r + i0, cnt)
        dd = np.empty(len(j))
        for c0 in range(0, len(j), chunk):
            c1 = c0 + chunk
            with np.errstate(over="ignore"):
                diff = pts.take(j[c0:c1], axis=0)
                diff -= pts.take(i[c0:c1], axis=0)
                np.square(diff, out=diff)
            dd[c0:c1] = np.sqrt(diff.sum(axis=-1))
            if not np.isfinite(dd[c0:c1]).all():
                t = c0 + int(np.argmin(np.isfinite(dd[c0:c1])))
                raise ValueError(f"distance between points {i[t]} and {j[t]} overflows to inf")
        # each row's k closest in (distance, index) order: pad the rows'
        # candidates with inf, then a stable sort by distance keeps ascending
        # j among equal distances
        pad = np.full((i1 - i0, cnt.max()), np.inf)
        pad[np.arange(pad.shape[1]) < cnt[:, None]] = dd
        first = np.cumsum(cnt) - cnt
        pick = first[:, None] + np.argsort(pad, axis=1, kind="stable")[:, :k]
        nbr[i0:i1], dist[i0:i1] = j[pick], dd[pick]
    sims = 1.0 / (1.0 + dist.ravel())
    return _symmetrize_arrays(n, np.repeat(np.arange(n), k), nbr.ravel(), sims)[0]
