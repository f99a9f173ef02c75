"""Average-linkage (UPGMA) engines.

All three engines keep the raw cut sum of every live cluster edge in
per-cluster neighbor -> cut maps written on both endpoints (naive in its
own `adj`, the heap engines in `_AvgState.cut`). A merge adds the folded
cluster's map into the survivor's, since cut(A+B, C) = cut(A, C) +
cut(B, C), so the true similarity cut/( |A| * |B| ) is always a pure
function of current sizes. Neighbor-heap priorities store cut/|B| for the
entry of B in heap(A); the owner's 1/|A| factor is applied only when a
weight is extracted, which keeps an owner's own growth from invalidating
its stored priorities. Since sizes enter the weight, two old priorities do
not combine into a merged one, so no merge unions heaps: a merge either
moves the folded cluster's entries one by one (`_AvgState.merge_structural`)
or, when approx rebuilds the survivor right after, folds only the cut rows
and lets the rebuild build the survivor's heap once (`_AvgState.fold_rows`).

* naive_avg_hac: the eager baseline. After every merge it recomputes the
  weight of every edge incident to the merged cluster and requeues it; the
  global queue is validated on pop by exact recomputation. Quadratic on
  dense-degree inputs by design. It is the oracle for the other two on
  distinct weights only: on tied weights its global heap orders tied merges
  differently from the chain driver, and UPGMA's dendrogram then depends on
  that order, so tied inputs are checked against an eager refresh instead
  (`test_exact_validation_on_ties`).
* exact_avg_hac: the chain loop shared with `chain_hac`
  (`engine._chain_loop`) with validation on extraction and nothing else.
  A merge writes true values where it changes a cut sum and carries upper
  bounds everywhere else; the loop's `best` callback rewrites stale tops
  until the top is true. This departs from the paper, which keeps a
  low-outdegree edge orientation so that a cluster's stale entries are its
  few out-edges: a charging argument over the pairs that ever share a heap
  entry already bounds the rewrites by O(n sqrt(m log m)) (see
  `exact_avg_hac`), the same near n sqrt(m) cost without the orientation's
  flips and its per-merge upkeep.
* approx_avg_hac: the global-heap loop shared with `heap_hac`
  (`engine._global_heap_loop`) with per-cluster staleness snapshots. A
  cluster whose size outgrows its snapshot by the internal factor (1+delta)
  rebuilds all incident edges. A balanced merge that rebuilds its survivor
  folds only the rows, and the rebuild writes each entry once
  (`rebuild_cluster`); any other merge writes true values for the edges it
  joins and carries the folded side's stored upper bounds over for the
  rest. Yields an epsilon-close run with delta = sqrt(1/(1-epsilon)) - 1.
"""

from __future__ import annotations

import heapq
import math

from .dendrogram import Dendrogram, DendrogramBuilder
from .engine import HeapState, RunAudit, _chain_loop, _global_heap_loop
from .graph import WeightedGraph
from .heaps import new_heap
from .linkage import AVG_APPROX, AVG_EXACT, check_weights


def delta_from_epsilon(epsilon: float) -> float:
    """Internal staleness factor: (1+delta)^-2 == 1-epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return math.sqrt(1.0 / (1.0 - epsilon)) - 1.0


def naive_avg_hac(graph: WeightedGraph, audit: RunAudit | None = None) -> Dendrogram:
    """Eager exact baseline over plain adjacency maps; the oracle for the
    heap engines on distinct weights, not on tied ones (see the module
    docstring)."""
    n = graph.n
    if n == 0:
        raise ValueError("empty graph")
    check_weights(AVG_EXACT, graph.edges)
    adj = graph.adjacency()  # neighbor -> cut sum
    size = [1] * n
    active = [True] * n
    builder = DendrogramBuilder(n)
    heap: list[tuple[float, int, int]] = [(-w, u, v) for u, v, w in graph.edges]
    heapq.heapify(heap)
    while heap:
        nw, u, v = heapq.heappop(heap)
        if not (active[u] and active[v]):
            continue
        w = -nw
        cs = adj[u].get(v)
        if cs is None or cs / (size[u] * size[v]) != w:
            continue  # stale entry; every current weight was requeued at its last change
        deg_u, deg_v = len(adj[u]), len(adj[v])
        if (deg_u, u) < (deg_v, v):
            folded, survivor = u, v
        else:
            folded, survivor = v, u
        if audit is not None:
            audit.merge_degrees.append((deg_u, deg_v))
        del adj[folded][survivor]
        del adj[survivor][folded]
        size[survivor] += size[folded]
        for c, cut_fc in adj[folded].items():
            del adj[c][folded]
            merged = cut_fc + adj[survivor].get(c, 0.0)
            adj[survivor][c] = merged
            adj[c][survivor] = merged
        adj[folded].clear()
        active[folded] = False
        builder.record(folded, survivor, w, size[survivor])
        ssz = size[survivor]
        for c, cut_sc in adj[survivor].items():
            heapq.heappush(heap, (-(cut_sc / (ssz * size[c])), survivor, c))
    return builder.finish([c for c in range(n) if active[c]])


class _AvgState(HeapState):
    """Shared live state for the heap-backed average engines. The initial
    heap priority of each edge is its weight, since cut/|nbr| = w at size 1.
    `cut[a][b]` is the raw cut sum of live edge (a, b), mirrored in
    `cut[b][a]`; a folded cluster's row is empty."""

    def __init__(self, graph: WeightedGraph, heap_impl: str):
        self.cut: list[dict[int, float]] = graph.adjacency()
        super().__init__(self.cut, heap_impl)

    def true_weight(self, a: int, b: int) -> float:
        return self.cut[a][b] / (self.size[a] * self.size[b])

    def true_prio(self, owner: int, nbr: int) -> float:
        return self.cut[owner][nbr] / self.size[nbr]

    def stored_weight(self, owner: int, nbr: int) -> float:
        return self.heaps[owner].get(nbr) / self.size[owner]

    def _start_merge(self, a: int, b: int, audit: RunAudit | None) -> tuple[int, int]:
        """The part of a merge of a and b that both folds share: pick the
        folded side (`fold_order`), drop the cut between them from both rows,
        grow the survivor, retire the folded cluster and record the merge.
        Returns (folded, survivor)."""
        folded, survivor = self.fold_order(a, b)
        if audit is not None:
            audit.merge_degrees.append((self.degree(a), self.degree(b)))
        cut, size = self.cut, self.size
        mw = cut[folded].pop(survivor) / (size[folded] * size[survivor])
        del cut[survivor][folded]
        size[survivor] += size[folded]
        self.active[folded] = False
        self.builder.record(folded, survivor, mw, size[survivor])
        return folded, survivor

    def merge_structural(self, a: int, b: int, audit: RunAudit | None) -> int:
        """Fold one side of {a, b} into the other (`fold_order`) in one pass
        over the folded row that leaves each entry it touches final: the cut
        sums add into the survivor's row, the survivor's heap takes the true
        priority of each joined edge and the folded heap's stored bound for
        each new one, and each ex-neighbor's heap swaps its folded entry for
        the survivor's true priority. The folded heap is left empty. Returns
        the survivor."""
        folded, survivor = self._start_merge(a, b, audit)
        heaps, cut, size = self.heaps, self.cut, self.size
        row_f, row_s = cut[folded], cut[survivor]
        heap_f, heap_s = heaps[folded], heaps[survivor]
        new_size = size[survivor]
        heap_s.delete(folded)
        for c, cs in row_f.items():
            row_c = cut[c]
            del row_c[folded]
            if c in row_s:
                cs += row_s[c]
                heap_s.update(c, cs / size[c])
            else:
                heap_s.insert(c, heap_f.get(c))
            row_s[c] = row_c[survivor] = cs
            heaps[c].delete(folded)
            heaps[c].upsert(survivor, cs / new_size)
        row_f.clear()
        heaps[folded] = type(heap_f)()
        return survivor

    def fold_rows(self, a: int, b: int, audit: RunAudit | None) -> int:
        """Fold one side of {a, b} into the other for a merge whose survivor
        is rebuilt right after: only the cut rows are folded, and each
        ex-neighbor's heap loses its folded entry. Both merged heaps are left
        empty, so `rebuild_cluster` builds the survivor's once from its row
        and writes each neighbor's entry for it once. Returns the survivor."""
        folded, survivor = self._start_merge(a, b, audit)
        heaps, cut = self.heaps, self.cut
        row_f, row_s = cut[folded], cut[survivor]
        for c, cs in row_f.items():
            row_c = cut[c]
            del row_c[folded]
            heaps[c].delete(folded)
            row_s[c] = row_c[survivor] = cs + row_s.get(c, 0.0)
        row_f.clear()
        empty = type(heaps[folded])
        heaps[folded], heaps[survivor] = empty(), empty()
        return survivor


def refresh_out_edges(state: _AvgState, a: int, audit: RunAudit | None = None) -> int:
    """Return a's best neighbor under true weights, validating the top of
    heap(a) on extraction: a top whose stored priority is not its true one
    is rewritten and the top read again. Every stored priority is at least
    its true one (a write stores a true value, and a true value only falls
    as sizes grow), so the first true top is the true maximum under the
    (max priority, min id) tie rule. Each rewrite adds one to
    `audit.fixes`."""
    heap, row, size = state.heaps[a], state.cut[a], state.size
    while True:
        c, p = heap.best_edge()
        true = row[c] / size[c]
        if p == true:
            return c
        heap.update(c, true)
        if audit is not None:
            audit.fixes += 1


def rebuild_cluster(
    state: _AvgState,
    stale_base: list[float],
    x: int,
    audit: RunAudit | None = None,
) -> None:
    """Write the true similarity of every edge incident to x into both
    endpoint heaps and reset x's staleness snapshot to its current size.

    x's heap arrives in one of two states, set by the merge that grew x.
    After a balanced merge, where 2 deg(folded) >= deg(survivor),
    `_AvgState.fold_rows` left it empty: it is built once from x's row with
    true priorities, and each neighbor's entry for x is upserted once. After
    any other merge `_AvgState.merge_structural` left it keyed like x's row,
    and the walk over x's row updates both ends of each edge in place. On a
    star's hub merges the folded row is empty and the hub's entries are
    already true; a heap answers a write of the priority it already stores
    with one table lookup, so the walk costs one lookup per hub entry where
    a fresh build would rebuild the whole heap."""
    heaps, size, row = state.heaps, state.size, state.cut[x]
    xsz = size[x]
    heap = heaps[x]
    if len(heap) < len(row):  # emptied by fold_rows
        heaps[x] = new_heap(state.heap_impl, [(c, cs / size[c]) for c, cs in row.items()])
        for c, cs in row.items():
            heaps[c].upsert(x, cs / xsz)
    else:
        for c, cs in row.items():
            heap.update(c, cs / size[c])
            heaps[c].update(x, cs / xsz)
    stale_base[x] = float(xsz)
    if audit is not None:
        audit.rebuild_counts[x] = audit.rebuild_counts.get(x, 0) + 1


def exact_avg_hac(
    graph: WeightedGraph,
    *,
    heap_impl: str = "tree",
    audit: RunAudit | None = None,
) -> Dendrogram:
    """Chain-driver exact UPGMA that validates heap tops on extraction.

    A merge is `_AvgState.merge_structural`. It writes the true priority of
    each joined edge in both endpoint heaps and of each ex-neighbor's entry
    for the survivor; every other entry keeps a stored priority that bounds
    its true one from above. `best(t)` is `refresh_out_edges`, which
    rewrites stale tops of heap(t) until the top is true.

    Bound on the rewrites ("fixes"). Let P be the set of ordered pairs
    (t, X) that ever share an entry, X in heap(t). P starts with 2m pairs,
    and a merge adds at most 2 deg(folded): the survivor's entries for the
    folded side's neighbors and theirs for it. So |P| <= 2m + 2 sum
    deg(folded), which is O(m log m) under `engine.merge_cost_bound`.
    - An entry for X in heap(t) turns stale only when it is created with a
      carried bound or when X grows, since every change of a cut sum writes
      the true value and t's own size is not in the entry. One `best(t)`
      call fixes an entry at most once. So with q(t) the number of
      `best(t)` calls and g(X) the number of times X grows, the pair is
      fixed at most 1 + min(q(t), g(X)) times.
    - Sum q <= 3n: each call either pushes a neighbor (at most 2n - 1
      pushes, audited by the loop) or ends in a merge (at most n - 1).
    - Sum g <= n: each merge grows one cluster.
    - Split P at a threshold x > 0. A pair with q(t) <= x adds at most x,
      so those add at most |P| x in all. Fewer than 3n/x clusters t have
      q(t) > x, and the pairs of one t add at most sum g <= n, so those add
      less than 3n^2/x. With x = n sqrt(3/|P|):

          fixes <= |P| + 2n sqrt(3|P|) = O(n sqrt(m log m)).

    That is the paper's near n sqrt(m) bound without its orientation.
    `audit.fixes` counts the rewrites; with checks on, each `best(t)` is
    followed by `_check_best`."""
    check_weights(AVG_EXACT, graph.edges)
    st = _AvgState(graph, heap_impl)

    def merge(x: int, y: int) -> int:
        return st.merge_structural(x, y, audit)

    def best(t: int) -> int:
        b = refresh_out_edges(st, t, audit)
        if audit is not None and audit.checks:
            _check_best(st, t, b)
        return b

    _chain_loop(graph.n, st.active, st.degree, best, merge, audit)
    return st.finish()


def _check_best(st: _AvgState, t: int, b: int) -> None:
    """`best(t)` returned b: its entry must hold exactly its true priority,
    and no entry of heap(t) may be below its true one. Each write stores a
    true value and a true value only falls, so both hold bit for bit."""
    for c, p in st.heaps[t].entries():
        true = st.true_prio(t, c)
        assert p >= true, f"heap({t}) entry {c} below its true priority: {p} < {true}"
    stored, true = st.heaps[t].get(b), st.true_prio(t, b)
    assert stored == true, f"best({t}) returned {b} at {stored}, true {true}"


def _check_sandwich(st: _AvgState, delta: float) -> None:
    """Stored weights bound true weights: (1+delta)^-2 * stored <= true <= stored."""
    lo = (1.0 + delta) ** -2
    for owner, row in enumerate(st.cut):
        for nbr in row:
            stored = st.stored_weight(owner, nbr)
            true = st.true_weight(owner, nbr)
            assert true <= stored * (1.0 + 1e-9), f"stored too small: {stored} < {true}"
            assert lo * stored <= true * (1.0 + 1e-9), (
                f"stored too stale: {stored} vs true {true} (factor {stored / true})"
            )


def approx_avg_hac(
    graph: WeightedGraph,
    epsilon: float = 0.1,
    *,
    heap_impl: str = "tree",
    audit: RunAudit | None = None,
) -> Dendrogram:
    """Heap-driver UPGMA that is epsilon-close: every merge's true similarity
    is at least (1-epsilon) times the true current maximum. A cluster's
    global-heap weight is its best stored priority over its own size, and
    each cluster has at most one copy of that entry queued: stored
    priorities of clusters other than a merge's survivor only fall, so the
    shared loop's skip of repeated keys keeps the merges unchanged (see
    `engine._global_heap_loop`). A rebuild of x lowers the key of every
    neighbor whose best edge was x; `rebuilt` hands the loop x's row after
    one, so when those keys make up at least half the global heap the loop
    re-keys them and heapifies once instead of popping each one.

    A merge rebuilds its survivor when the merged size reaches (1+delta)
    times the survivor's snapshot, which is known before the merge and at
    epsilon = 0.1 holds for nearly every merge on sparse graphs. If it is
    also balanced, 2 deg(folded) >= deg(survivor), only the cut rows are
    folded and the rebuild builds the survivor's heap once. A star's hub
    merges are not balanced and keep the moves and the in-place walk, since
    the hub's entries are already true (`rebuild_cluster`)."""
    delta = delta_from_epsilon(epsilon)
    check_weights(AVG_APPROX, graph.edges)
    st = _AvgState(graph, heap_impl)
    stale_base = [1.0] * graph.n  # size at the last full rebuild

    def best(u: int) -> tuple[float, int, int] | None:
        try:
            nbr, p = st.heaps[u].best_edge()
        except KeyError:  # no edges left
            return None
        return -(p / st.size[u]), u, nbr

    def merge(u: int, v: int) -> int:
        folded, survivor = st.fold_order(u, v)
        rebuilds = st.size[u] + st.size[v] >= (1.0 + delta) * stale_base[survivor]
        if rebuilds and 2 * st.degree(folded) >= st.degree(survivor):
            st.fold_rows(u, v, audit)
        else:
            st.merge_structural(u, v, audit)
        if rebuilds:
            rebuild_cluster(st, stale_base, survivor, audit)
        if audit is not None and audit.checks:
            _check_sandwich(st, delta)
        return survivor

    def rebuilt(x: int) -> dict[int, float] | None:
        # a rebuild snapshots the size; a merge without one grows x past it
        return st.cut[x] if stale_base[x] == st.size[x] else None

    _global_heap_loop(graph.n, st.active, best, merge, rebuilt)
    return st.finish()
