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
not combine into a merged one, so no merge unions heaps: a merge moves the
folded cluster's entries one by one (`_AvgState.merge_structural` for
exact, `_AvgState.merge_owned` for approx). Both heap engines validate a
heap top when they extract it: every stored priority bounds its true one
from above, and a top that is too far above it is rewritten.

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
  Both ends of every edge have an entry. A merge writes the true value of
  every entry it moves or creates, and the other entries keep stored upper
  bounds, which turn stale as their other end grows; the loop's `best`
  callback rewrites stale tops until the top is true. This departs
  from the paper, which keeps a low-outdegree edge orientation so that a
  cluster's stale entries are its few out-edges: a charging argument over
  the pairs that ever share a heap entry already bounds the rewrites by
  O(n sqrt(m log m)) (see `exact_avg_hac`), the same near n sqrt(m) cost
  without the orientation's flips and its per-merge upkeep.
* approx_avg_hac: the global-heap loop shared with `heap_hac`
  (`engine._global_heap_loop`) with one entry per edge, held by its owner,
  and validation on extraction that accepts a top within a factor
  1-epsilon of its true value. A merge moves the folded side's own entries
  to the survivor, writes joined edges true at the survivor and relabels
  each neighbor's entry for the folded side at its true value, so no key
  but the survivor's rises. Each entry is fixed at most 1 +
  log_{1/(1-epsilon)} n times, so the run is O~(m / epsilon). This departs
  from the paper's rebuild-based epsilon-close algorithm (see
  `approx_avg_hac`).
"""

from __future__ import annotations

import heapq

from .dendrogram import Dendrogram, DendrogramBuilder
from .engine import HeapState, RunAudit, _chain_loop, _global_heap_loop
from .graph import WeightedGraph
from .heaps import new_heap
from .linkage import AVG_APPROX, AVG_EXACT, check_weights


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
    `cut[b][a]`; a folded cluster's row is empty. With `owned` each edge has
    one heap entry, at its owner: the endpoint of higher degree, ties going
    to the smaller id. Without it both endpoints' heaps hold the edge.
    Degrees are row lengths, which heap sizes match only without `owned`."""

    def __init__(self, graph: WeightedGraph, heap_impl: str, owned: bool = False):
        self.cut: list[dict[int, float]] = graph.adjacency()
        if owned:
            deg = [len(row) for row in self.cut]
            rows = [{} for _ in self.cut]
            for u, v, w in graph.edges:  # u < v, so a tie goes to u
                if deg[v] > deg[u]:
                    rows[v][u] = w
                else:
                    rows[u][v] = w
        else:  # the heaps take over their rows, which cut must not share
            rows = [row.copy() for row in self.cut]
        super().__init__(rows, heap_impl)

    def degree(self, c: int) -> int:
        return len(self.cut[c])

    def true_prio(self, owner: int, nbr: int) -> float:
        return self.cut[owner][nbr] / self.size[nbr]

    def merge_structural(self, a: int, b: int, audit: RunAudit | None) -> int:
        """Fold one side of {a, b} into the other (`start_merge`) in one pass
        over the folded row that leaves each entry it touches true: the cut
        sums add into the survivor's row and the survivor's heap takes the
        true priority cs/|c| of every edge it gains or joins. Each
        ex-neighbor c moves its folded entry to the survivor at cs/|s|: a
        joined c deletes it and updates its survivor entry, any other c
        rekeys it in its own slot. A moved edge that is not joined keeps its
        cut sum and its other end, so its true value is at most the bound
        the folded heap stored. The folded heap is left empty. Returns the
        survivor."""
        heaps, cut, size = self.heaps, self.cut, self.size
        folded, survivor = self.start_merge(a, b, cut[a][b] / (size[a] * size[b]), audit)
        row_f, row_s = cut[folded], cut[survivor]
        del row_f[survivor], row_s[folded]
        heap_s = heaps[survivor]
        new_size = size[survivor]
        heap_s.delete(folded)
        for c, cs in row_f.items():
            row_c = cut[c]
            del row_c[folded]
            cs_s = row_s.get(c)
            if cs_s is not None:  # joined
                cs += cs_s
                heap_s.update(c, cs / size[c])
                heap_c = heaps[c]
                heap_c.delete(folded)
                heap_c.update(survivor, cs / new_size)
            else:
                heap_s.insert(c, cs / size[c])
                heaps[c].rekey(folded, survivor, cs / new_size)
            row_s[c] = row_c[survivor] = cs
        row_f.clear()
        heaps[folded] = type(heap_s)()
        return survivor

    def merge_owned(self, a: int, b: int, audit: RunAudit | None) -> int:
        """`merge_structural` for a state built with `owned`: fold one side
        of {a, b} into the other and keep one entry per live edge. For each
        neighbor c of the folded cluster f, with survivor s:
        - a joined edge (c also next to s) loses both old entries, wherever
          they are, and s takes its true priority;
        - an edge that f owned moves to s with f's stored bound, since its
          cut sum and its other end are unchanged;
        - an edge that c owned stays with c, rekeyed in its own slot from f
          to s at the true priority cs/|s|, which is at most cs/|f| and so
          at most the bound it replaces.
        So a cluster other than s only loses entries or sees one fall. The
        folded heap is left empty. Returns the survivor."""
        heaps, cut, size = self.heaps, self.cut, self.size
        folded, survivor = self.start_merge(a, b, cut[a][b] / (size[a] * size[b]), audit)
        row_f, row_s = cut[folded], cut[survivor]
        del row_f[survivor], row_s[folded]
        heap_f, heap_s = heaps[folded], heaps[survivor]
        new_size = size[survivor]
        get_f, get_s, insert_s = heap_f.get, heap_s.get, heap_s.insert
        if get_s(folded) is not None:
            heap_s.delete(folded)
        for c, cs in row_f.items():
            row_c = cut[c]
            del row_c[folded]
            mine = get_f(c)
            cs_s = row_s.get(c)
            if cs_s is not None:  # joined
                heap_c = heaps[c]
                if mine is None:
                    heap_c.delete(folded)
                cs += cs_s
                if get_s(c) is None:
                    heap_c.delete(survivor)
                heap_s.upsert(c, cs / size[c])
            elif mine is not None:
                insert_s(c, mine)
            else:
                heaps[c].rekey(folded, survivor, cs / new_size)
            row_s[c] = row_c[survivor] = cs
        row_f.clear()
        heaps[folded] = type(heap_f)()
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


def rebuild_cluster(state: _AvgState, stale_base: list[float], x: int) -> None:
    """Write the true similarity of every edge incident to x into both
    endpoint heaps of a state built without `owned`, and set x's entry of
    `stale_base` to its current size. An emptied heap(x) is built from x's
    row; otherwise the walk updates both ends of each edge in place.

    No engine calls this since approximate average linkage validates its
    heap tops on extraction instead of rebuilding. It stays because the
    benchmark's tracer (`hacbench/tracing.py`) wraps it by name when it
    installs, and would fail without it."""
    heaps, size, row = state.heaps, state.size, state.cut[x]
    xsz = size[x]
    heap = heaps[x]
    if len(heap) < len(row):  # emptied
        heaps[x] = new_heap(state.heap_impl, {c: cs / size[c] for c, cs in row.items()})
        for c, cs in row.items():
            heaps[c].upsert(x, cs / xsz)
    else:
        for c, cs in row.items():
            heap.update(c, cs / size[c])
            heaps[c].update(x, cs / xsz)
    stale_base[x] = float(xsz)


def exact_avg_hac(
    graph: WeightedGraph,
    *,
    heap_impl: str = "meld",
    audit: RunAudit | None = None,
) -> Dendrogram:
    """Chain-driver exact UPGMA that validates heap tops on extraction.

    A merge is `_AvgState.merge_structural`. It writes the true priority of
    every entry it moves or creates: the survivor's entry for each of the
    folded side's neighbors and each such neighbor's entry for the
    survivor. Every other entry keeps a stored priority that bounds its
    true one from above. `best(t)` is `refresh_out_edges`, which
    rewrites stale tops of heap(t) until the top is true.

    Bound on the rewrites ("fixes"). Let P be the set of ordered pairs
    (t, X) that ever share an entry, X in heap(t). P starts with 2m pairs,
    and a merge adds at most 2 deg(folded): the survivor's entries for the
    folded side's neighbors and theirs for it. So |P| <= 2m + 2 sum
    deg(folded), which is O(m log m) under `engine.merge_cost_bound`.
    - An entry for X in heap(t) turns stale only when X grows, since every
      entry is created with its true value, every change of a cut sum
      writes the true value and t's own size is not in the entry. One
      `best(t)` call fixes an entry at most once. So with q(t) the number of
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


def _check_owned(st: _AvgState, keep: float, p: float, true: float) -> None:
    """After an approximate merge whose edge had stored priority p and true
    priority `true` at its owner: the merge was (1-epsilon)-close,
    keep * p <= true with keep = 1 - epsilon, and every live edge has exactly
    one heap entry, at one of its ends, that is at least its true priority.
    `best` accepts a top only when keep * p <= true, every write stores a
    true value and a true value only falls, so all three hold bit for bit."""
    assert keep * p <= true, f"merged edge stored at {p}, true {true}: not (1-eps)-close"
    heaps = st.heaps
    entries = 0
    for a, row in enumerate(st.cut):
        entries += len(heaps[a])
        for b in row:
            pa, pb = heaps[a].get(b), heaps[b].get(a)
            assert (pa is None) != (pb is None), f"edge ({a},{b}) has {2 - (pa is None) - (pb is None)} entries"
            if pa is not None:
                t = st.true_prio(a, b)
                assert pa >= t, f"heap({a}) entry {b} below its true priority: {pa} < {t}"
    live = sum(len(row) for row in st.cut) // 2
    assert entries == live, f"{entries} heap entries for {live} live edges"


def approx_avg_hac(
    graph: WeightedGraph,
    epsilon: float = 0.1,
    *,
    heap_impl: str = "meld",
    audit: RunAudit | None = None,
) -> Dendrogram:
    """Heap-driver UPGMA that is epsilon-close: every merge's true similarity
    is at least (1-epsilon) times the true current maximum.

    Each live edge has one heap entry, held by its owner (`_AvgState` with
    `owned`), whose priority is at least cut/|other end|. A cluster's
    global-heap key is its best owned priority over its own size; a cluster
    that owns nothing has no key. `best(u)` validates the top of heap(u) on
    extraction: while its stored p has (1-epsilon) p > cut/|c|, it writes
    the true value and reads the top again, and it returns the key built
    from the accepted stored p. That key bounds every true weight of u's
    edges from above, each live edge is some cluster's, and the accepted
    edge's true weight is at least (1-epsilon) times it; so the merge is
    epsilon-close. A merge is `_AvgState.merge_owned`, under which a
    cluster other than the survivor only loses entries or sees one fall,
    and a fix only lowers its own cluster's key. So no key other than the
    survivor's rises, bit for bit, which the shared loop's skip of repeated
    keys needs (see `engine._global_heap_loop`). Nothing is rebuilt.

    Bound on the rewrites ("fixes"). An entry is created with a true value:
    the m initial entries, and per merge at most one joined write or
    relabel per folded neighbor, so at most m + sum deg(folded) entries,
    fewer than 2m + 2 sum deg(folded). A moved bound is the same entry. A
    fix writes the true value, and the next fix of that entry needs its
    true value to fall below (1-epsilon) times it, that is its other end to
    grow by more than 1/(1-epsilon), since the cut sum of an entry that is
    not rewritten does not change. Sizes stay within n, so one entry is
    fixed at most 1 + log_{1/(1-epsilon)} n times in its life, and

        fixes <= (2m + 2 sum deg(folded)) (1 + log_{1/(1-epsilon)} n),

    O(m log m / epsilon) under `engine.merge_cost_bound`. Each fix is an
    O(log n) heap write. A global-heap pop that does not merge meets a
    folded cluster or a key that a merge or a fix changed after it was
    queued, and a merge changes at most deg(folded) + 1 keys, so the run
    takes O~(m / epsilon) time, the paper's O~(m) at fixed epsilon.

    This departs from the paper's epsilon-close algorithm, which keeps
    both ends of every edge in heaps and rebuilds a cluster's edges each
    time the cluster grows by a 1+delta factor. With two entries per edge a
    cluster's growth stales entries in all its neighbors' heaps, and the
    rebuilds that repair them walk hub rows again and again; one owned
    entry per edge, validated when it is read, keeps the same closeness
    with no rebuild and no second entry to repair.

    `audit.fixes` counts the rewrites; with checks on, each merge is
    followed by `_check_owned`."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    check_weights(AVG_APPROX, graph.edges)
    st = _AvgState(graph, heap_impl, owned=True)
    heaps, cut, size = st.heaps, st.cut, st.size
    keep = 1.0 - epsilon
    checks = audit is not None and audit.checks

    def best(u: int) -> tuple[float, int, int] | None:
        heap, row = heaps[u], cut[u]
        try:
            c, p = heap.best_edge()
        except KeyError:  # u owns no edge
            return None
        true = row[c] / size[c]
        while p * keep > true:
            heap.update(c, true)
            if audit is not None:
                audit.fixes += 1
            c, p = heap.best_edge()
            true = row[c] / size[c]
        return -(p / size[u]), u, c

    def merge(u: int, v: int) -> int:
        if not checks:
            return st.merge_owned(u, v, audit)
        p, true = heaps[u].get(v), st.true_prio(u, v)
        survivor = st.merge_owned(u, v, audit)
        _check_owned(st, keep, p, true)
        return survivor

    _global_heap_loop(graph.n, st.active, best, merge)
    return st.finish()
