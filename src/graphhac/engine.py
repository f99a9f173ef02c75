"""Generic clustering framework: per-cluster neighbor heaps driven by a
nearest-neighbor chain or by a global heap.

`HeapState` is the state every heap-backed engine shares: active flags,
sizes, one neighbor heap per cluster and the dendrogram builder. Its
`start_merge` is the step every merge begins with: it folds the side of
smaller degree (`fold_order`), records the degrees for an audit, grows the
survivor, retires the folded cluster and records the merge; each engine
then moves the folded cluster's heap entries its own way. Each discipline
has one loop, which drives its engines through `best` and
`merge(a, b) -> survivor` callbacks:

* `_chain_loop` walks best-neighbor paths with a stack and merges reciprocal
  pairs. It drives `chain_hac` and `average.exact_avg_hac`.
* `_global_heap_loop` merges the maximum of a global heap of per-cluster
  best edges, queued at most once per cluster. It drives `heap_hac` and
  `average.approx_avg_hac`.

For the triangle-based linkages `merge_clusters` follows `start_merge` by
unioning the two neighbor heaps with the linkage's combine and relabelling
the folded cluster's neighbors to the survivor.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .dendrogram import Dendrogram, DendrogramBuilder
from .graph import WeightedGraph
from .heaps import new_heap
from .linkage import LinkageError, check_weights, combine_fn, is_triangle_based


class RunAudit:
    """Opt-in instrumentation collected during a clustering run: merge
    degrees, chain stack pushes and the average engines' `fixes`, the heap
    entries their validation on extraction rewrote. `checks` also runs each
    engine's invariant checks: heap mirror and total edges for the triangle
    linkages, a true best entry over upper bounds after every BestEdge for
    exact average linkage, and after every merge of approximate average
    linkage one upper-bound entry per live edge and a (1-epsilon)-close
    merged edge."""

    def __init__(self, checks: bool = False):
        self.checks = checks
        self.merge_degrees: list[tuple[int, int]] = []
        self.stack_pushes = 0
        self.fixes = 0


def merge_cost_total(trace: list[tuple[int, int]]) -> int:
    """Total merge cost: sum of min(deg u, deg v) over the recorded merges."""
    return sum(min(du, dv) for du, dv in trace)


def merge_cost_bound(m: int) -> float:
    """Budget implied by the token-doubling argument: 2m(log2(2m) + 1)."""
    return 2.0 * m * (math.log2(2 * m) + 1.0) if m > 0 else 0.0


class HeapState:
    """Live clusters of one heap-backed run: every vertex starts as an active
    singleton whose neighbor heap holds its incident edge weights."""

    def __init__(self, adj: list[dict[int, float]], heap_impl: str):
        """`adj[c]` maps the keys of c's initial heap to their priorities,
        as the graph's `adjacency()` does. Each row becomes its heap's table
        with no copy, so the caller must not use the rows again."""
        if not adj:
            raise ValueError("empty graph")
        self.n = n = len(adj)
        self.heap_impl = heap_impl
        self.active = [True] * n
        self.size = [1] * n
        self.heaps = [new_heap(heap_impl, row) for row in adj]
        self.builder = DendrogramBuilder(n)

    def degree(self, c: int) -> int:
        return len(self.heaps[c])

    def fold_order(self, a: int, b: int) -> tuple[int, int]:
        """(folded, survivor) for a merge of a and b: the smaller degree is
        folded, so a merge costs the smaller side; a tie folds the smaller id."""
        degree = self.degree
        if (degree(a), a) < (degree(b), b):
            return a, b
        return b, a

    def start_merge(
        self, a: int, b: int, weight: float, audit: RunAudit | None
    ) -> tuple[int, int]:
        """The bookkeeping of a merge of a and b at `weight`: pick
        (folded, survivor) by `fold_order`, append the pre-merge degrees of
        a and b to `audit.merge_degrees`, add the folded size to the
        survivor's, retire the folded cluster and record the merge. The
        caller then moves the folded cluster's heap entries. Returns
        (folded, survivor)."""
        folded, survivor = self.fold_order(a, b)
        if audit is not None:
            audit.merge_degrees.append((self.degree(a), self.degree(b)))
        size = self.size
        size[survivor] += size[folded]
        self.active[folded] = False
        self.builder.record(folded, survivor, weight, size[survivor])
        return folded, survivor

    def finish(self) -> Dendrogram:
        return self.builder.finish([c for c in range(self.n) if self.active[c]])


class ClusterState(HeapState):
    """Live clustering over a graph for one triangle-based linkage run."""

    def __init__(self, graph: WeightedGraph, kind: str, heap_impl: str = "meld"):
        if not is_triangle_based(kind):
            raise LinkageError(
                f"{kind!r} is not triangle-based; use the average-linkage engines"
            )
        check_weights(kind, graph.edges)
        super().__init__(graph.adjacency(), heap_impl)
        self.combine = combine_fn(kind)
        self.total_edges = [len(h) for h in self.heaps]

    def check_mirror(self) -> None:
        """Heaps of active clusters must mirror the contracted graph."""
        for c in range(self.n):
            if not self.active[c]:
                continue
            for k, p in self.heaps[c].entries():
                assert self.active[k], f"heap({c}) references inactive {k}"
                back = self.heaps[k].get(c)
                assert back == p, f"asymmetric edge ({c},{k}): {p} vs {back}"

    def check_total_edges(self, m: int) -> None:
        total = sum(self.total_edges[c] for c in range(self.n) if self.active[c])
        assert total == 2 * m, f"sum of total_edges {total} != 2m = {2 * m}"


def merge_clusters(
    state: ClusterState,
    a: int,
    b: int,
    audit: RunAudit | None = None,
) -> int:
    """Fold one cluster of {a, b} into the other (`HeapState.start_merge`)
    at the stored weight of (a, b): union the two neighbor heaps with the
    linkage's combine and relabel the folded cluster's neighbors to the
    survivor. Returns the surviving cluster id."""
    heaps = state.heaps
    if not (state.active[a] and state.active[b]):
        raise ValueError(f"merge of inactive cluster: ({a},{b})")
    weight = heaps[a].get(b)
    if weight is None or heaps[b].get(a) is None:
        raise ValueError(f"no mutual edge between {a} and {b}")
    folded, survivor = state.start_merge(a, b, weight, audit)
    heaps[folded].delete(survivor)
    heaps[survivor].delete(folded)
    folded_nbrs = heaps[folded].keys()
    heaps[survivor] = heaps[folded].union(heaps[survivor], state.combine)
    for c in folded_nbrs:
        heaps[c].relabel(folded, survivor, state.combine)
    state.total_edges[survivor] += state.total_edges[folded]
    if audit is not None and audit.checks:
        state.check_mirror()
    return survivor


def _merger(state: ClusterState, audit: RunAudit | None) -> Callable[[int, int], int]:
    """The `merge(a, b) -> survivor` callback of `chain_hac` and `heap_hac`."""
    return lambda a, b: merge_clusters(state, a, b, audit)


def _chain_loop(
    n: int,
    active: list[bool],
    degree: Callable[[int], int],
    best: Callable[[int], int],
    merge: Callable[[int, int], int],
    audit: RunAudit | None,
) -> None:
    """Nearest-neighbor-chain driver: grow a stack of best neighbors until
    the top's best neighbor is on it, then merge that reciprocal pair.

    `best(t)` returns the id of t's best neighbor; `merge(a, b)` returns
    the survivor, which is queued as a later chain start. Under a strict tie
    rule the only stacked best neighbor can be the entry below the top. The
    chain's merges are the greedy ones when the linkage is reducible
    (Müllner, arXiv 1109.2378). Each push is popped once, two per merge or
    one per component root, so an audit asserts at most 2n - 1 pushes.
    """
    worklist = list(range(n))
    on_stack: set[int] = set()
    i = 0
    while i < len(worklist):
        start = worklist[i]
        i += 1
        if not active[start] or degree(start) == 0:
            continue
        stack = [start]
        on_stack.add(start)
        if audit is not None:
            audit.stack_pushes += 1
        while stack:
            t = stack[-1]
            if degree(t) == 0:  # finished component root
                on_stack.discard(stack.pop())
                continue
            b = best(t)
            if b in on_stack:
                on_stack.discard(stack.pop())
                partner = stack[-1]
                survivor = merge(t, partner)
                on_stack.discard(stack.pop())
                worklist.append(survivor)
            else:
                stack.append(b)
                on_stack.add(b)
                if audit is not None:
                    audit.stack_pushes += 1
    if audit is not None:
        assert audit.stack_pushes <= 2 * n - 1, "stack discipline violated"


def chain_hac(
    graph: WeightedGraph,
    kind: str,
    *,
    heap_impl: str = "meld",
    audit: RunAudit | None = None,
) -> Dendrogram:
    """Nearest-neighbor-chain driver. Merges happen only between clusters
    that are mutual best neighbors under the (max weight, min id) tie rule."""
    state = ClusterState(graph, kind, heap_impl)

    def best(t: int) -> int:
        return state.heaps[t].best_edge()[0]

    _chain_loop(graph.n, state.active, state.degree, best, _merger(state, audit), audit)
    if audit is not None and audit.checks:
        state.check_total_edges(graph.m)
    return state.finish()


def _global_heap_loop(
    n: int,
    active: list[bool],
    best: Callable[[int], tuple[float, int, int] | None],
    merge: Callable[[int, int], int],
) -> None:
    """Lazy global-heap driver: repeatedly merge the best cluster pair.

    `best(u)` returns the heap key `(-w, u, nbr)` of u's current best edge
    (weight w to neighbor nbr), or None when u's heap is empty;
    `merge(u, v)` merges u and v and returns the survivor. A popped key
    of an active u that equals `best(u)` merges u and nbr, then queues the
    survivor's best key; any other popped key of an active u is stale and
    queues `best(u)` instead.

    One queued entry per cluster: `queued[u]` is an entry of u known to be
    in the heap. It is set on push and cleared when that entry pops, and a
    push equal to `queued[u]` is skipped. Without the skip, every stale pop
    of u re-pushes a copy of u's best key, and on a tied star the hub's
    copies cost hub x (n - hub) pops.

    Why the skip cannot change the merge sequence. Say u is *covered* when
    the heap holds an entry of u whose weight is at least u's current best
    weight. Every active cluster with a best key stays covered: a survivor
    queues its best key, every pop of a live cluster's entry queues its best
    key again, and any other cluster's best weight can only fall (below).
    While all are covered, a popped key that equals its cluster's best key
    belongs to the cluster u* minimising (-best weight, id): the heap top
    comes no later than u*'s covering entry, and such a key of any other
    cluster would give it an earlier pair than u*'s. So each merge joins u*
    and its best neighbor, a function of the clustering state alone,
    however many copies of a key the heap holds. A skipped push would only
    have added a copy of a key that is already in the heap and already
    covers u.

    Why a cluster that is not a survivor never sees its best weight rise:
    for single, complete and WPGMA a neighbor c of a merge changes only its
    entry for the merged pair, and the new weight is the max, min or mean
    of two of c's own weights, so it is no more than c's best. Under
    approximate average linkage c only loses entries or has its entry for
    the folded side f relabelled to the survivor s at cs/(|f|+|s|) <=
    cs/|f|, which is at most the stored value it replaces, and a validation
    fix in `best(c)` only lowers an entry of c. Floating-point division is
    monotone, so these hold bit for bit.
    """
    queued: list[tuple[float, int, int] | None] = [None] * n
    heap = [e for e in map(best, range(n)) if e is not None]
    for e in heap:
        queued[e[1]] = e
    heapq.heapify(heap)
    while heap:
        item = heapq.heappop(heap)
        u = item[1]
        if not active[u]:
            continue
        if queued[u] is item:
            queued[u] = None
        e = best(u)
        if e == item:  # u's heap holds only active clusters, so nbr is active
            u = merge(u, item[2])
            e = best(u)
        if e is not None and e != queued[u]:
            queued[u] = e
            heapq.heappush(heap, e)


def heap_hac(
    graph: WeightedGraph,
    kind: str,
    *,
    heap_impl: str = "meld",
    audit: RunAudit | None = None,
) -> Dendrogram:
    """Global-heap driver. Extracts the maximum stored edge; entries whose
    endpoint went inactive, or that no longer match their cluster's current
    best edge, are replaced by the cluster's current best edge, queued at
    most once per cluster (see `_global_heap_loop`)."""
    state = ClusterState(graph, kind, heap_impl)

    def best(c: int) -> tuple[float, int, int] | None:
        try:
            nbr, w = state.heaps[c].best_edge()
        except KeyError:  # no edges left
            return None
        return -w, c, nbr

    _global_heap_loop(graph.n, state.active, best, _merger(state, audit))
    if audit is not None and audit.checks:
        state.check_total_edges(graph.m)
    return state.finish()
