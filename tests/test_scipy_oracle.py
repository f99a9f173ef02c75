"""Engines against scipy, an oracle that shares no code with graphhac.

Complete graphs: similarities s = C - d over random point sets, so each
graph linkage is scipy's distance linkage of the same name (single, complete,
weighted = WPGMA, average = UPGMA) with every height mapped through C - h.
Sparse graphs: single linkage merges the maximum spanning forest's edges,
which scipy finds as the minimum spanning tree of C - w. Level cuts of
epsilon-close dendrograms, whose merges may be stronger than their children,
are scipy's `fcluster(..., "maxclust")` of the heights C - w.
"""

import numpy as np
import pytest

from graphhac.average import approx_avg_hac, exact_avg_hac, naive_avg_hac
from graphhac.engine import chain_hac, heap_hac
from graphhac.evaluation import cut_dendrogram
from graphhac.graph import make_graph
from graphhac.heaps import HEAP_IMPLS
from graphhac.instances import random_connected_graph, random_sparse_graph

hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
csgraph = pytest.importorskip("scipy.sparse.csgraph")
sparse = pytest.importorskip("scipy.sparse")

ENGINES = {  # name -> (scipy method, run(graph, heap_impl))
    "chain-single": ("single", lambda g, h: chain_hac(g, "single", heap_impl=h)),
    "chain-complete": ("complete", lambda g, h: chain_hac(g, "complete", heap_impl=h)),
    "heap-wpgma": ("weighted", lambda g, h: heap_hac(g, "wpgma", heap_impl=h)),
    "exact-average": ("average", lambda g, h: exact_avg_hac(g, heap_impl=h)),
    "naive-average": ("average", lambda g, h: naive_avg_hac(g)),  # no heap
}


def point_graph(seed):
    """Complete similarity graph over random points, and its distances."""
    rng = np.random.default_rng(seed)
    pts = rng.random((int(rng.integers(5, 41)), int(rng.integers(1, 4))))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    c = float(dist.max()) + 1.0
    n = len(pts)
    edges = [(i, j, c - dist[i, j]) for i in range(n) for j in range(i + 1, n)]
    iu = np.triu_indices(n, 1)
    return make_graph(n, edges), dist[iu], c


def scipy_clusters(z, n):
    """Leaf set -> merge height for every merge of a scipy linkage matrix."""
    members = {i: frozenset([i]) for i in range(n)}
    out = {}
    for i, (a, b, h, _size) in enumerate(z):
        members[n + i] = members[int(a)] | members[int(b)]
        out[members[n + i]] = h
    return out


def graph_clusters(d, c):
    """Leaf set -> merge height (C - weight) for every merge of a dendrogram."""
    sets = d.leaf_sets()
    return {sets[d.n + i]: c - m.weight for i, m in enumerate(d.merges)}


@pytest.mark.parametrize("name", ENGINES)
def test_complete_graph_matches_scipy_linkage(name):
    method, run = ENGINES[name]
    for seed in range(20):
        g, condensed, c = point_graph(seed)
        want = scipy_clusters(hierarchy.linkage(condensed, method=method), g.n)
        for heap_impl in HEAP_IMPLS:
            got = graph_clusters(run(g, heap_impl), c)
            assert got.keys() == want.keys(), (seed, heap_impl)
            for members, h in want.items():
                assert got[members] == pytest.approx(h, rel=1e-9, abs=1e-12), seed


def maximum_spanning_forest_weights(g):
    """Sorted weights of the graph's maximum spanning forest, via scipy."""
    u, v, w = (np.array(col) for col in zip(*g.edges))
    c = 2.0 * float(w.max())  # C - w > 0: scipy reads explicit zeros as no edge
    mst = csgraph.minimum_spanning_tree(sparse.coo_matrix((c - w, (u, v)), shape=(g.n, g.n)))
    weight = {(a, b): x for a, b, x in g.edges}
    rows, cols = mst.nonzero()
    return sorted(weight[min(a, b), max(a, b)] for a, b in zip(rows, cols))


@pytest.mark.parametrize("heap_impl", HEAP_IMPLS)
@pytest.mark.parametrize("run", [chain_hac, heap_hac], ids=["chain", "heap"])
def test_sparse_single_linkage_matches_scipy_mst(run, heap_impl):
    for seed in range(2):
        g = random_sparse_graph(seed, 1500)
        # a reweighted copy shifted by n makes a two-component forest, n = 3000
        g = make_graph(2 * g.n, [*g.edges, *((a + g.n, b + g.n, x / 3) for a, b, x in g.edges)])
        d = run(g, "single", heap_impl=heap_impl)
        assert len(d.roots) == 2
        assert sorted(m.weight for m in d.merges) == maximum_spanning_forest_weights(g)


def first_leaf_labels(labels):
    """Relabel a partition 0, 1, ... in order of each group's first leaf."""
    seen = {}
    return [seen.setdefault(x, len(seen)) for x in labels]


def test_inverted_dendrogram_cuts_match_scipy_maxclust():
    checked = inverted = 0
    for seed in range(60):
        g = random_connected_graph(seed)
        d = approx_avg_hac(g, 0.5)
        n, c = d.n, max(m.weight for m in d.merges)
        inverted += any(
            side >= n and d.merges[side - n].weight < m.weight
            for m in d.merges for side in (m.left, m.right)
        )
        z = np.array([[m.left, m.right, c - m.weight, m.size] for m in d.merges])
        for k in range(1, n + 1):
            got, want = cut_dendrogram(d, k), hierarchy.fcluster(z, k, "maxclust")
            if len(set(want)) == k:
                assert got == first_leaf_labels(want), (seed, k)
                checked += 1
            else:  # tied heights: scipy keeps more merges, so the cut refines it
                assert len(set(zip(got, want))) == k, (seed, k)
    assert inverted and checked > 1000, (inverted, checked)
