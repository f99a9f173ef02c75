import math
from collections import defaultdict

import pytest
from test_acceptance import C1_SEED
from test_engine import HUB_STARS, TIED_GRAPHS

from graphhac import average
from graphhac.average import (
    _AvgState,
    _check_best,
    _check_owned,
    approx_avg_hac,
    exact_avg_hac,
    naive_avg_hac,
    rebuild_cluster,
    refresh_out_edges,
)
from graphhac.dendrogram import Merge, same_clustering
from graphhac.engine import RunAudit, merge_cost_total
from graphhac.evaluation import closeness_audit
from graphhac.graph import make_graph
from graphhac.instances import random_connected_graph, random_sparse_graph, star_graph
from graphhac.linkage import WEIGHT_BOUND
from graphhac.reference import reference_hac

TRIANGLE = make_graph(3, [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 0.5)])
PATH = make_graph(3, [(0, 1, 1.0), (1, 2, 0.6)])
STAR5 = star_graph(5)

ALL_ENGINES = [
    naive_avg_hac,
    lambda g: exact_avg_hac(g),
    lambda g: approx_avg_hac(g, 0.1),
]


def merge_weights(d):
    return [m.weight for m in d.merges]


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_triangle_example(engine):
    # (0.5 + 0.5)/(2*1) keeps the second merge at 0.5
    d = engine(TRIANGLE)
    assert d.merges == (Merge(0, 1, 1.0, 2), Merge(3, 2, 0.5, 3))


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_star_example(engine):
    # each step divides the unit cut by the grown cluster size
    d = engine(STAR5)
    assert merge_weights(d) == pytest.approx([1.0, 1 / 2, 1 / 3, 1 / 4])


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_path_example(engine):
    d = engine(PATH)
    assert d.merges == (Merge(0, 1, 1.0, 2), Merge(3, 2, 0.3, 3))


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_single_edge(engine):
    d = engine(make_graph(2, [(0, 1, 0.7)]))
    assert d.merges == (Merge(0, 1, 0.7, 2),)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_empty_graph_rejected(engine):
    with pytest.raises(ValueError):
        engine(make_graph(0, []))


def test_naive_matches_dense_reference(small_graphs):
    for g in small_graphs[:12]:
        assert naive_avg_hac(g).merges == reference_hac(g, "avg-exact").merges


def test_exact_equals_naive(small_graphs):
    for g in small_graphs[:12]:
        assert same_clustering(exact_avg_hac(g), naive_avg_hac(g))


def test_exact_meld_equals_tree(small_graphs):
    for g in small_graphs[:6]:
        assert exact_avg_hac(g, heap_impl="meld").merges == exact_avg_hac(g).merges


def test_exact_shared_neighbor_collapses_to_single_edge():
    # both merge partners adjacent to 2: the contracted graph must keep one
    # (survivor, 2) edge and the cut sums must add
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 0.3)])
    d = exact_avg_hac(g)
    assert d.merges[1].weight == pytest.approx((0.5 + 0.3) / 2)


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 0.9])
def test_approx_triangle_distinct_weights_matches_naive(eps):
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 0.8)])
    assert approx_avg_hac(g, eps).merges == naive_avg_hac(g).merges


def test_approx_epsilon_validation():
    for bad in (0.0, 1.0, 2.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            approx_avg_hac(STAR5, bad)


def test_approx_star_weights_within_staleness_factor():
    # a merge is (1-eps)-close to the true maximum, which is no more than
    # the exact run's weight at that step
    want = [1.0, 1 / 2, 1 / 3, 1 / 4]
    for eps in (0.1, 0.5):
        got = sorted(merge_weights(approx_avg_hac(STAR5, eps)), reverse=True)
        for g_w, w in zip(got, want):
            assert (1 - eps) * w - 1e-12 <= g_w <= w + 1e-12


def test_approx_fix_bound():
    """Validation on extraction rewrites at most (2m + 2 * merge_cost_total)
    * (1 + log_{1/(1-eps)} n) heap entries: each entry is created true, at
    most 2m + 2 sum deg(folded) are created, and one is fixed at most 1 +
    log_{1/(1-eps)} n times (the argument is in `approx_avg_hac`'s
    docstring)."""
    graphs = [random_connected_graph(C1_SEED + t, max_n=64, max_m=256) for t in range(100)]
    graphs += [*HUB_STARS, star_graph(10**4), random_sparse_graph(3, 300)]
    worst = 0.0
    for eps in (0.1, 0.5):
        for heap_impl in ("tree", "meld"):
            for g in graphs:
                audit = RunAudit()
                approx_avg_hac(g, eps, heap_impl=heap_impl, audit=audit)
                entries = 2 * g.m + 2 * merge_cost_total(audit.merge_degrees)
                bound = entries * (1 + math.log(g.n) / -math.log1p(-eps))
                assert audit.fixes <= bound, (eps, heap_impl, g.n, g.m, audit.fixes, bound)
                worst = max(worst, audit.fixes / bound)
    assert worst > 0  # the families do make fixes


def test_approx_meld_equals_tree(small_graphs):
    for g in small_graphs[:6]:
        assert (
            approx_avg_hac(g, 0.1, heap_impl="meld").merges
            == approx_avg_hac(g, 0.1).merges
        )


def test_approx_closeness_on_random(small_graphs):
    for g in small_graphs[:12]:
        assert closeness_audit(g, approx_avg_hac(g, 0.1), 0.1).passed


def test_naive_is_zero_close_on_distinct_weights(small_graphs):
    for g in small_graphs[:12]:
        report = closeness_audit(g, naive_avg_hac(g), 0.0)
        assert report.passed and report.worst_ratio >= 1.0 - 1e-9


def test_exact_in_edge_invariant():
    for t in range(12):
        g = random_connected_graph(5000 + t, max_n=48)
        exact_avg_hac(g, audit=RunAudit(checks=True))


def test_check_best_is_bitwise():
    # every write stores true_prio itself, so an entry one ulp below it is
    # caught, as is a returned entry one ulp above it
    g = random_connected_graph(5000, max_n=48)
    st = _AvgState(g, "tree")
    t = next(a for a in range(g.n) if len(st.cut[a]) >= 2)
    b = refresh_out_edges(st, t)
    _check_best(st, t, b)
    c = next(c for c in st.cut[t] if c != b)
    p = st.heaps[t].get(c)
    st.heaps[t].update(c, math.nextafter(p, 0.0))
    with pytest.raises(AssertionError, match="below its true priority"):
        _check_best(st, t, b)
    st.heaps[t].update(c, p)
    st.heaps[t].update(b, math.nextafter(st.heaps[t].get(b), math.inf))
    with pytest.raises(AssertionError, match=f"best\\({t}\\) returned {b}"):
        _check_best(st, t, b)


@pytest.mark.parametrize("heap_impl", ["tree", "meld"])
def test_cut_maps_mirror_contraction(heap_impl):
    graphs = [random_connected_graph(8000 + t, max_n=32) for t in range(30)] + TIED_GRAPHS
    for g in graphs:
        st = _AvgState(g, heap_impl)
        label = list(range(g.n))
        while True:
            a = next((c for c in range(g.n) if st.active[c] and st.cut[c]), None)
            if a is None:
                break
            b = min(st.cut[a])
            stored = {x: dict(st.heaps[x].entries()) for x in (a, b)}
            folded, survivor = st.fold_order(a, b)
            nbrs = [c for c in st.cut[folded] if c != survivor]
            assert st.merge_structural(a, b, None) == survivor
            # one pass leaves every touched entry final and the folded heap empty
            assert len(st.heaps[folded]) == 0
            for c in nbrs:
                assert st.heaps[c].get(survivor) == st.cut[c][survivor] / st.size[survivor]
                if c in stored[survivor]:  # a joined edge
                    assert st.heaps[survivor].get(c) == st.true_prio(survivor, c)
                else:
                    assert st.heaps[survivor].get(c) == stored[folded][c]
            label = [survivor if x == folded else x for x in label]
            expected: defaultdict = defaultdict(float)
            for u, v, w in g.edges:
                if label[u] != label[v]:
                    expected[label[u], label[v]] += w
                    expected[label[v], label[u]] += w
            for x in range(g.n):
                if not st.active[x]:
                    assert not st.cut[x], (g.n, x)
                    continue
                assert set(st.cut[x]) == set(st.heaps[x].keys())
                for y, cs in st.cut[x].items():
                    assert st.cut[y][x] == cs
                    assert cs == pytest.approx(expected[x, y], rel=1e-12)
            assert len(expected) == sum(len(row) for row in st.cut)


def test_approx_sandwich_invariant():
    # after every merge: one entry per live edge, each at least its true
    # priority, and the merged edge (1-eps)-close to its stored key
    for t in range(12):
        g = random_connected_graph(6000 + t, max_n=48)
        approx_avg_hac(g, 0.1, audit=RunAudit(checks=True))
    for g in [*TIED_GRAPHS[:20], *HUB_STARS[:22]]:
        approx_avg_hac(g, 0.5, heap_impl="meld", audit=RunAudit(checks=True))
    g = random_connected_graph(123, max_n=48)
    approx_avg_hac(g, 0.6, audit=RunAudit(checks=True))


def test_check_owned_is_bitwise():
    # every write stores true_prio itself, so an owned entry one ulp below it
    # is caught, as is a second entry for an edge at its other end
    g = random_connected_graph(5000, max_n=48)
    st = _AvgState(g, "tree", owned=True)
    _check_owned(st, 0.9, 1.0, 1.0)
    a = next(a for a in range(g.n) if len(st.heaps[a]))
    c, p = st.heaps[a].best_edge()
    assert p == st.true_prio(a, c)
    st.heaps[a].update(c, math.nextafter(p, 0.0))
    with pytest.raises(AssertionError, match="below its true priority"):
        _check_owned(st, 0.9, 1.0, 1.0)
    st.heaps[a].update(c, p)
    _check_owned(st, 0.9, 1.0, 1.0)
    st.heaps[c].insert(a, st.true_prio(c, a))
    with pytest.raises(AssertionError, match="has 2 entries"):
        _check_owned(st, 0.9, 1.0, 1.0)
    st.heaps[c].delete(a)
    with pytest.raises(AssertionError, match="not \\(1-eps\\)-close"):
        _check_owned(st, 0.9, 1.0, math.nextafter(0.9, 0.0))


def test_approx_owner_is_higher_degree_endpoint():
    # hub 0 owns its star, the tie between degree-2 vertices 3 and 4 goes to
    # the smaller id, and leaf 5 owns nothing
    g = make_graph(6, [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5), (3, 4, 0.25), (4, 5, 0.75)])
    for heap_impl in ("tree", "meld"):
        st = _AvgState(g, heap_impl, owned=True)
        assert [sorted(h.keys()) for h in st.heaps] == [[1, 2, 3], [], [], [4], [5], []]
        assert [st.degree(c) for c in range(6)] == [3, 1, 1, 2, 2, 1]


@pytest.mark.parametrize("heap_impl", ["tree", "meld"])
def test_merge_owned_branches(heap_impl):
    # 1 folds into 0. Edge (1, 2) is joined by (0, 2), and 2 owns both; 1
    # owns (1, 3); 4 owns (1, 4). Vertices 5-13 only set the degrees.
    g = make_graph(14, [(0, 1, 1.0), (0, 2, 0.5), (0, 5, 0.1), (0, 6, 0.1), (0, 7, 0.1),
                        (1, 2, 0.3), (1, 3, 0.4), (1, 4, 0.2),
                        *[(2, c, 0.1) for c in (10, 11, 12, 13)],
                        *[(4, c, 0.1) for c in (5, 6, 8, 9)]])
    st = _AvgState(g, heap_impl, owned=True)
    assert sorted(st.heaps[1].keys()) == [3]
    assert sorted(st.heaps[2].keys()) == [0, 1, 10, 11, 12, 13]
    st.heaps[1].update(3, 0.625)  # a stale bound moves unchanged
    assert st.merge_owned(0, 1, None) == 0
    assert len(st.heaps[1]) == 0 and not st.cut[1]
    assert dict(st.heaps[0].entries()) == {2: 0.8, 3: 0.625, 5: 0.1, 6: 0.1, 7: 0.1}
    assert sorted(st.heaps[2].keys()) == [10, 11, 12, 13]
    assert dict(st.heaps[4].entries()) == {0: 0.2 / 2, 5: 0.1, 6: 0.1, 8: 0.1, 9: 0.1}
    _check_owned(st, 1.0, 1.0, 1.0)


def test_rebuild_cluster_direct():
    g = make_graph(4, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.25)])
    for heap_impl in ("tree", "meld"):
        st = _AvgState(g, heap_impl)
        stale = [1.0] * 4
        st.merge_structural(0, 1, None)  # folds 0 into 1: size 2
        # make 1's entries stale on the neighbor side by hand
        st.heaps[2].update(1, 99.0)
        rebuild_cluster(st, stale, 1)
        assert stale[1] == 2.0
        assert st.heaps[2].get(1) == pytest.approx(0.5 / 2)
        assert st.heaps[3].get(1) == pytest.approx(0.25 / 2)
        # stored priorities in heap(1) equal cut/|nbr| exactly after a rebuild
        assert sorted(st.heaps[1].keys()) == sorted(st.cut[1])
        for c, prio in st.heaps[1].entries():
            assert prio == st.true_prio(1, c)
        # rebuilding a never-grown cluster only resets the snapshot
        before = dict(st.heaps[2].entries())
        rebuild_cluster(st, stale, 2)
        assert dict(st.heaps[2].entries()) == before and stale[2] == 1.0


def test_refresh_out_edges_direct():
    g = make_graph(4, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.25)])
    st = _AvgState(g, "tree")
    st.merge_structural(0, 1, None)  # cluster 1 grows to size 2
    # 2's entry for 1 was written when 1 had size 1: stale
    assert st.heaps[2].get(1) == pytest.approx(0.5)
    assert refresh_out_edges(st, 2) == 1
    assert st.heaps[2].get(1) == pytest.approx(0.5 / 2)
    # the returned neighbor agrees with a linear rescan of true weights
    for a in (1, 2):
        b = refresh_out_edges(st, a)
        assert b == max(st.cut[a], key=lambda c: (st.true_prio(a, c), -c))
    # a true top is not written: rewrite 3's entry as exact's merge would
    st.heaps[3].update(1, st.true_prio(3, 1))
    before = dict(st.heaps[3].entries())
    assert refresh_out_edges(st, 3) == 1
    assert dict(st.heaps[3].entries()) == before


@pytest.mark.parametrize("heap_impl", ["tree", "meld"])
def test_refresh_out_edges_keeps_true_entries(heap_impl):
    # star 0-{1,2,3}: every entry is true, so nothing is written
    g = make_graph(4, [(0, 1, 1.0), (0, 2, 0.5), (0, 3, 0.25)])
    st = _AvgState(g, heap_impl)
    before = list(st.heaps[0].entries())
    assert refresh_out_edges(st, 0) == 1
    assert list(st.heaps[0].entries()) == before
    assert st.heaps[0].get(1) == st.true_prio(0, 1)


@pytest.mark.parametrize("heap_impl", ["tree", "meld"])
def test_refresh_out_edges_fixed_top_ties_to_smaller_id(heap_impl):
    # 0's entry for 3 tops its heap at 0.5 until 3 grows to size 2; its true
    # 0.25 then ties 0's true entry for 1, and the smaller id wins
    g = make_graph(5, [(0, 1, 0.25), (0, 3, 0.5), (3, 4, 1.0)])
    st = _AvgState(g, heap_impl)
    assert st.merge_structural(3, 4, None) == 3  # 4 folds into 3
    assert st.heaps[0].best_edge() == (3, 0.5)
    assert refresh_out_edges(st, 0) == 1
    assert dict(st.heaps[0].entries()) == {1: 0.25, 3: 0.25}


def _eager_refresh(state, a, audit=None):
    """Oracle for `refresh_out_edges`: rewrite every entry of heap(a) with its
    true priority, then read the top."""
    heap = state.heaps[a]
    for c in state.cut[a]:
        heap.update(c, state.true_prio(a, c))
    return heap.best_edge()[0]


def _unit(g):
    return make_graph(g.n, [(u, v, 1.0) for u, v, _w in g.edges])


def _complete(n):
    return make_graph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])


UNIT_RANDOM = [_unit(random_connected_graph(s)) for s in range(40)]
UNIT_COMPLETE = [_complete(n) for n in range(2, 13)]


@pytest.mark.parametrize("heap_impl", ["tree", "meld"])
def test_exact_validation_on_ties(monkeypatch, heap_impl):
    """Validation on extraction must pick the merges an eager refresh of
    every entry picks, bit for bit, on tie-heavy graphs; with checks on, the
    audit also checks every returned entry (`_check_best`). Naive's global
    heap orders tied merges differently from the chain driver (11 of the 40
    unit-weight random graphs cluster differently), so it is compared only
    where ties cannot change the clustering: K_n and hub stars."""
    graphs = UNIT_RANDOM + UNIT_COMPLETE + HUB_STARS
    validated = [exact_avg_hac(g, heap_impl=heap_impl, audit=RunAudit(checks=True))
                 for g in graphs]
    for g, d in zip(UNIT_COMPLETE + HUB_STARS, validated[len(UNIT_RANDOM):]):
        assert same_clustering(d, naive_avg_hac(g)), g.n
    monkeypatch.setattr(average, "refresh_out_edges", _eager_refresh)
    for g, d in zip(graphs, validated):
        assert exact_avg_hac(g, heap_impl=heap_impl).merges == d.merges, g.n


def test_exact_audit_bounds_rewrites_by_outdegree(monkeypatch):
    """Validation needs only upper bounds: with every stored priority of
    heap(t) doubled before each BestEdge, the merges stay exact, the checks
    after every `best(t)` pass, and `audit.fixes` counts the extra
    rewrites."""
    real_loop = average._chain_loop

    def stale_loop(n, active, degree, best, merge, audit):
        heaps = degree.__self__.heaps  # `degree` is the run's _AvgState.degree

        def stale_best(t):
            for c, p in list(heaps[t].entries()):
                heaps[t].update(c, 2 * p)
            return best(t)

        return real_loop(n, active, degree, stale_best, merge, audit)

    star = star_graph(40)
    plain = RunAudit(checks=True)
    assert same_clustering(exact_avg_hac(star, audit=plain), naive_avg_hac(star))
    monkeypatch.setattr(average, "_chain_loop", stale_loop)
    inflated = RunAudit(checks=True)
    assert same_clustering(exact_avg_hac(star, audit=inflated), naive_avg_hac(star))
    assert inflated.fixes > plain.fixes


def test_engines_reject_negative_weights():
    # shifted by -0.5, exact returned a non-greedy tree unlike naive: a missing
    # edge counts as cut 0, so a merge can raise a negative similarity
    g = random_connected_graph(1)
    g = make_graph(g.n, [(u, v, w - 0.5) for u, v, w in g.edges])
    for engine in ALL_ENGINES:
        with pytest.raises(ValueError, match=r"non-negative weights; edge \("):
            engine(g)
    zero = make_graph(3, [(0, 1, 0.0), (1, 2, 0.5)])
    for engine in ALL_ENGINES:
        assert merge_weights(engine(zero)) == [0.5, 0.0]


def test_engines_reject_overflowing_weight_sum():
    for engine in ALL_ENGINES:
        with pytest.raises(ValueError, match="weight sum of at most"):
            engine(make_graph(3, [(0, 1, 1e308), (1, 2, 1e308)]))
    # at the bound every cut sum is finite: (B/2 + B/2) / (2 * 1)
    half = WEIGHT_BOUND / 2
    g = make_graph(3, [(0, 1, half), (0, 2, half / 2), (1, 2, half / 2)])
    for engine in ALL_ENGINES:
        assert all(math.isfinite(w) for w in merge_weights(engine(g)))


def test_disconnected_components_forest():
    g = make_graph(5, [(0, 1, 0.9), (2, 3, 0.8), (3, 4, 0.2)])
    for engine in ALL_ENGINES:
        d = engine(g)
        assert len(d.merges) == 3
        assert len(d.roots) == 2


def test_exact_orientation_invariant_and_audit(small_graphs):
    for g in small_graphs[:8]:
        audit = RunAudit(checks=True)
        exact_avg_hac(g, audit=audit)
        assert audit.stack_pushes <= 2 * g.n - 1
