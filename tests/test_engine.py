import heapq
import math
import random
from collections import Counter

import pytest

import graphhac
from graphhac import average
from graphhac.average import approx_avg_hac, exact_avg_hac

from graphhac.dendrogram import (
    Dendrogram,
    DendrogramError,
    Merge,
    parse_dendrogram,
    same_clustering,
)
from graphhac.engine import (
    ClusterState,
    RunAudit,
    chain_hac,
    heap_hac,
    merge_clusters,
    merge_cost_bound,
    merge_cost_total,
)
from graphhac.graph import make_graph
from graphhac.heaps import HEAP_IMPLS
from graphhac.instances import star_graph
from graphhac.linkage import TRIANGLE_KINDS, LinkageError
from graphhac.reference import reference_hac

PATH = make_graph(3, [(0, 1, 1.0), (1, 2, 0.6)])
TRIANGLE = make_graph(3, [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 0.5)])


def merge_tuples(d):
    return [(m.left, m.right, pytest.approx(m.weight), m.size) for m in d.merges]


def test_public_names_resolve():
    assert [n for n in graphhac.__all__ if not hasattr(graphhac, n)] == []
    assert len(set(graphhac.__all__)) == len(graphhac.__all__)


def test_chain_path_wpgma():
    d = chain_hac(PATH, "wpgma")
    # the (1,2) edge has no counterpart at the first merge, so it keeps 0.6
    assert d.merges == (Merge(0, 1, 1.0, 2), Merge(3, 2, 0.6, 3))
    assert d.roots == (4,)


def test_chain_triangle_complete():
    d = chain_hac(TRIANGLE, "complete")
    assert d.merges == (Merge(0, 1, 1.0, 2), Merge(3, 2, 0.5, 3))


def test_single_vertex():
    g = make_graph(1, [])
    for run in (chain_hac, heap_hac):
        d = run(g, "single")
        assert d.merges == () and d.roots == (0,)


def test_empty_graph_rejected():
    g = make_graph(0, [])
    for run in (chain_hac, heap_hac):
        with pytest.raises(ValueError):
            run(g, "single")


def test_average_kinds_rejected_by_framework():
    for run in (chain_hac, heap_hac):
        with pytest.raises(LinkageError):
            run(PATH, "avg-exact")


def test_heap_matches_chain_on_path():
    assert heap_hac(PATH, "wpgma").merges == chain_hac(PATH, "wpgma").merges


def test_heap_star_tie_order():
    # star, 4 leaves, unit weights: four merges at 1.0, leaves absorbed in
    # ascending id order under the (weight, owner id, neighbor id) tie rule
    d = heap_hac(star_graph(5), "single")
    # the last merge hits a degree tie (center degree 1 vs leaf degree 1),
    # so the smaller cluster id (the center, node 7 by then) is folded
    assert d.merges == (
        Merge(1, 0, 1.0, 2),
        Merge(2, 5, 1.0, 3),
        Merge(3, 6, 1.0, 4),
        Merge(7, 4, 1.0, 5),
    )


def test_heap_disconnected_components():
    g = make_graph(4, [(0, 1, 0.9), (2, 3, 0.8)])
    d = heap_hac(g, "single")
    assert d.merges == (Merge(0, 1, 0.9, 2), Merge(2, 3, 0.8, 2))
    assert d.roots == (4, 5)
    d2 = chain_hac(g, "single")
    assert same_clustering(d, d2)


def test_merge_clusters_combines_shared_neighbors():
    # heap(A)={B:.9, C:.4}, heap(B)={A:.9, C:.8, D:.2}
    g = make_graph(4, [(0, 1, 0.9), (0, 2, 0.4), (1, 2, 0.8), (1, 3, 0.2)])
    for kind, expect_c in (("wpgma", 0.6), ("complete", 0.4)):
        state = ClusterState(g, kind)
        survivor = merge_clusters(state, 0, 1)
        assert survivor == 1  # deg(0)=2 < deg(1)=3 folds 0 into 1
        assert dict(state.heaps[1].entries()) == pytest.approx({2: expect_c, 3: 0.2})
        assert state.heaps[2].get(1) == pytest.approx(expect_c)
        assert state.size[1] == 2


def test_merge_clusters_disjoint_neighbors_plain_union():
    g = make_graph(4, [(0, 2, 0.4), (0, 1, 0.9), (1, 3, 0.2)])
    state = ClusterState(g, "wpgma")
    survivor = merge_clusters(state, 0, 1)
    assert dict(state.heaps[survivor].entries()) == {2: 0.4, 3: 0.2}


def test_merge_clusters_degree_tie_folds_smaller_id():
    g = make_graph(2, [(0, 1, 0.5)])
    state = ClusterState(g, "single")
    assert merge_clusters(state, 1, 0) == 1
    assert state.builder.merges == [Merge(0, 1, 0.5, 2)]


def test_merge_clusters_errors():
    g = make_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    state = ClusterState(g, "single")
    with pytest.raises(ValueError, match="no mutual edge"):
        merge_clusters(state, 0, 2)
    merge_clusters(state, 0, 1)
    with pytest.raises(ValueError, match="inactive"):
        merge_clusters(state, 0, 2)


def test_oracle_equivalence_small(small_graphs):
    """Both drivers against the dense full-rescan reference.

    For single and complete every driver must agree; wpgma weights depend on
    merge interleaving when edges are missing, so the chain driver is only
    compared where the theory backs it (see the acceptance suite notes).
    """
    for g in small_graphs[:15]:
        for kind in ("single", "complete"):
            ref = reference_hac(g, kind)
            assert heap_hac(g, kind).merges == ref.merges
            assert same_clustering(chain_hac(g, kind), ref)
        assert heap_hac(g, "wpgma").merges == reference_hac(g, "wpgma").merges


def hub_star(n, hub):
    """Unit-weight star on n vertices centred on `hub`."""
    return make_graph(n, [(min(hub, i), max(hub, i), 1.0) for i in range(n) if i != hub])


def tied_graph(seed):
    """Random graph, not always connected, whose integer weights in 1..L
    (L <= 4) make most weights tie."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    levels = rng.randint(1, 4)
    p = rng.choice((0.1, 0.3, 1.0))
    edges = [
        (u, v, float(rng.randint(1, levels)))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return make_graph(n, edges)


TIED_GRAPHS = [tied_graph(t) for t in range(100)]
HUB_STARS = [hub_star(n, hub) for n in (5, 17, 60) for hub in range(n)]


@pytest.mark.parametrize("heap_impl", HEAP_IMPLS)
def test_heap_matches_reference_on_ties(heap_impl):
    """Tie-heavy oracle check: the global-heap driver's tie rule (weight,
    then owner id, then neighbor id) must pick the reference's merges."""
    for g in TIED_GRAPHS + HUB_STARS:
        for kind in TRIANGLE_KINDS:
            ref = reference_hac(g, kind)
            assert heap_hac(g, kind, heap_impl=heap_impl).merges == ref.merges, (g.n, kind)


def test_approx_tree_meld_identical_on_ties():
    for g in TIED_GRAPHS + HUB_STARS:
        tree = approx_avg_hac(g, 0.1, heap_impl="tree")
        assert approx_avg_hac(g, 0.1, heap_impl="meld").merges == tree.merges, g.n


def test_chain_loop_tree_meld_identical_on_ties():
    """Both engines on the shared chain loop: identical merges on either heap
    on tie-heavy graphs, and the loop's audited stack bound holds for exact."""
    for g in TIED_GRAPHS + HUB_STARS:
        for kind in TRIANGLE_KINDS:
            tree = chain_hac(g, kind, heap_impl="tree")
            assert chain_hac(g, kind, heap_impl="meld").merges == tree.merges, (g.n, kind)
        audit = RunAudit()
        tree = exact_avg_hac(g, heap_impl="tree", audit=audit)
        assert audit.stack_pushes <= 2 * g.n - 1
        assert exact_avg_hac(g, heap_impl="meld").merges == tree.merges, g.n


def global_pops(monkeypatch, run):
    """(run(), number of `heapq.heappop` calls it made). The neighbor heaps
    import `heappop` by name, so only the global heap's pops count."""
    pops = 0
    real_pop = heapq.heappop

    def counting_pop(heap):
        nonlocal pops
        pops += 1
        return real_pop(heap)

    monkeypatch.setattr(heapq, "heappop", counting_pop)
    return run(), pops


@pytest.mark.parametrize("heap_impl", HEAP_IMPLS)
def test_heap_pops_linear_on_tied_star(heap_impl, monkeypatch):
    """One queued entry per cluster: on a unit star with a middle hub the
    global heap pops O(n) times, not hub x (n - hub)."""
    n = 400
    d, pops = global_pops(
        monkeypatch, lambda: heap_hac(hub_star(n, n // 2), "single", heap_impl=heap_impl)
    )
    assert len(d.merges) == n - 1
    assert pops <= 3 * n, pops


@pytest.mark.parametrize("heap_impl", HEAP_IMPLS)
@pytest.mark.parametrize("hub", [0, 200])
def test_approx_pops_linear_on_hub_star(heap_impl, hub, monkeypatch):
    """The hub owns every edge of its star, so only the hub has a global-heap
    key, and a leaf's merge touches no other cluster's key: approx's pops
    stay O(n)."""
    n = 400
    d, pops = global_pops(
        monkeypatch, lambda: approx_avg_hac(hub_star(n, hub), 0.1, heap_impl=heap_impl)
    )
    assert len(d.merges) == n - 1
    assert pops <= 3 * n, pops


def test_mirror_and_total_edges_audit(small_graphs):
    for g in small_graphs[:4]:
        chain_hac(g, "single", audit=RunAudit(checks=True))
        heap_hac(g, "complete", audit=RunAudit(checks=True))


def test_audit_checks_switch(monkeypatch, small_graphs):
    """RunAudit(checks=True) runs each engine's invariant checks, after every
    merge, after every BestEdge or once per run; RunAudit() runs none of
    them."""
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for owner, name in ((ClusterState, "check_mirror"), (ClusterState, "check_total_edges"),
                        (average, "_check_best"), (average, "_check_owned"),
                        (average, "refresh_out_edges")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    g = next(g for g in small_graphs if g.n >= 4)
    merges = g.n - 1  # the test graphs are connected
    for checks in (False, True):
        calls.clear()
        chain_hac(g, "single", audit=RunAudit(checks))
        heap_hac(g, "complete", audit=RunAudit(checks))
        exact_avg_hac(g, audit=RunAudit(checks))
        approx_avg_hac(g, audit=RunAudit(checks))
        bests = calls.pop("refresh_out_edges")  # exact's BestEdge calls
        assert bests >= merges
        assert calls == (Counter(check_mirror=2 * merges, check_total_edges=2,
                                 _check_best=bests, _check_owned=merges)
                         if checks else Counter())


def test_stack_discipline(small_graphs):
    for g in small_graphs[:10]:
        audit = RunAudit()
        chain_hac(g, "wpgma", audit=audit)
        assert audit.stack_pushes <= 2 * g.n - 1


def test_merge_cost_examples():
    # star on 5 vertices: each leaf merge costs 1
    audit = RunAudit()
    heap_hac(star_graph(5), "single", audit=audit)
    assert merge_cost_total(audit.merge_degrees) == 4
    assert merge_cost_total(audit.merge_degrees) <= merge_cost_bound(4) == pytest.approx(
        2 * 4 * (math.log2(8) + 1)
    )
    # single edge: cost 1
    audit = RunAudit()
    chain_hac(make_graph(2, [(0, 1, 1.0)]), "single", audit=audit)
    assert merge_cost_total(audit.merge_degrees) == 1
    # path on 3 vertices: 1 + 1
    audit = RunAudit()
    chain_hac(PATH, "single", audit=audit)
    assert merge_cost_total(audit.merge_degrees) == 2


def test_merge_cost_bound_random(small_graphs):
    for g in small_graphs[:10]:
        for run in (chain_hac, heap_hac):
            audit = RunAudit()
            run(g, "single", audit=audit)
            assert merge_cost_total(audit.merge_degrees) <= merge_cost_bound(g.m)


def test_dendrogram_text_round_trip():
    d = chain_hac(PATH, "wpgma")
    text = d.format_text()
    assert text.splitlines()[0] == "n 3"
    back = parse_dendrogram(text)
    assert back == d
    # 17 significant digits survive the round trip exactly
    g = make_graph(2, [(0, 1, 1 / 3)])
    d2 = chain_hac(g, "single")
    assert parse_dendrogram(d2.format_text()).merges[0].weight == 1 / 3


def test_dendrogram_validation_errors():
    with pytest.raises(DendrogramError):
        Dendrogram(3, (Merge(0, 1, 1.0, 3),), (4, 2)).validate()  # bad size
    with pytest.raises(DendrogramError):
        Dendrogram(3, (Merge(0, 0, 1.0, 2),), (4, 2)).validate()  # id reuse
    with pytest.raises(DendrogramError):
        Dendrogram(3, (Merge(0, 1, 1.0, 2),), (2,)).validate()  # missing root
