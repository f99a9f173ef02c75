"""Acceptance suite: one test per numbered criterion, each printing a PASS
line (run with `pytest -s` to see them live).

Criterion 1's WPGMA chain-driver leg is implemented faithfully in
test_criterion_1_wpgma_chain_leg and is a documented expected failure; see
that test's docstring for the analysis and the hand-traced counterexample.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import pytest
from test_engine import HUB_STARS

from graphhac.average import approx_avg_hac, exact_avg_hac, naive_avg_hac
from graphhac.dendrogram import same_clustering
from graphhac.engine import (
    RunAudit,
    chain_hac,
    heap_hac,
    merge_cost_bound,
    merge_cost_total,
)
from graphhac.evaluation import best_level_scores, closeness_audit
from graphhac.graph import build_knn_graph, load_labels, load_points_csv
from graphhac.heaps import HEAP_IMPLS
from graphhac.instances import random_connected_graph, star_graph
from graphhac.linkage import TRIANGLE_KINDS
from graphhac.reference import reference_hac

DATA = Path(__file__).resolve().parent.parent / "data"
C1_SEED = 20260100
C4_SEED = 40400400


def records_match(a, b, rel=1e-9) -> bool:
    """Merge-for-merge identity: pairs and sizes exact, weights within rel."""
    if a.n != b.n or len(a.merges) != len(b.merges) or a.roots != b.roots:
        return False
    for ma, mb in zip(a.merges, b.merges):
        if (ma.left, ma.right, ma.size) != (mb.left, mb.right, mb.size):
            return False
        if abs(ma.weight - mb.weight) > rel * max(abs(ma.weight), abs(mb.weight)):
            return False
    return True


@pytest.fixture(scope="module")
def c1_graphs():
    return [random_connected_graph(C1_SEED + t, max_n=64, max_m=256) for t in range(100)]


@pytest.fixture(scope="module")
def c1_runs(c1_graphs):
    t0 = time.perf_counter()
    runs = []
    for g in c1_graphs:
        per = {}
        for kind in TRIANGLE_KINDS:
            chain_audit, heap_audit = RunAudit(), RunAudit()
            per[kind] = {
                "ref": reference_hac(g, kind),
                "chain": chain_hac(g, kind, audit=chain_audit),
                "heap": heap_hac(g, kind, audit=heap_audit),
                "chain_audit": chain_audit,
                "heap_audit": heap_audit,
            }
        runs.append(per)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def c2_runs(c1_graphs):
    t0 = time.perf_counter()
    out = []
    for g in c1_graphs:
        audit = RunAudit()
        exact = exact_avg_hac(g, audit=audit)
        naive = naive_avg_hac(g)
        out.append((g, exact, naive, audit))
    return out, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence_triangle(c1_runs, c1_graphs):
    runs, elapsed = c1_runs
    for g, per in zip(c1_graphs, runs):
        for kind in ("single", "complete"):
            assert records_match(per[kind]["heap"], per[kind]["ref"]), (g.n, kind)
            assert same_clustering(per[kind]["chain"], per[kind]["ref"]), (g.n, kind)
        assert records_match(per["wpgma"]["heap"], per["wpgma"]["ref"])
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s"
    print(
        f"\nPASS criterion-1: chain/heap/reference agree on 100 graphs "
        f"(single, complete; wpgma via heap driver) in {elapsed:.1f}s; "
        "wpgma chain leg documented in the xfail test"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "WPGMA over incomplete graphs is execution-order dependent: with the "
        "undefined-similarity rule 'keep the existing edge weight', the weight "
        "of a cluster pair depends on how sibling merges interleave, so the "
        "mutual-best-merge (chain) and global-greedy (heap/reference) orders "
        "legitimately produce different dendrograms. Verified by hand on a "
        "5-vertex graph (see docstring); single/complete/average are pure "
        "functions of cluster contents and do not exhibit this."
    ),
)
def test_criterion_1_wpgma_chain_leg(c1_runs, c1_graphs):
    """Faithful remaining leg of criterion 1: chain == greedy for wpgma.

    Counterexample (9 edges on vertices 0..4, all weights distinct, edge
    (0,3) absent): greedy merges {3,4} then {0,1}; the chain, walking from
    vertex 0, merges {0,1} first. Both then merge {2} into {3,4} and join
    the two trees, producing the same tree shape. But the weight of the
    final merge differs: merging {0,1} first stores
    W({0,1},3) = w13, then W({0,1},{3,4}) = w13/2 + w04/4 + w14/4, while
    merging {3,4} first stores W(0,{3,4}) = w04, then
    W({0,1},{3,4}) = w04/2 + w13/4 + w14/4. Unless w04 == w13 the two
    executions disagree, and on larger graphs the diverging weights also
    change later merge topology. Both engines apply the per-merge rule
    exactly; the cross-engine equivalence claim itself is what fails.
    """
    runs, _ = c1_runs
    for per in runs:
        assert same_clustering(per["wpgma"]["chain"], per["wpgma"]["ref"])
    print("\nPASS criterion-1-wpgma-chain (unexpected: see xfail reason)")


def test_criterion_2_exact_average_equivalence(c2_runs):
    runs, elapsed = c2_runs
    for _g, exact, naive, _audit in runs:
        assert same_clustering(exact, naive)
    assert elapsed < 30.0, f"criterion 2 runtime {elapsed:.1f}s"
    print(f"\nPASS criterion-2: exact == naive average-linkage on 100 graphs in {elapsed:.1f}s")


def test_criterion_3_representation_equivalence(c1_graphs, c1_runs):
    runs, _ = c1_runs
    for g, per in zip(c1_graphs[:100], runs):
        for kind in TRIANGLE_KINDS:
            assert chain_hac(g, kind, heap_impl="meld").merges == per[kind]["chain"].merges
            assert heap_hac(g, kind, heap_impl="meld").merges == per[kind]["heap"].merges
    for g in c1_graphs[:25]:
        assert exact_avg_hac(g, heap_impl="meld").merges == exact_avg_hac(g).merges
        assert (
            approx_avg_hac(g, 0.1, heap_impl="meld").merges
            == approx_avg_hac(g, 0.1).merges
        )
    print("\nPASS criterion-3: tree and meld heaps give identical dendrograms")


def test_criterion_4_epsilon_closeness():
    graphs = [random_connected_graph(C4_SEED + t, max_n=128, max_m=512) for t in range(100)]
    worst = 1.0
    for g in graphs:
        r = closeness_audit(g, approx_avg_hac(g, 0.1), 0.1)
        assert r.passed, (g.n, g.m, r.worst_ratio)
        worst = min(worst, r.worst_ratio)
        r0 = closeness_audit(g, naive_avg_hac(g), 0.0)
        assert r0.passed and r0.worst_ratio >= 1.0 - 1e-9
    print(
        f"\nPASS criterion-4: approx eps=0.1 close on 100 graphs "
        f"(worst ratio {worst:.4f}); heap-driver exact engine passes eps=0"
    )


def test_criterion_5_stored_vs_true_sandwich(c1_graphs):
    """After every approximate merge each live edge has exactly one heap
    entry, no entry is below its true priority, and the merged edge's true
    priority is at least (1-eps) times its stored one (`_check_owned`)."""
    for g in c1_graphs[:40]:
        approx_avg_hac(g, 0.1, audit=RunAudit(checks=True))
    for t in range(10):
        g = random_connected_graph(C4_SEED + 777 + t, max_n=128, max_m=512)
        approx_avg_hac(g, 0.1, audit=RunAudit(checks=True))
    print(
        "\nPASS criterion-5: one entry per live edge, true <= stored, and "
        "(1-eps) * stored <= true on each merged edge, through 50 instrumented "
        "approximate runs"
    )


def test_criterion_6_merge_cost_bound(c1_graphs, c1_runs, c2_runs):
    runs, _ = c1_runs
    for g, per in zip(c1_graphs, runs):
        bound = merge_cost_bound(g.m)
        for kind in TRIANGLE_KINDS:
            for side in ("chain_audit", "heap_audit"):
                total = merge_cost_total(per[kind][side].merge_degrees)
                assert total <= bound, (g.n, g.m, kind, side, total, bound)
    # exact average linkage's rewrite bound (criterion 7) rests on this too
    for g, _exact, _naive, audit in c2_runs[0]:
        total, bound = merge_cost_total(audit.merge_degrees), merge_cost_bound(g.m)
        assert total <= bound, (g.n, g.m, "avg-exact", total, bound)
    print("\nPASS criterion-6: sum of min-degrees <= 2m(log2(2m)+1) on every run")


def test_criterion_7_validation_bound(c1_graphs):
    """Exact average linkage's validation on extraction rewrites at most
    |P| + 2n sqrt(3|P|) heap entries, where P holds the pairs that ever
    share an entry and |P| <= 2m + 2 * merge_cost_total (the argument is in
    `exact_avg_hac`'s docstring). Checks run after every BestEdge on the c1
    graphs and the hub stars. On the n = 10^4 star a check reads the hub's
    whole heap, about n^2/2 entries over the run, so that run only counts."""
    big = star_graph(10**4)
    worst, runs = 0.0, 0
    for heap_impl in HEAP_IMPLS:
        for g in [*c1_graphs, *HUB_STARS, big]:
            audit = RunAudit(checks=g is not big)
            exact_avg_hac(g, heap_impl=heap_impl, audit=audit)
            pairs = 2 * g.m + 2 * merge_cost_total(audit.merge_degrees)
            bound = pairs + 2 * g.n * math.sqrt(3 * pairs)
            assert audit.fixes <= bound, (heap_impl, g.n, g.m, audit.fixes, bound)
            worst = max(worst, audit.fixes / bound)
            runs += 1
    print(
        f"\nPASS criterion-7: fixes <= |P| + 2n*sqrt(3|P|) on {runs} exact runs "
        f"(worst ratio {worst:.3f})"
    )


def test_criterion_8_iris_quality():
    t0 = time.perf_counter()
    pts = load_points_csv(DATA / "iris.csv")
    truth = list(load_labels(DATA / "iris_labels.txt"))
    g = build_knn_graph(pts, 50)
    d = approx_avg_hac(g, 0.1)
    scores = best_level_scores(d, truth)
    elapsed = time.perf_counter() - t0
    assert scores.best_ari >= 0.70, scores.best_ari
    assert scores.best_nmi >= 0.75, scores.best_nmi
    assert elapsed < 10.0
    print(
        f"\nPASS criterion-8: iris k=50 approx avg: ARI {scores.best_ari:.3f} "
        f"(>=0.70), NMI {scores.best_nmi:.3f} (>=0.75) in {elapsed:.1f}s"
    )


def test_criterion_9_scaling_sanity():
    t0 = time.perf_counter()
    approx_t: dict[int, float] = {}
    for n in (10**3, 10**4, 10**5):
        g = star_graph(n)
        reps = 2 if n < 10**5 else 1
        best = math.inf
        for _ in range(reps):
            s = time.perf_counter()
            approx_avg_hac(g, 0.1)
            best = min(best, time.perf_counter() - s)
        approx_t[n] = best
    q = {n: t / (n * math.log2(n) ** 2) for n, t in approx_t.items()}
    assert q[10**4] <= 3.0 * q[10**3], q
    assert q[10**5] <= 3.0 * q[10**4], q
    g4 = star_graph(10**4)
    s = time.perf_counter()
    naive_avg_hac(g4)
    naive_t = time.perf_counter() - s
    assert naive_t >= 5.0 * approx_t[10**4], (naive_t, approx_t[10**4])
    total = time.perf_counter() - t0
    assert total < 300.0
    print(
        f"\nPASS criterion-9: approx star times "
        f"{approx_t[10**3]:.2f}/{approx_t[10**4]:.2f}/{approx_t[10**5]:.2f}s "
        f"(n log^2 n ratios {q[10**4]/q[10**3]:.2f}, {q[10**5]/q[10**4]:.2f} <= 3); "
        f"naive at n=1e4 is {naive_t/approx_t[10**4]:.1f}x slower (>=5x); "
        f"total {total:.0f}s"
    )
