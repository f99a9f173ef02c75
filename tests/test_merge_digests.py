"""Pinned merges: one SHA-256 of the dendrogram text per engine config x heap
x graph family.

A refactor of an engine's merge step must leave every digest unchanged. The
stored digests live in `merge_digests.json`; after a change that is meant to
alter merges, regenerate them with

    PYTHONPATH=src python tests/test_merge_digests.py --write

and say in the change why the merges moved.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import sys
from pathlib import Path

import pytest
from test_engine import hub_star, tied_graph

from graphhac import average
from graphhac.average import _AvgState, approx_avg_hac, exact_avg_hac, naive_avg_hac
from graphhac.engine import chain_hac, heap_hac
from graphhac.graph import build_knn_graph, load_points_csv, make_graph
from graphhac.heaps import HEAP_IMPLS
from graphhac.instances import random_connected_graph, random_sparse_graph
from graphhac.linkage import TRIANGLE_KINDS

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "merge_digests.json"
IRIS = HERE.parent / "data" / "iris.csv"


def _forest():
    """Three random trees-plus-edges side by side and an isolated vertex."""
    edges, base = [], 0
    for seed in (1, 12, 21):
        g = random_connected_graph(seed, max_n=20)
        edges += [(base + u, base + v, w) for u, v, w in g.edges]
        base += g.n
    return make_graph(base + 1, edges)


FAMILIES = {
    "random": lambda: [random_connected_graph(s) for s in range(30)],
    "tied": lambda: [tied_graph(t) for t in range(40)],
    "hub_star": lambda: [hub_star(n, h) for n in (17, 60) for h in (0, 1, n // 2, n - 1)],
    "forest": lambda: [_forest()],
    "sparse300": lambda: [random_sparse_graph(3, 300)],
    "iris_k5": lambda: [build_knn_graph(load_points_csv(IRIS), 5)],
    "iris_k15": lambda: [build_knn_graph(load_points_csv(IRIS), 15)],
}


@functools.cache
def family(name):
    return FAMILIES[name]()


def _configs():
    """(config name, heap or None, run(graph, heap) -> Dendrogram)."""
    yield "naive", None, lambda g, _h: naive_avg_hac(g)
    for heap in HEAP_IMPLS:
        yield "exact", heap, lambda g, h: exact_avg_hac(g, heap_impl=h)
        for eps in (0.1, 0.5):
            yield f"approx-{eps}", heap, lambda g, h, e=eps: approx_avg_hac(g, e, heap_impl=h)
        for kind in TRIANGLE_KINDS:
            for name, drive in (("chain", chain_hac), ("heap", heap_hac)):
                yield (
                    f"{kind}-{name}",
                    heap,
                    lambda g, h, k=kind, d=drive: d(g, k, heap_impl=h),
                )


CASES = {
    f"{config}/{heap or '-'}/{fam}": (run, heap, fam)
    for config, heap, run in _configs()
    for fam in FAMILIES
}


def merge_digest(key: str) -> str:
    run, heap, fam = CASES[key]
    h = hashlib.sha256()
    for g in family(fam):
        h.update(run(g, heap).format_text().encode())
    return h.hexdigest()


def compute_all() -> dict[str, str]:
    return {key: merge_digest(key) for key in CASES}


@functools.cache
def stored() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_keys_cover_every_case():
    assert set(stored()) == set(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_merges_match_digest(key):
    assert merge_digest(key) == stored()[key], key


@pytest.mark.parametrize("fam", ["random", "tied"])
def test_approx_rekey_fires_on_family(fam, monkeypatch):
    """The global-heap loop's bulk re-key after a large approx rebuild runs
    on these families, so their approx digests pin it beyond stars. The loop
    calls `heapify` once to start and once per re-key."""
    calls = 0
    real_heapify = heapq.heapify

    def counting_heapify(heap):
        nonlocal calls
        calls += 1
        real_heapify(heap)

    monkeypatch.setattr(heapq, "heapify", counting_heapify)
    graphs = family(fam)
    for g in graphs:
        approx_avg_hac(g, 0.1)
    assert calls > len(graphs), (calls, len(graphs))


@pytest.mark.parametrize("fam", ["random", "tied"])
def test_approx_rebuild_branches_fire_on_family(fam, monkeypatch):
    """Both ways an approx merge rebuilds its survivor run on these families
    at epsilon 0.1, so their approx digests pin both: a balanced merge folds
    only the rows and the rebuild builds the survivor's heap fresh, any
    other moves the folded entries and the rebuild walks the heap."""
    fresh = rebuilds = 0
    real_fold_rows, real_rebuild = _AvgState.fold_rows, average.rebuild_cluster

    def fold_rows(*args):
        nonlocal fresh
        fresh += 1
        return real_fold_rows(*args)

    def rebuild_cluster(*args):
        nonlocal rebuilds
        rebuilds += 1
        return real_rebuild(*args)

    monkeypatch.setattr(_AvgState, "fold_rows", fold_rows)
    monkeypatch.setattr(average, "rebuild_cluster", rebuild_cluster)
    for g in family(fam):
        approx_avg_hac(g, 0.1)
    assert 0 < fresh < rebuilds, (fresh, rebuilds)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_merge_digests.py --write")
    DIGESTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} digests to {DIGESTS}")
