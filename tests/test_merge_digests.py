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
import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from test_engine import hub_star, tied_graph

from graphhac.average import _AvgState, approx_avg_hac, exact_avg_hac, naive_avg_hac
from graphhac.engine import RunAudit, chain_hac, heap_hac
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
def test_approx_merge_branches_fire_on_family(fam, monkeypatch):
    """Every way an approx run rewrites an entry occurs on these families at
    epsilon 0.1, so their approx digests pin each: validation fixes, and
    per folded neighbor of a merge a joined edge written at the survivor, a
    bound moved from the folded side, or an entry relabelled at the
    neighbor. Each folded neighbor's entry is checked after its merge."""
    seen: Counter = Counter()
    real = _AvgState.merge_owned

    def merge_owned(st, a, b, audit):
        f, s = st.fold_order(a, b)
        before = [(c, c in st.cut[s], st.heaps[f].get(c)) for c in st.cut[f] if c != s]
        assert real(st, a, b, audit) == s
        for c, joined, mine in before:
            if joined:
                seen["joined"] += 1
                assert st.heaps[s].get(c) == st.true_prio(s, c) and s not in st.heaps[c]
            elif mine is not None:
                seen["moved"] += 1
                assert st.heaps[s].get(c) == mine and s not in st.heaps[c]
            else:
                seen["relabelled"] += 1
                assert st.heaps[c].get(s) == st.true_prio(c, s) and c not in st.heaps[s]
        return s

    monkeypatch.setattr(_AvgState, "merge_owned", merge_owned)
    for g in family(fam):
        audit = RunAudit()
        approx_avg_hac(g, 0.1, audit=audit)
        seen["fixes"] += audit.fixes
    assert min(seen[k] for k in ("fixes", "joined", "moved", "relabelled")) > 0, seen


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_merge_digests.py --write")
    DIGESTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} digests to {DIGESTS}")
