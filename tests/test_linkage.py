import random

import numpy as np
import pytest

from graphhac.engine import ClusterState, chain_hac, heap_hac, merge_clusters
from graphhac.graph import make_graph
from graphhac.instances import random_connected_graph
from graphhac.linkage import (
    AVERAGE_KINDS,
    TRIANGLE_KINDS,
    WEIGHT_BOUND,
    LinkageError,
    combine_fn,
    is_triangle_based,
)


def test_combine_examples():
    assert combine_fn("wpgma")(0.4, 0.8) == pytest.approx(0.6)
    assert combine_fn("complete")(0.4, 0.8) == 0.4
    assert combine_fn("single")(0.4, 0.8) == 0.8


def test_combine_rejects_average_kinds():
    for kind in AVERAGE_KINDS:
        with pytest.raises(LinkageError):
            combine_fn(kind)


@pytest.mark.parametrize("driver", [chain_hac, heap_hac])
def test_weight_domain_of_triangle_linkages(driver):
    big = make_graph(3, [(0, 1, 1.7e308), (1, 2, -1.7e308), (0, 2, 1e308)])
    with pytest.raises(LinkageError, match=r"wpgma needs \|w\| <= .*edge \(0,1\)"):
        driver(big, "wpgma")
    for kind in ("single", "complete"):  # they only compare weights
        assert len(driver(big, kind).merges) == 2
    # at the bound every mean stays finite, negative weights included
    edge = make_graph(3, [(0, 1, WEIGHT_BOUND), (1, 2, -WEIGHT_BOUND), (0, 2, WEIGHT_BOUND)])
    assert all(np.isfinite(m.weight) for m in driver(edge, "wpgma").merges)


def test_kind_classification():
    assert all(is_triangle_based(k) for k in TRIANGLE_KINDS)
    assert not any(is_triangle_based(k) for k in AVERAGE_KINDS)
    with pytest.raises(LinkageError):
        is_triangle_based("ward")


@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_triangle_based_property(kind):
    """Merging B and C must not disturb the stored weight of (A, B u C) for
    any A that had no edge to C."""
    rng = random.Random(5)
    for trial in range(20):
        g = random_connected_graph(rng.randrange(10**6), max_n=24, max_m=60)
        state = ClusterState(g, kind)
        edges = [(u, v) for u, v, _ in g.edges]
        b, c = edges[rng.randrange(len(edges))]
        unaffected = {
            a: w
            for a, w in state.heaps[b].entries()
            if a != c and state.heaps[c].get(a) is None
        }
        survivor = merge_clusters(state, b, c)
        for a, prior in unaffected.items():
            assert state.heaps[a].get(survivor) == prior
            assert state.heaps[survivor].get(a) == prior


def _dense_step(kind, mat, sizes):
    """One greedy merge on a dense NaN matrix; returns (x, y, new_row)."""
    vals = mat / np.outer(sizes, sizes) if kind == "average" else mat
    flat = np.nanargmax(vals)
    x, y = divmod(int(flat), len(mat))
    a, b = mat[x], mat[y]
    if kind == "single":
        row = np.fmax(a, b)
    elif kind == "complete":
        row = np.fmin(a, b)
    elif kind == "wpgma":
        row = np.where(np.isnan(a), b, np.where(np.isnan(b), a, (a + b) / 2))
    else:
        row = np.where(np.isnan(a), b, np.where(np.isnan(b), a, a + b))
    return x, y, row


@pytest.mark.parametrize("kind", ["single", "complete", "wpgma", "average"])
def test_reducibility_spot_check(kind):
    """Merging mutual best-neighbors X, Y never increases their similarity to
    any third cluster beyond max(W(X,Z), W(Y,Z)).

    Checked by brute force on dense matrices at every greedy step (a greedy
    max pair is always a mutual best-neighbor pair).
    """
    rng = random.Random(11)
    for trial in range(12):
        g = random_connected_graph(rng.randrange(10**6), max_n=16, max_m=48)
        n = g.n
        mat = np.full((n, n), np.nan)
        for u, v, w in g.edges:
            mat[u, v] = mat[v, u] = w
        sizes = np.ones(n)
        for _ in range(n - 1):
            vals = mat / np.outer(sizes, sizes) if kind == "average" else mat
            if np.all(np.isnan(vals)):
                break
            x, y, row = _dense_step(kind, mat, sizes)
            old = np.fmax(vals[x], vals[y])  # elementwise max, NaN-skipping
            sizes_merged = sizes[x] + sizes[y]
            new_vals = (
                row / (sizes_merged * sizes) if kind == "average" else row
            )
            both = ~np.isnan(new_vals) & ~np.isnan(old)
            both[x] = both[y] = False
            assert np.all(new_vals[both] <= old[both] + 1e-12)
            mat[y], mat[:, y] = row, row
            mat[x], mat[:, x] = np.nan, np.nan
            mat[y, y] = np.nan
            sizes[y] += sizes[x]
            sizes[x] = 1  # keep outer() finite; row/col x already NaN
