import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhac import evaluation
from graphhac.average import approx_avg_hac, naive_avg_hac
from graphhac.dendrogram import Dendrogram, Merge
from graphhac.engine import chain_hac
from graphhac.evaluation import (
    ari,
    best_level_scores,
    closeness_audit,
    cut_dendrogram,
    nmi,
)
from graphhac.graph import make_graph
from graphhac.instances import random_connected_graph


def star_dendrogram():
    return Dendrogram(
        5,
        (
            Merge(0, 1, 1.0, 2),
            Merge(5, 2, 0.9, 3),
            Merge(6, 3, 0.8, 4),
            Merge(7, 4, 0.7, 5),
        ),
        (8,),
    )


def test_cut_examples():
    d = star_dendrogram()
    assert cut_dendrogram(d, 2) == [0, 0, 0, 0, 1]
    assert cut_dendrogram(d, 5) == [0, 1, 2, 3, 4]
    assert cut_dendrogram(d, 1) == [0, 0, 0, 0, 0]


def test_cut_range_errors():
    d = star_dendrogram()
    for bad in (0, 6):
        with pytest.raises(ValueError):
            cut_dendrogram(d, bad)
    # two components cannot be flattened into one cluster
    g = make_graph(4, [(0, 1, 0.9), (2, 3, 0.8)])
    forest = chain_hac(g, "single")
    with pytest.raises(ValueError, match="components"):
        cut_dendrogram(forest, 1)


def test_cut_undoes_weakest_merges_for_chain_order():
    # the chain driver discovers the 0.5 merge before the 0.9 one; a level
    # cut must still undo the weakest merges first, not the latest ones
    g = make_graph(4, [(0, 1, 0.5), (1, 2, 0.4), (2, 3, 0.9)])
    chain_d = chain_hac(g, "single")
    assert [m.weight for m in chain_d.merges] == [0.5, 0.9, 0.4]  # not sorted
    assert cut_dendrogram(chain_d, 3) == [0, 1, 2, 2]  # keeps only the 0.9
    assert cut_dendrogram(chain_d, 2) == [0, 0, 1, 1]
    from graphhac.engine import heap_hac

    heap_d = heap_hac(g, "single")
    for k in range(1, 5):
        assert cut_dendrogram(chain_d, k) == cut_dendrogram(heap_d, k)


def test_cut_ranks_inverted_merge_with_its_child():
    # the 0.9 merge sits above the 0.1 merge, so it ranks at 0.1, after it
    inverted = Dendrogram(3, (Merge(0, 1, 0.1, 2), Merge(3, 2, 0.9, 3)), (4,))
    assert [cut_dendrogram(inverted, k) for k in (1, 2, 3)] == [
        [0, 0, 0], [0, 0, 1], [0, 1, 2]
    ]


def test_cut_cluster_counts_property():
    for t in range(10):
        g = random_connected_graph(300 + t, max_n=32)
        d = chain_hac(g, "single")
        for k in range(1, g.n + 1):
            labels = cut_dendrogram(d, k)
            assert len(set(labels)) == k
            assert sorted(set(labels)) == list(range(k))  # contiguous from 0


def test_ari_examples():
    assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)
    labels = [0, 1, 1, 2, 0]
    assert ari(labels, labels) == 1.0
    with pytest.raises(ValueError):
        ari([0, 1], [0, 1, 2])


def test_nmi_examples():
    assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)
    assert nmi([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nmi([0], [0, 1])


def _ari_pairs_oracle(a, b):
    """Independent ARI: raw pair agreement counts, no contingency table."""
    a, b = np.asarray(a), np.asarray(b)
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    iu = np.triu_indices(len(a), k=1)
    sa, sb = same_a[iu], same_b[iu]
    n11 = float(np.sum(sa & sb))
    n10 = float(np.sum(sa & ~sb))
    n01 = float(np.sum(~sa & sb))
    n00 = float(np.sum(~sa & ~sb))
    num = 2.0 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    return 1.0 if den == 0.0 else num / den


def _nmi_oracle(a, b):
    """Independent NMI via numpy unique counts."""
    a, b = np.asarray(a), np.asarray(b)
    n = len(a)

    def entropy(x):
        _, counts = np.unique(x, return_counts=True)
        p = counts / n
        return float(-(p * np.log(p)).sum())

    joint = np.stack([a, b], axis=1)
    _, counts = np.unique(joint, axis=0, return_counts=True)
    pj = counts / n
    _, ca = np.unique(a, return_counts=True)
    _, cb = np.unique(b, return_counts=True)
    ha, hb = entropy(a), entropy(b)
    if ha + hb == 0.0:
        return 0.0
    # I(A;B) = H(A) + H(B) - H(A,B)
    hj = float(-(pj * np.log(pj)).sum())
    return (ha + hb - hj) / ((ha + hb) / 2.0)


def test_metrics_match_bruteforce_oracles():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(2, 200)
        ka, kb = rng.randint(1, 8), rng.randint(1, 8)
        a = [rng.randrange(ka) for _ in range(n)]
        b = [rng.randrange(kb) for _ in range(n)]
        assert ari(a, b) == pytest.approx(_ari_pairs_oracle(a, b), abs=1e-12)
        assert nmi(a, b) == pytest.approx(_nmi_oracle(a, b), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=40),
    st.permutations(list(range(6))),
)
def test_ari_symmetric_and_permutation_invariant(a, perm):
    b = [perm[x] for x in a]
    assert ari(a, b) == pytest.approx(1.0)
    other = [(x + 1) % 3 for x in range(len(a))]
    assert ari(a, other) == pytest.approx(ari(other, a))
    assert nmi(a, other) == pytest.approx(nmi(other, a))


def test_best_level_recoverable_truth():
    g = make_graph(4, [(0, 1, 0.9), (1, 2, 0.1), (2, 3, 0.8)])
    d = chain_hac(g, "single")
    scores = best_level_scores(d, [0, 0, 1, 1])
    assert scores.best_ari == pytest.approx(1.0)
    assert scores.best_nmi == pytest.approx(1.0)
    assert scores.best_ari_at == 2
    assert len(scores.table) == 4


def test_best_level_single_leaf():
    d = Dendrogram(1, (), (0,))
    scores = best_level_scores(d, [0])
    assert scores.table == ((1, 1.0, 0.0),)


def test_best_level_label_mismatch():
    with pytest.raises(ValueError):
        best_level_scores(star_dendrogram(), [0, 1])


def test_best_level_sampling():
    g = random_connected_graph(77, max_n=24)
    d = chain_hac(g, "single")
    truth = [i % 3 for i in range(g.n)]
    full = best_level_scores(d, truth)
    sampled = best_level_scores(d, truth, levels=[1, 2, 3])
    assert len(sampled.table) == 3
    assert {k for k, _, _ in sampled.table} == {1, 2, 3}
    with pytest.raises(ValueError):
        best_level_scores(d, truth, levels=[0])
    assert full.best_ari >= sampled.best_ari - 1e-12


@st.composite
def dendrogram_truth_levels(draw):
    """A random merge sequence (forest or tree, tied weights, weights not
    monotone in merge order, n = 1 included), truth labels and a level
    subset that may hold invalid counts."""
    n = draw(st.integers(1, 14))
    live, size, merges = list(range(n)), [1] * n, []
    for i in range(draw(st.integers(0, n - 1))):
        a = live.pop(draw(st.integers(0, len(live) - 1)))
        b = live.pop(draw(st.integers(0, len(live) - 1)))
        w = draw(st.sampled_from([0.25, 0.5, 0.5, 1.0]))
        size.append(size[a] + size[b])
        merges.append(Merge(a, b, w, size[-1]))
        live.append(n + i)
    d = Dendrogram(n, tuple(merges), tuple(sorted(live)))
    truth = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    levels = draw(st.none() | st.lists(st.integers(0, n + 1), max_size=n + 2))
    return d, truth, levels


@settings(max_examples=400, deadline=None)
@given(dendrogram_truth_levels())
def test_best_level_sweep_equals_per_level_oracle(case):
    d, truth, levels = case
    lo = d.n - len(d.merges)
    ks = range(lo, d.n + 1) if levels is None else sorted(set(levels))
    oracle = []
    try:
        for k in ks:
            labels = cut_dendrogram(d, k)
            oracle.append((k, ari(labels, truth), nmi(labels, truth)))
    except ValueError:
        with pytest.raises(ValueError):
            best_level_scores(d, truth, levels)
        return
    scores = best_level_scores(d, truth, levels)
    assert scores.table == tuple(oracle)
    if oracle:  # ties go to the fewest clusters
        top_a = max(a for _, a, _ in oracle)
        top_m = max(m for _, _, m in oracle)
        assert scores.best_ari_at == min(k for k, a, _ in oracle if a == top_a)
        assert scores.best_nmi_at == min(k for k, _, m in oracle if m == top_m)
        assert (scores.best_ari, scores.best_nmi) == (top_a, top_m)


def test_best_level_scores_skips_the_per_level_path(monkeypatch):
    # a return to cutting and rescoring every level would call these
    def refuse(*_args):
        raise AssertionError("per-level path called")

    for name in ("cut_dendrogram", "ari", "nmi"):
        monkeypatch.setattr(evaluation, name, refuse)
    n = 200
    merges = tuple(Merge(0 if i == 0 else n + i - 1, i + 1, 1.0 / (i + 1), i + 2)
                   for i in range(n - 1))
    d = Dendrogram(n, merges, (2 * n - 2,))
    scores = best_level_scores(d, [i % 4 for i in range(n)])
    assert len(scores.table) == n


def test_nmi_is_order_independent_bitwise():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(2, 300)
        a = [rng.randrange(rng.randint(1, 40)) for _ in range(n)]
        b = [rng.randrange(rng.randint(1, 12)) for _ in range(n)]
        p = list(range(n))
        rng.shuffle(p)
        assert nmi(a, b) == nmi([a[i] for i in p], [b[i] for i in p])


def test_closeness_exact_engines_pass_at_zero(small_graphs):
    for g in small_graphs[:8]:
        report = closeness_audit(g, naive_avg_hac(g), 0.0)
        assert report.passed and report.worst_ratio >= 1.0 - 1e-9


def test_closeness_approx_passes(small_graphs):
    for g in small_graphs[:8]:
        assert closeness_audit(g, approx_avg_hac(g, 0.1), 0.1).passed


def test_closeness_corrupted_trace_fails():
    # merging the 0.4 edge while the 1.0 edge is live gives ratio 0.4
    g = make_graph(4, [(0, 1, 1.0), (2, 3, 0.4)])
    bad = Dendrogram(4, (Merge(2, 3, 0.4, 2), Merge(0, 1, 1.0, 2)), (4, 5))
    report = closeness_audit(g, bad, 0.1)
    assert not report.passed
    assert report.worst_ratio == pytest.approx(0.4)
    assert report.worst_step == 0


def test_closeness_inconsistent_trace_rejected():
    g = make_graph(4, [(0, 1, 1.0), (2, 3, 0.4)])
    non_adjacent = Dendrogram(4, (Merge(0, 2, 1.0, 2), Merge(1, 3, 0.4, 2)), (4, 5))
    with pytest.raises(ValueError, match="non-adjacent"):
        closeness_audit(g, non_adjacent, 0.1)
