import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhac.heaps import (
    _SLACK,
    MeldNeighborHeap,
    TreeNeighborHeap,
    new_heap,
)

IMPLS = [TreeNeighborHeap, MeldNeighborHeap]


@pytest.mark.parametrize("cls", IMPLS)
def test_point_edits(cls):
    h = cls()
    h.insert(7, 0.5)
    assert dict(h.entries()) == {7: 0.5}
    h.update(7, 0.9)
    assert dict(h.entries()) == {7: 0.9}
    with pytest.raises(KeyError):
        h.insert(7, 0.1)
    with pytest.raises(KeyError):
        h.update(3, 0.1)
    with pytest.raises(KeyError):
        h.delete(3)
    assert h.delete(7) == 0.9
    assert len(h) == 0


@pytest.mark.parametrize("cls", IMPLS)
def test_update_to_same_priority_changes_nothing(cls):
    """update/upsert of the priority already stored return from the key
    table and push nothing onto the lazy list."""
    items = {k: (k % 5) / 4 for k in range(64)}
    h = cls(dict(items))
    pushed = len(h._heap)
    for k, p in items.items():
        h.update(k, p)
        h.upsert(k, p)
    assert len(h._heap) == pushed
    check_meld(h)
    assert dict(h.entries()) == items
    assert h.best_edge() == (4, 1.0)


@pytest.mark.parametrize("cls", IMPLS)
def test_failed_edits_leave_heap_intact(cls):
    entries = {k: k / 10.0 for k in (3, 1, 4, 15, 9, 2, 6)}
    h = cls(dict(entries))
    for bad_op in (
        lambda: h.insert(4, 0.99),
        lambda: h.update(5, 0.5),
        lambda: h.delete(5),
        lambda: h.relabel(5, 7, max),
        lambda: h.rekey(5, 7, 0.5),  # old key absent
        lambda: h.rekey(4, 9, 2.0),  # new key present
        lambda: h.rekey(4, 4, 2.0),
    ):
        with pytest.raises(KeyError):
            bad_op()
        assert dict(h.entries()) == entries
        assert h.best_edge() == (15, 1.5)
        check_meld(h)


@pytest.mark.parametrize("cls", IMPLS)
def test_best_edge_tie_breaks_smaller_key(cls):
    h = cls({2: 0.5, 7: 0.9, 4: 0.9})
    assert h.best_edge() == (4, 0.9)
    assert cls({5: 1.0}).best_edge() == (5, 1.0)
    with pytest.raises(KeyError):
        cls().best_edge()


@pytest.mark.parametrize("impl", ["tree", "meld"])
def test_build_takes_over_its_dict(impl):
    """A heap uses the dict it is built from as its table, not a copy; an
    empty build makes a fresh table."""
    table = {3: 0.5, 8: 0.25}
    new_heap(impl, table).insert(1, 1.0)
    assert table == {3: 0.5, 8: 0.25, 1: 1.0}
    empty = {}
    new_heap(impl, empty).insert(2, 0.5)
    assert empty == {}


@pytest.mark.parametrize("cls", IMPLS)
def test_union_combines(cls):
    a = cls({1: 0.3, 2: 0.5})
    b = cls({2: 0.7, 3: 0.1})
    merged = a.union(b, max)
    assert dict(merged.entries()) == {1: 0.3, 2: 0.7, 3: 0.1}

    a = cls({2: 0.4})
    b = cls({2: 0.8})
    assert dict(a.union(b, lambda x, y: (x + y) / 2).entries()) == pytest.approx({2: 0.6})

    a = cls({1: 0.3})
    assert dict(a.union(cls(), max).entries()) == {1: 0.3}

    # self smaller than, as large as and larger than other, and either empty;
    # other's keys start two below self's end, so two keys are in both
    for ns, no in ((2, 5), (4, 4), (6, 3), (0, 3), (3, 0), (0, 0)):
        ea = {k: k / 10 for k in range(ns)}
        eb = {k: 1 - k / 10 for k in range(max(ns - 2, 0), max(ns - 2, 0) + no)}
        a, b = cls(dict(ea)), cls(dict(eb))
        expect = dict(eb)
        for k, v in ea.items():
            expect[k] = max(expect[k], v) if k in expect else v
        merged = a.union(b, max)
        assert merged is (a if ns > no else b)
        assert dict(merged.entries()) == expect
        emptied = b if merged is a else a
        assert len(emptied) == 0 and list(emptied.entries()) == []
        emptied.insert(5, 0.5)
        emptied.upsert(2, 0.7)
        assert emptied.best_edge() == (2, 0.7)


@pytest.mark.parametrize("cls", IMPLS)
def test_relabel(cls):
    h = cls({1: 0.3, 2: 0.5})
    h.relabel(1, 9, max)
    assert dict(h.entries()) == {9: 0.3, 2: 0.5}

    h = cls({1: 0.3, 2: 0.5})
    h.relabel(1, 2, max)
    assert dict(h.entries()) == {2: 0.5}

    h = cls({1: 0.3, 2: 0.5})
    h.relabel(1, 2, lambda x, y: x + y)
    assert dict(h.entries()) == {2: 0.8}

    with pytest.raises(KeyError):
        cls({2: 0.5}).relabel(1, 9, max)

    # relabel(k, k, f) leaves the heap as it is, and still needs k
    h = cls({1: 0.3, 2: 0.5})
    h.relabel(2, 2, max)
    h.relabel(1, 1, lambda x, y: x + y)
    assert dict(h.entries()) == {1: 0.3, 2: 0.5}
    assert h.best_edge() == (2, 0.5)
    with pytest.raises(KeyError):
        cls({2: 0.5}).relabel(1, 1, max)


@pytest.mark.parametrize("cls", IMPLS)
def test_rekey_moves_up_down_and_stays(cls):
    """A rekeyed entry becomes the best edge, the worst, or keeps its rank,
    and the lazy list keeps its bound."""
    d = 31
    items = {k: 1.0 - k / 64 for k in range(d)}
    for prio, fresh in ((2.0, 100), (0.0, 101), (None, 102)):
        for old in range(d):
            h = cls(dict(items))
            p = h.get(old) if prio is None else prio
            h.rekey(old, fresh, p)
            check_meld(h)
            expect = dict(items)
            del expect[old]
            expect[fresh] = p
            assert dict(h.entries()) == expect
            assert sorted(h.keys()) == sorted(expect)
            bp = max(expect.values())
            assert h.best_edge() == (min(k for k, v in expect.items() if v == bp), bp)


def _apply_op(heaps, op):
    """Apply one random op to parallel (tree, meld) heaps, oracle dict in [2];
    returns the triple, which a union replaces."""
    tree, meld, oracle = heaps
    kind = op[0]
    if kind == "insert":
        _, k, p = op
        if k in oracle:
            return heaps
        tree.insert(k, p)
        meld.insert(k, p)
        oracle[k] = p
    elif kind == "update":
        _, k, p = op
        if k not in oracle:
            return heaps
        tree.update(k, p)
        meld.update(k, p)
        oracle[k] = p
    elif kind == "upsert":
        _, k, p = op
        tree.upsert(k, p)
        meld.upsert(k, p)
        oracle[k] = p
    elif kind == "delete":
        _, k = op
        if k not in oracle:
            return heaps
        assert tree.delete(k) == meld.delete(k) == oracle.pop(k)
    elif kind == "rekey":
        _, old, new, p = op
        if old not in oracle or new in oracle:
            for h in (tree, meld):
                with pytest.raises(KeyError):
                    h.rekey(old, new, p)
            return heaps
        tree.rekey(old, new, p)
        meld.rekey(old, new, p)
        del oracle[old]
        oracle[new] = p
    elif kind == "relabel":
        _, old, new = op
        if old not in oracle:
            return heaps
        tree.relabel(old, new, max)
        meld.relabel(old, new, max)
        p = oracle.pop(old)
        oracle[new] = max(oracle[new], p) if new in oracle else p
    elif kind == "union":
        # self_first: the running heaps are the receiver, else the argument
        _, items, self_first = op
        other = (TreeNeighborHeap(dict(items)), MeldNeighborHeap(dict(items)))
        if self_first:
            tree, meld = tree.union(other[0], max), meld.union(other[1], max)
        else:
            tree, meld = other[0].union(tree, max), other[1].union(meld, max)
        for k, p in items.items():
            oracle[k] = max(oracle[k], p) if k in oracle else p
    return tree, meld, oracle


def _check_equal(heaps):
    tree, meld, oracle = heaps
    assert dict(tree.entries()) == oracle
    assert dict(meld.entries()) == oracle
    if oracle:
        best = tree.best_edge()
        assert best == meld.best_edge()
        # oracle: max priority, ties to smaller key, by linear scan
        bp = max(oracle.values())
        bk = min(k for k, v in oracle.items() if v == bp)
        assert best == (bk, bp)


# Priorities are often drawn from a small tied set: exact ties, and a key
# deleted and re-inserted at its old priority (the meld heap then holds two
# entries for it that both look live).
_prios = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0, 1, allow_nan=False))
_keys = st.integers(0, 30)
_ops = st.one_of(
    st.tuples(st.just("insert"), _keys, _prios),
    st.tuples(st.just("update"), _keys, _prios),
    st.tuples(st.just("upsert"), _keys, _prios),
    st.tuples(st.just("delete"), _keys),
    st.tuples(st.just("rekey"), _keys, _keys, _prios),
    st.tuples(st.just("relabel"), _keys, _keys),
    st.tuples(st.just("union"), st.dictionaries(_keys, _prios, max_size=12), st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops, max_size=60))
def test_representations_equivalent_hypothesis(ops):
    heaps = (TreeNeighborHeap(), MeldNeighborHeap(), {})
    for op in ops:
        heaps = _apply_op(heaps, op)
        _check_equal(heaps)
        check_meld(heaps[0])
        check_meld(heaps[1])


def test_representations_equivalent_long_random_run():
    """>= 10^4 random ops, including unions, against the dict oracle."""
    rng = random.Random(42)
    pools = [(TreeNeighborHeap(), MeldNeighborHeap(), {}) for _ in range(8)]
    for step in range(10_000):
        which = rng.randrange(len(pools))
        r = rng.random()
        if r < 0.45:
            op = ("insert", rng.randrange(400), rng.random())
        elif r < 0.6:
            op = ("update", rng.randrange(400), rng.random())
        elif r < 0.75:
            op = ("delete", rng.randrange(400))
        elif r < 0.9:
            op = ("relabel", rng.randrange(400), rng.randrange(400))
        else:
            other = rng.randrange(len(pools))
            if other == which:
                continue
            ta, ma, oa = pools[which]
            tb, mb, ob = pools[other]
            merged_oracle = dict(ob)
            for k, v in oa.items():
                merged_oracle[k] = max(merged_oracle[k], v) if k in merged_oracle else v
            pools[which] = (ta.union(tb, max), ma.union(mb, max), merged_oracle)
            pools[other] = (TreeNeighborHeap(), MeldNeighborHeap(), {})
            _check_equal(pools[which])
            continue
        pools[which] = _apply_op(pools[which], op)
        if step % 23 == 0:
            _check_equal(pools[which])
    for h in pools:
        _check_equal(h)


def check_meld(h):
    """The lazy list stays within 2 * len + _SLACK entries, and every key in
    the table has an entry that matches it (so best_edge can find it)."""
    assert len(h._heap) <= 2 * len(h) + _SLACK
    assert {k for negp, k in h._heap if h._tab.get(k) == -negp} == set(h._tab)


def test_meld_lazy_list_stays_proportional():
    rng = random.Random(13)
    pools = [(MeldNeighborHeap(), {}) for _ in range(4)]
    for _ in range(6000):
        i = rng.randrange(len(pools))
        h, oracle = pools[i]
        k, p = rng.randrange(60), rng.choice((rng.random(), 0.25, 0.5, 1.0))
        r = rng.random()
        if r < 0.2 and k not in oracle:
            h.insert(k, p)
            oracle[k] = p
        elif r < 0.45 and k in oracle:
            h.update(k, p)
            oracle[k] = p
        elif r < 0.6:
            h.upsert(k, p)
            oracle[k] = p
        elif r < 0.8 and k in oracle:
            assert h.delete(k) == oracle.pop(k)
        elif r < 0.9 and k in oracle:
            new = rng.randrange(60)
            h.relabel(k, new, max)
            old = oracle.pop(k)
            oracle[new] = max(oracle[new], old) if new in oracle else old
        elif r >= 0.97:
            j = rng.randrange(len(pools))
            if j == i:
                continue
            g, other = pools[j]
            for key, v in other.items():
                oracle[key] = max(oracle[key], v) if key in oracle else v
            h = h.union(g, max) if rng.random() < 0.5 else g.union(h, max)
            pools[i] = (h, oracle)
            pools[j] = (MeldNeighborHeap(), {})
        elif oracle:
            bp = max(oracle.values())
            assert h.best_edge() == (min(k for k, v in oracle.items() if v == bp), bp)
        check_meld(h)
        assert dict(h.entries()) == oracle


def test_meld_deletes_alone_compact():
    """Updates fill the lazy list with dead entries; deleting every key
    afterwards, with no push and no best_edge, must still shrink it."""
    h = MeldNeighborHeap({k: 0.5 for k in range(500)})
    for rep in range(3):
        for k in range(500):
            h.update(k, rep + k / 1000)
            check_meld(h)
    for k in range(500):
        h.delete(k)
        check_meld(h)
    assert len(h) == 0


def test_meld_rekeys_alone_compact():
    """Each rekey leaves one dead entry on the lazy list; a long run of
    rekeys with no other edit and no best_edge must still compact it."""
    h = MeldNeighborHeap({k: k / 40 for k in range(40)})
    for step in range(2000):
        old, new = step, step + 40
        h.rekey(old, new, h.get(old) / 2 if step % 2 else 1.0 + step)
        check_meld(h)
    assert sorted(h.keys()) == list(range(2000, 2040))


def test_union_key_sets_match_map_merge_oracle():
    rng = random.Random(7)
    for _ in range(50):
        ea = {rng.randrange(100): rng.random() for _ in range(rng.randrange(1, 40))}
        eb = {rng.randrange(100): rng.random() for _ in range(rng.randrange(1, 40))}
        expect = dict(eb)
        for k, v in ea.items():
            expect[k] = (expect[k] + v) / 2 if k in expect else v
        for cls in IMPLS:
            merged = cls(dict(ea)).union(cls(dict(eb)), lambda x, y: (x + y) / 2)
            assert dict(merged.entries()) == pytest.approx(expect)


def test_new_heap_factory():
    assert isinstance(new_heap("tree"), TreeNeighborHeap)
    assert isinstance(new_heap("meld"), MeldNeighborHeap)
    with pytest.raises(ValueError):
        new_heap("bogus")


def test_tree_invariants_under_random_ops():
    """Every op of a random mix, failed ones included, keeps the tree heap's
    lazy list valid and its entries equal to a dict."""
    rng = random.Random(11)
    pools = [(TreeNeighborHeap(), {}) for _ in range(4)]
    for _ in range(4000):
        i = rng.randrange(len(pools))
        h, oracle = pools[i]
        k, p = rng.randrange(120), rng.choice((rng.random(), 0.5))
        r = rng.random()
        if r < 0.3:
            if k in oracle:
                with pytest.raises(KeyError):
                    h.insert(k, p)
            else:
                h.insert(k, p)
                oracle[k] = p
        elif r < 0.45:
            if k in oracle:
                h.update(k, p)
                oracle[k] = p
            else:
                with pytest.raises(KeyError):
                    h.update(k, p)
        elif r < 0.6:
            h.upsert(k, p)
            oracle[k] = p
        elif r < 0.8:
            if k in oracle:
                assert h.delete(k) == oracle.pop(k)
            else:
                with pytest.raises(KeyError):
                    h.delete(k)
        elif r < 0.95:
            new = rng.randrange(120)
            if k in oracle:
                h.relabel(k, new, max)
                old = oracle.pop(k)
                oracle[new] = max(oracle[new], old) if new in oracle else old
            else:
                with pytest.raises(KeyError):
                    h.relabel(k, new, max)
        else:
            j = rng.randrange(len(pools))
            if j == i:
                continue
            g, other = pools[j]
            for key, v in other.items():
                oracle[key] = max(oracle[key], v) if key in oracle else v
            merged = h.union(g, max)
            emptied = g if merged is h else h
            assert len(emptied) == 0
            check_meld(emptied)
            h = merged
            pools[i] = (h, oracle)
            pools[j] = (emptied, {})
        check_meld(h)
        assert dict(h.entries()) == oracle
        assert len(h) == len(oracle)
        if oracle:
            bp = max(oracle.values())
            assert h.best_edge() == (min(k for k, v in oracle.items() if v == bp), bp)


def test_tree_delete_every_key():
    """Delete each key of every heap of 1..40 items, built at once and by
    inserts, with distinct, all-equal and two-valued priorities."""
    rng = random.Random(17)
    for d in range(1, 41):
        order = list(range(d))
        rng.shuffle(order)
        for prio in (lambda k: k * 37 % 41 / 41, lambda k: 0.5, lambda k: float(k % 2)):
            items = {k: prio(k) for k in range(d)}
            for key in range(d):
                inserted = TreeNeighborHeap()
                for k in order:
                    inserted.insert(k, prio(k))
                for h in (TreeNeighborHeap(dict(items)), inserted):
                    assert h.delete(key) == prio(key)
                    check_meld(h)
                    rest = {k: p for k, p in items.items() if k != key}
                    assert dict(h.entries()) == rest
                    if rest:
                        bp = max(rest.values())
                        assert h.best_edge() == (min(k for k, p in rest.items() if p == bp), bp)


def test_tree_iterates_in_reversed_meld_order():
    """The tree heap is the meld heap with keys() and entries() reversed.
    Point edits keep both tables in one order, so after each edit of a
    seeded sequence the tree's iteration is the meld heap's read backwards,
    and for most of the run the two orders differ: every tree/meld identity
    check then tests that no engine depends on heap iteration order."""
    rng = random.Random(29)
    tree, meld = TreeNeighborHeap(), MeldNeighborHeap()
    differed = 0
    for _ in range(3000):
        k, p = rng.randrange(50), rng.choice((rng.random(), 0.5))
        r = rng.random()
        if r < 0.3 and k not in meld._tab:
            edits = [("insert", k, p)]
        elif r < 0.45 and k in meld._tab:
            edits = [("update", k, p)]
        elif r < 0.6:
            edits = [("upsert", k, p)]
        elif r < 0.75 and k in meld._tab:
            edits = [("delete", k)]
        elif r < 0.85 and k in meld._tab:
            new = rng.randrange(50)
            edits = [("relabel", k, new, max)] if new in meld._tab else [("rekey", k, new, p)]
        elif meld._tab:
            edits = [("best_edge",)]
        else:
            continue
        for op, *args in edits:
            assert getattr(tree, op)(*args) == getattr(meld, op)(*args)
        assert list(tree.keys()) == list(reversed(meld.keys()))
        assert list(tree.entries()) == list(reversed(list(meld.entries())))
        differed += list(tree.keys()) != meld.keys()
    assert differed > 2000


def test_tree_union_cost_bound(monkeypatch):
    """On both heaps, a union of sizes s <= l makes at most s upserts, all
    into the larger heap: one per entry of the smaller heap, each a point
    edit of amortized O(log(s + l))."""
    rng = random.Random(0)
    for cls in IMPLS:
        writes = []

        def counted(self, key, prio, upsert=cls.upsert):
            writes.append(self)
            upsert(self, key, prio)

        monkeypatch.setattr(cls, "upsert", counted)
        for _ in range(120):
            s = rng.randint(1, 150)
            l = rng.randint(s, 1500)
            ea = {k: rng.random() for k in rng.sample(range(8000), s)}
            eb = {k: rng.random() for k in rng.sample(range(8000), l)}
            expect = dict(eb)
            for k, v in ea.items():
                expect[k] = max(expect[k], v) if k in expect else v
            writes.clear()
            merged = cls(ea).union(cls(eb), max)
            assert len(writes) <= s and all(h is merged for h in writes)
            assert dict(merged.entries()) == expect
            check_meld(merged)
