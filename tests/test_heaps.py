import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphhac.heaps as heap_module
from graphhac.heaps import (
    _SLACK,
    MeldNeighborHeap,
    TreeNeighborHeap,
    new_heap,
)

IMPLS = [TreeNeighborHeap, MeldNeighborHeap]


class _CountingPos(dict):
    """A slot map that counts its writes. `heaps._move` writes one entry
    per slot it moves plus the moved entry's final slot, so `writes` counts
    sift steps; a build or a reset makes a fresh map that is not counted."""

    writes = 0

    def __setitem__(self, key, slot):
        self.writes += 1
        super().__setitem__(key, slot)


def count_sift_steps(*heaps):
    """Swap each tree heap's slot map for a counting copy; returns a
    function giving the steps counted so far over all of them."""
    maps = []
    for h in heaps:
        h._pos = _CountingPos(h._pos)
        maps.append(h._pos)
    return lambda: sum(m.writes for m in maps)


def check_heap(h):
    """Walk a TreeNeighborHeap: heap order at every parent/child slot pair,
    the slot map the inverse of the slot list, and the slots equal to the
    key table."""
    slots = h._heap
    for i in range(1, len(slots)):
        assert slots[(i - 1) // 2] < slots[i], f"heap order broken at slot {i}"
    assert h._pos == {k: i for i, (_, k) in enumerate(slots)}
    assert len(slots) == len(h._tab)
    assert {k: -negp for negp, k in slots} == h._tab


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
def test_update_to_same_priority_changes_nothing(cls, monkeypatch):
    """update/upsert of the priority already stored return from the key
    table: the tree heap sifts nothing and writes no slot or map entry, and
    meld pushes nothing onto its lazy list."""

    def no_sift(*args):
        raise AssertionError("a write of the stored priority sifted")

    items = [(k, (k % 5) / 4) for k in range(64)]
    h = cls(items)
    monkeypatch.setattr(heap_module, "_move", no_sift)
    if cls is TreeNeighborHeap:
        slots = list(h._heap)
        steps = count_sift_steps(h)
    else:
        pushed = len(h._heap)
    for k, p in items:
        h.update(k, p)
        h.upsert(k, p)
    if cls is TreeNeighborHeap:
        assert steps() == 0 and h._heap == slots
        check_heap(h)
    else:
        assert len(h._heap) == pushed
    assert sorted(h.entries()) == items
    assert h.best_edge() == (4, 1.0)


@pytest.mark.parametrize("cls", IMPLS)
def test_failed_edits_leave_heap_intact(cls):
    entries = [(k, k / 10.0) for k in (3, 1, 4, 15, 9, 2, 6)]
    h = cls(entries)
    check = check_heap if cls is TreeNeighborHeap else check_meld
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
        assert sorted(h.entries()) == sorted(entries)
        assert h.best_edge() == (15, 1.5)
        check(h)


@pytest.mark.parametrize("cls", IMPLS)
def test_best_edge_tie_breaks_smaller_key(cls):
    h = cls([(2, 0.5), (7, 0.9), (4, 0.9)])
    assert h.best_edge() == (4, 0.9)
    assert cls([(5, 1.0)]).best_edge() == (5, 1.0)
    with pytest.raises(KeyError):
        cls().best_edge()


@pytest.mark.parametrize("cls", IMPLS)
def test_union_combines(cls):
    a = cls([(1, 0.3), (2, 0.5)])
    b = cls([(2, 0.7), (3, 0.1)])
    merged = a.union(b, max)
    assert dict(merged.entries()) == {1: 0.3, 2: 0.7, 3: 0.1}

    a = cls([(2, 0.4)])
    b = cls([(2, 0.8)])
    assert dict(a.union(b, lambda x, y: (x + y) / 2).entries()) == pytest.approx({2: 0.6})

    a = cls([(1, 0.3)])
    assert dict(a.union(cls(), max).entries()) == {1: 0.3}

    # self smaller than, as large as and larger than other, and either empty;
    # other's keys start two below self's end, so two keys are in both
    for ns, no in ((2, 5), (4, 4), (6, 3), (0, 3), (3, 0), (0, 0)):
        ea = {k: k / 10 for k in range(ns)}
        eb = {k: 1 - k / 10 for k in range(max(ns - 2, 0), max(ns - 2, 0) + no)}
        a, b = cls(ea.items()), cls(eb.items())
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
    h = cls([(1, 0.3), (2, 0.5)])
    h.relabel(1, 9, max)
    assert dict(h.entries()) == {9: 0.3, 2: 0.5}

    h = cls([(1, 0.3), (2, 0.5)])
    h.relabel(1, 2, max)
    assert dict(h.entries()) == {2: 0.5}

    h = cls([(1, 0.3), (2, 0.5)])
    h.relabel(1, 2, lambda x, y: x + y)
    assert dict(h.entries()) == {2: 0.8}

    with pytest.raises(KeyError):
        cls([(2, 0.5)]).relabel(1, 9, max)

    # relabel(k, k, f) leaves the heap as it is, and still needs k
    h = cls([(1, 0.3), (2, 0.5)])
    h.relabel(2, 2, max)
    h.relabel(1, 1, lambda x, y: x + y)
    assert dict(h.entries()) == {1: 0.3, 2: 0.5}
    assert h.best_edge() == (2, 0.5)
    with pytest.raises(KeyError):
        cls([(2, 0.5)]).relabel(1, 1, max)


@pytest.mark.parametrize("cls", IMPLS)
def test_rekey_moves_up_down_and_stays(cls):
    """A rekeyed entry rises to the root, falls to a leaf, or keeps its
    slot. On the tree it reuses the old key's slot and moves once, at most
    floor(log2 d) + 1 sift steps, and a slot that stays put keeps its
    index; on the meld heap the lazy list keeps its bound."""
    check = check_heap if cls is TreeNeighborHeap else check_meld
    d = 31
    items = [(k, 1.0 - k / 64) for k in range(d)]
    for prio, fresh in ((2.0, 100), (0.0, 101), (None, 102)):
        for old in range(d):
            h = cls(items)
            p = h.get(old) if prio is None else prio
            if cls is TreeNeighborHeap:
                slot = h._pos[old]
                steps = count_sift_steps(h)
            h.rekey(old, fresh, p)
            check(h)
            expect = dict(items)
            del expect[old]
            expect[fresh] = p
            assert dict(h.entries()) == expect
            assert sorted(h.keys()) == sorted(expect)
            bp = max(expect.values())
            assert h.best_edge() == (min(k for k, v in expect.items() if v == bp), bp)
            if cls is TreeNeighborHeap:
                assert steps() <= math.floor(math.log2(d)) + 1
                if prio is None:  # same priority, larger key: only a tie could move it
                    assert h._pos[fresh] == slot
                elif prio == 2.0:
                    assert h._heap[0] == (-2.0, fresh)
                else:
                    assert 2 * h._pos[fresh] + 1 >= d


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
        other = (TreeNeighborHeap(items.items()), MeldNeighborHeap(items.items()))
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
        check_heap(heaps[0])
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
    h = MeldNeighborHeap((k, 0.5) for k in range(500))
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
    h = MeldNeighborHeap((k, k / 40) for k in range(40))
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
        merged = TreeNeighborHeap(ea.items()).union(
            TreeNeighborHeap(eb.items()), lambda x, y: (x + y) / 2
        )
        assert dict(merged.entries()) == pytest.approx(expect)


def test_new_heap_factory():
    assert isinstance(new_heap("tree"), TreeNeighborHeap)
    assert isinstance(new_heap("meld"), MeldNeighborHeap)
    with pytest.raises(ValueError):
        new_heap("bogus")


def test_tree_invariants_under_random_ops():
    """Every op of a random mix keeps the heap valid and equal to a dict."""
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
            check_heap(emptied)
            h = merged
            pools[i] = (h, oracle)
            pools[j] = (emptied, {})
        check_heap(h)
        assert list(h.entries()) == sorted(oracle.items())
        assert len(h) == len(oracle)
        if oracle:
            bp = max(oracle.values())
            assert h.best_edge() == (min(k for k, v in oracle.items() if v == bp), bp)


def test_tree_delete_every_key():
    """Delete each key of every heap of 1..40 items, built at once and by
    inserts. Distinct, all-equal and two-valued priorities make the moved
    last slot tie with, rise above and fall below the deleted one."""
    rng = random.Random(17)
    for d in range(1, 41):
        order = list(range(d))
        rng.shuffle(order)
        for prio in (lambda k: k * 37 % 41 / 41, lambda k: 0.5, lambda k: float(k % 2)):
            items = [(k, prio(k)) for k in range(d)]
            for key in range(d):
                inserted = TreeNeighborHeap()
                for k in order:
                    inserted.insert(k, prio(k))
                for h in (TreeNeighborHeap(items), inserted):
                    assert h.delete(key) == prio(key)
                    check_heap(h)
                    rest = {k: p for k, p in items if k != key}
                    assert dict(h.entries()) == rest
                    if rest:
                        bp = max(rest.values())
                        assert h.best_edge() == (min(k for k, p in rest.items() if p == bp), bp)


def test_tree_delete_sifts_moved_last_up():
    """The last slot can belong above the hole it fills: slots by priority
    [10, 5, 9, 4, 3, 8, 7]; deleting 4 (below 5) moves 7 into its slot, and
    7 must rise past 5."""
    prios = [10, 5, 9, 4, 3, 8, 7]
    h = TreeNeighborHeap(enumerate(map(float, prios)))
    assert [-negp for negp, _ in h._heap] == prios  # heapify kept the layout
    assert h.delete(3) == 4.0
    check_heap(h)
    assert [-negp for negp, _ in h._heap] == [10, 7, 9, 5, 3, 8]
    for key, p in ((0, 10.0), (2, 9.0), (5, 8.0), (6, 7.0), (1, 5.0), (4, 3.0)):
        assert h.best_edge() == (key, p)
        assert h.delete(key) == p
        check_heap(h)


def test_tree_update_in_place_keeps_slot_map():
    """A fall at a leaf and a rise blocked by the parent keep their slot:
    only the slot is written, the map is not, and it stays the inverse of
    the slots through later moves of the same keys."""
    h = TreeNeighborHeap((k, 1.0 - k / 16) for k in range(15))
    leaf, inner = h._heap[-1][1], h._heap[4][1]
    steps = count_sift_steps(h)
    h.update(leaf, h.get(leaf) / 2)  # a leaf that falls stays put
    h.update(inner, h.get(inner) + 0.01)  # its parent still ranks higher
    assert steps() == 0
    assert h._heap[-1][1] == leaf and h._heap[4][1] == inner
    check_heap(h)
    h.update(leaf, 2.0)  # now both move: to the root and down to a leaf
    h.upsert(inner, 0.0)
    check_heap(h)
    assert h.best_edge() == (leaf, 2.0)
    assert h.delete(inner) == 0.0 and h.delete(leaf) == 2.0
    check_heap(h)


def test_tree_sorted_build_valid():
    rng = random.Random(2)
    for d in range(65):
        items = sorted((k, rng.random()) for k in rng.sample(range(1000), d))
        h = TreeNeighborHeap(items)
        check_heap(h)
        assert list(h.entries()) == items
        assert len(h) == d


def test_tree_unsorted_and_duplicate_input():
    rng = random.Random(3)
    for d in (2, 7, 40):
        items = [(k, rng.random()) for k in rng.sample(range(100), d)]
        for order in (sorted(items, reverse=True), items):
            h = TreeNeighborHeap(order)
            check_heap(h)
            assert list(h.entries()) == sorted(items)
    for items in ([(1, 0.5), (1, 0.7)], [(1, 0.5), (4, 0.1), (2, 0.3), (4, 0.9)]):
        with pytest.raises(KeyError):
            TreeNeighborHeap(items)


def test_tree_sorted_build_cost(monkeypatch):
    """A build is one `heapify` of the slot list in any input order: no
    Python-level sift runs."""

    def no_sift(*args):
        raise AssertionError("build sifted in Python")

    monkeypatch.setattr(heap_module, "_move", no_sift)
    rng = random.Random(4)
    for d in (1, 2, 3, 10, 64, 100, 1000):
        items = [(k, 1.0 / (k + 1)) for k in range(d)]
        for order in (items, items[::-1], rng.sample(items, d)):
            check_heap(TreeNeighborHeap(order))


def test_tree_point_op_cost_bound():
    """insert, update and upsert on a heap of d entries (d counted after an
    insert) take at most floor(log2 d) + 1 sift steps: one slot per level
    passed plus the final one."""
    rng = random.Random(6)
    for _ in range(30):
        h = TreeNeighborHeap()
        steps = count_sift_steps(h)
        for k in rng.sample(range(5000), rng.randint(1, 600)):
            before = steps()
            h.insert(k, rng.choice((rng.random(), 0.5)))
            assert steps() - before <= math.floor(math.log2(len(h))) + 1
        bound = math.floor(math.log2(len(h))) + 1
        for k in rng.sample(sorted(h._tab), min(len(h), 100)):
            for op in (h.update, h.upsert):
                before = steps()
                op(k, rng.choice((rng.random(), 0.0, 1.0, 0.5)))
                assert steps() - before <= bound
        check_heap(h)


def test_tree_delete_cost_bound():
    """One delete on a d-entry heap takes at most floor(log2 d) + 1 sift
    steps: the last slot fills the hole and moves up or down once."""
    rng = random.Random(5)
    for d in (1, 2, 5, 16, 33, 64, 255, 1000):
        items = [(k, rng.random()) for k in range(d)]
        for key in rng.sample(range(d), min(d, 40)):
            h = TreeNeighborHeap(items)
            steps = count_sift_steps(h)
            h.delete(key)
            assert steps() <= math.floor(math.log2(d)) + 1
            check_heap(h)
    for _ in range(40):
        h, keys = TreeNeighborHeap(), set()
        for k in rng.sample(range(5000), rng.randint(1, 400)):
            h.insert(k, rng.random())
            keys.add(k)
        steps = count_sift_steps(h)
        for k in rng.sample(sorted(keys), len(keys) // 3 + 1):
            d, before = len(h), steps()
            h.delete(k)
            keys.discard(k)
            assert steps() - before <= math.floor(math.log2(d)) + 1
        check_heap(h)


def test_tree_union_cost_bound():
    """Union of sizes s <= l upserts the s smaller entries into the larger
    heap, each a point op on at most s + l entries: at most
    s * (log2(s + l) + 1) sift steps in all."""
    rng = random.Random(0)
    for _ in range(120):
        s = rng.randint(1, 150)
        l = rng.randint(s, 1500)
        a = TreeNeighborHeap((k, rng.random()) for k in rng.sample(range(8000), s))
        b = TreeNeighborHeap((k, rng.random()) for k in rng.sample(range(8000), l))
        steps = count_sift_steps(a, b)
        merged = a.union(b, max)
        assert steps() <= s * (math.log2(s + l) + 1)
        check_heap(merged)
