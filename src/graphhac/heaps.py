"""Per-cluster neighbor heaps: key = neighbor cluster id, priority = weight.

Two interchangeable representations with identical observable behavior.
Both are built from a dict, which the heap takes over as its table with no
copy (the engines hand over the fresh rows they build), or from (key,
priority) pairs, which are copied, KeyError on a duplicate key. An empty
build makes three (tree) or two (meld) empty containers and nothing else.

* TreeNeighborHeap: a hash table key -> priority, which is the truth for
  get and len, plus an addressable binary heap: a `heapq` list
  of (-priority, key) slots and a key -> slot map. BestEdge reads slot 0 in
  O(1). Construction is one `heapify`, O(d) from any order. Insert,
  update, upsert, delete and rekey each move one
  slot up or down through `_move`, O(log d) worst case, and leave no stale
  entries; delete fills the hole with the last slot and moves it whichever
  way it belongs. A write of the priority already stored returns after the
  table lookup, and update rewrites a slot that stays put in place.
* MeldNeighborHeap: a hash table key -> priority, which is the truth, plus a
  `heapq` list of (-priority, key) entries that is cleaned lazily: a write
  of a changed priority pushes an entry, delete only touches the table, and
  BestEdge pops entries that no longer match the table. The list is rebuilt
  from the table once it outgrows twice the table, so point edits cost
  amortized O(log d).

Both share one union: the smaller heap's entries are upserted into the
larger, one combine per key in both, which costs O(s log(s+l)) for sizes
s <= l; the larger heap is returned and the smaller is left empty. Over a
triangle-linkage run the smaller sizes sum to at most
`engine.merge_cost_bound(m)`, so all unions together cost O~(m).

A merge relabels each neighbor's entry for the folded cluster to the
survivor. `rekey(old_key, new_key, prio)` is that edit when new_key is
absent: the tree reuses old_key's slot and moves it once, where a delete
and an insert would move two slots, and the meld heap pushes one entry.
`relabel` uses it, and otherwise deletes old_key and combines its priority
into new_key's.

best_edge ties always break toward the smaller key; priorities are compared
exactly (no epsilons inside the structure). entries() runs in key order on
the tree and in table order on the meld heap; keys() runs in table order on
both.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator

# Binary combine applied when a key occurs in both operands of union/relabel.
# Must be commutative and deterministic.
CombineFn = Callable[[float, float], float]

HEAP_IMPLS = ("tree", "meld")

# MeldNeighborHeap rebuilds its lazy list once it holds more than
# 2 * len(table) + _SLACK entries; the slack keeps tiny heaps from rebuilding
# on every other edit.
_SLACK = 16


def _move(heap: list, pos: dict, i: int, item: tuple) -> None:
    """Put item in slot i of the binary heap: move it toward the root past
    every parent that it precedes, and if it rose past none, toward the
    leaves past every child that precedes it, taking the smaller of two.
    Every slot written gets its key's map entry, the item's final slot
    included. Whatever slot i held (the item's old tuple, a placeholder or
    the hole of a delete) is never read."""
    start = i
    while i:
        parent = (i - 1) >> 1
        p = heap[parent]
        if p < item:
            break
        heap[i] = p
        pos[p[1]] = i
        i = parent
    if i == start:
        n = len(heap)
        child = 2 * i + 1
        while child < n:
            c = heap[child]
            if child + 1 < n and heap[child + 1] < c:
                child += 1
                c = heap[child]
            if item < c:
                break
            heap[i] = c
            pos[c[1]] = i
            i = child
            child = 2 * i + 1
    heap[i] = item
    pos[item[1]] = i


def _table(items: dict[int, float] | Iterable[tuple[int, float]]) -> dict[int, float]:
    """The table of a heap built from `items`. A dict is taken over as it
    is, so its caller must not use it again; (key, priority) pairs are
    copied into a new dict, priorities as floats, KeyError on a repeated
    key."""
    if isinstance(items, dict):
        return items
    items = list(items)
    tab = {k: float(p) for k, p in items}
    if len(tab) != len(items):
        raise KeyError("insert: duplicate key in items")
    return tab


def _relabel(self, old_key: int, new_key: int, combine: CombineFn) -> None:
    """Move old_key's priority to new_key, combined with new_key's own
    priority if it has one; relabel(k, k, f) leaves the heap as it is.
    Assigned in both heap class bodies, so each class defines its own
    `relabel`."""
    tab = self._tab
    prio = tab.get(old_key)
    if prio is None:
        raise KeyError(f"relabel: key {old_key} absent")
    ex = tab.get(new_key)
    if ex is None:
        self.rekey(old_key, new_key, prio)
    elif new_key != old_key:
        self.delete(old_key)
        self.update(new_key, combine(ex, prio))


def _union(self, other, combine: CombineFn):
    """Write the smaller operand's entries into the larger through `upsert`,
    one combine per key in both, and return the larger; on equal sizes that
    is `other`. The smaller operand is left empty and stays usable. Costs
    O(s log(s+l)) for sizes s <= l. Assigned in both heap class bodies, as
    `_relabel` is."""
    small, large = (self, other) if len(self) <= len(other) else (other, self)
    if not small._tab:  # every merge on a star: nothing to write or reset
        return large
    get, upsert = large._tab.get, large.upsert
    for key, prio in small._tab.items():
        lp = get(key)
        upsert(key, prio if lp is None else combine(lp, prio))
    small.__init__()
    return large


class TreeNeighborHeap:
    """Addressable binary heap (deterministic).

    `_tab` maps key -> priority and is the truth for get and len, as in
    MeldNeighborHeap. `_heap` holds one `(-prio, key)`
    slot per key in `heapq` min-heap order, so slot 0 is the best edge
    under the (max priority, min key) rule, and `_pos` maps each key to its
    slot. A write of the priority already stored returns after the table
    lookup; a changed priority moves its slot up or down once through
    `_move`, and so do an insert, a delete's refill and a rekey. entries()
    runs in key order, keys() in table order."""

    __slots__ = ("_tab", "_heap", "_pos")

    def __init__(self, items: dict[int, float] | Iterable[tuple[int, float]] = ()):
        if not items:  # every emptied or freshly folded heap
            self._tab, self._heap, self._pos = {}, [], {}
            return
        self._tab = tab = _table(items)
        heap = [(-p, k) for k, p in tab.items()]
        heapify(heap)
        self._heap = heap
        self._pos = {k: i for i, (_, k) in enumerate(heap)}

    def __len__(self) -> int:
        return len(self._tab)

    def get(self, key: int) -> float | None:
        return self._tab.get(key)

    def insert(self, key: int, prio: float) -> None:
        tab = self._tab
        if key in tab:
            raise KeyError(f"insert: key {key} already present")
        tab[key] = prio
        heap = self._heap
        heap.append(None)
        _move(heap, self._pos, len(heap) - 1, (-prio, key))

    def update(self, key: int, prio: float) -> None:
        tab = self._tab
        old = tab.get(key)
        if old is None:
            raise KeyError(f"update: key {key} absent")
        if old == prio:
            return
        tab[key] = prio
        heap, pos = self._heap, self._pos
        i = pos[key]
        item = (-prio, key)
        # a slot that stays put (a rise blocked by its parent, a fall at a
        # leaf) is rewritten without touching the slot map
        if prio > old:
            if i and item < heap[(i - 1) >> 1]:
                _move(heap, pos, i, item)
                return
        elif 2 * i + 1 < len(heap):
            _move(heap, pos, i, item)
            return
        heap[i] = item

    def upsert(self, key: int, prio: float) -> None:
        """insert, or update when key is present; a slot that stays put
        rewrites its map entry too."""
        tab = self._tab
        old = tab.get(key)
        if old == prio:
            return
        tab[key] = prio
        heap, pos = self._heap, self._pos
        if old is None:
            heap.append(None)
            i = len(heap) - 1
        else:
            i = pos[key]
        _move(heap, pos, i, (-prio, key))

    def delete(self, key: int) -> float:
        prio = self._tab.pop(key, None)
        if prio is None:
            raise KeyError(f"delete: key {key} absent")
        heap, pos = self._heap, self._pos
        i = pos.pop(key)
        last = heap.pop()
        if i < len(heap):  # the last slot fills the hole
            _move(heap, pos, i, last)
        return prio

    def rekey(self, old_key: int, new_key: int, prio: float) -> None:
        """Turn old_key's entry into new_key's at prio, in old_key's slot,
        and move that slot once. new_key must be absent; on a KeyError the
        heap is unchanged."""
        tab = self._tab
        if new_key in tab:
            raise KeyError(f"rekey: key {new_key} already present")
        if tab.pop(old_key, None) is None:
            raise KeyError(f"rekey: key {old_key} absent")
        tab[new_key] = prio
        pos = self._pos
        _move(self._heap, pos, pos.pop(old_key), (-prio, new_key))

    def best_edge(self) -> tuple[int, float]:
        heap = self._heap
        if not heap:
            raise KeyError("best_edge on empty heap")
        negp, key = heap[0]
        return key, -negp

    union = _union
    relabel = _relabel

    def entries(self) -> Iterator[tuple[int, float]]:
        """In increasing key order."""
        return iter(sorted(self._tab.items()))

    def keys(self) -> list[int]:
        return list(self._tab)


class MeldNeighborHeap:
    """Hash table + lazily cleaned binary heap (the lazy-deletion priority
    queue of the Python `heapq` docs).

    `_tab` maps key -> priority and is the truth. `_heap` is a `heapq` list
    of `(-prio, key)`; an entry is live iff `_tab.get(key) == -prio`, so
    tuple order gives max priority, then smaller key. Every key in `_tab` has
    a live entry: a write pushes one, delete only pops the table, and
    best_edge discards dead entries as they reach the top. Once the list
    outgrows twice the table (plus `_SLACK`) it is rebuilt from the table,
    so it holds O(live entries) and point edits cost amortized O(log d).
    entries() runs in table order.
    """

    __slots__ = ("_tab", "_heap")

    def __init__(self, items: dict[int, float] | Iterable[tuple[int, float]] = ()):
        if not items:  # every emptied or freshly folded heap
            self._tab, self._heap = {}, []
            return
        self._tab = _table(items)
        self._compact()

    def _compact(self) -> None:
        heap = [(-p, k) for k, p in self._tab.items()]
        heapify(heap)
        self._heap = heap

    def __len__(self) -> int:
        return len(self._tab)

    def get(self, key: int) -> float | None:
        return self._tab.get(key)

    def insert(self, key: int, prio: float) -> None:
        tab = self._tab
        if key in tab:
            raise KeyError(f"insert: key {key} already present")
        tab[key] = prio
        heappush(self._heap, (-prio, key))
        if len(self._heap) > 2 * len(tab) + _SLACK:
            self._compact()

    def update(self, key: int, prio: float) -> None:
        tab = self._tab
        old = tab.get(key)
        if old is None:
            raise KeyError(f"update: key {key} absent")
        if old == prio:  # best_edge depends only on the priorities
            return
        tab[key] = prio
        heappush(self._heap, (-prio, key))
        if len(self._heap) > 2 * len(tab) + _SLACK:
            self._compact()

    def upsert(self, key: int, prio: float) -> None:
        tab = self._tab
        if tab.get(key) == prio:
            return
        tab[key] = prio
        heappush(self._heap, (-prio, key))
        if len(self._heap) > 2 * len(tab) + _SLACK:
            self._compact()

    def delete(self, key: int) -> float:
        tab = self._tab
        prio = tab.pop(key, None)
        if prio is None:
            raise KeyError(f"delete: key {key} absent")
        if len(self._heap) > 2 * len(tab) + _SLACK:
            self._compact()
        return prio

    def rekey(self, old_key: int, new_key: int, prio: float) -> None:
        """Turn old_key's entry into new_key's at prio: old_key's list
        entry goes dead and one entry is pushed. new_key must be absent; on
        a KeyError the heap is unchanged."""
        tab = self._tab
        if new_key in tab:
            raise KeyError(f"rekey: key {new_key} already present")
        if tab.pop(old_key, None) is None:
            raise KeyError(f"rekey: key {old_key} absent")
        tab[new_key] = prio
        heappush(self._heap, (-prio, new_key))
        if len(self._heap) > 2 * len(tab) + _SLACK:
            self._compact()

    def best_edge(self) -> tuple[int, float]:
        heap, tab = self._heap, self._tab
        while heap:
            negp, key = heap[0]
            if tab.get(key) == -negp:
                return key, -negp
            heappop(heap)
        raise KeyError("best_edge on empty heap")

    union = _union
    relabel = _relabel

    def entries(self) -> Iterator[tuple[int, float]]:
        return iter(self._tab.items())

    def keys(self) -> list[int]:
        return list(self._tab)


NeighborHeap = TreeNeighborHeap | MeldNeighborHeap


def new_heap(
    impl: str, items: dict[int, float] | Iterable[tuple[int, float]] = ()
) -> NeighborHeap:
    """A heap of kind `impl` built from `items`: a dict is aliased, not
    copied, as the heap's table, so the caller must not use it again;
    (key, priority) pairs are copied."""
    if impl == "tree":
        return TreeNeighborHeap(items)
    if impl == "meld":
        return MeldNeighborHeap(items)
    raise ValueError(f"unknown heap impl {impl!r}; expected one of {HEAP_IMPLS}")
