"""Per-cluster neighbor heaps: key = neighbor cluster id, priority = weight.

One implementation, MeldNeighborHeap: a hash table key -> priority, which is
the truth for get and len, plus a `heapq` list of (-priority, key) entries
that is cleaned lazily. A write of a changed priority pushes an entry, a
write of the priority already stored returns after the table lookup, delete
only touches the table, and BestEdge pops entries that no longer match the
table. The list is rebuilt from the table once it outgrows twice the table,
so point edits cost amortized O(log d).

TreeNeighborHeap (`--heap-impl tree`) is its twin: the same heap, except
that keys() and entries() run in reversed table order, so a union also
writes the smaller operand's entries in that order. Every engine must merge
identically on both, which checks that no engine depends on the order in
which it walks a heap.

A heap is built from a dict, which it takes over as its table with no copy:
the engines hand over the fresh rows they build. An empty build makes two
empty containers and nothing else.

Union writes the smaller heap's entries into the larger through upsert, one
combine per key in both, which costs O(s log(s+l)) for sizes s <= l; the
larger heap is returned and the smaller is left empty. Over a
triangle-linkage run the smaller sizes sum to at most
`engine.merge_cost_bound(m)`, so all unions together cost O~(m).

A merge relabels each neighbor's entry for the folded cluster to the
survivor. `rekey(old_key, new_key, prio)` is that edit when new_key is
absent: the table entry moves and one list entry is pushed. `relabel` uses
it, and otherwise deletes old_key and combines its priority into new_key's.

best_edge ties always break toward the smaller key; priorities are compared
exactly (no epsilons inside the structure).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterator

# Binary combine applied when a key occurs in both operands of union/relabel.
# Must be commutative and deterministic.
CombineFn = Callable[[float, float], float]

HEAP_IMPLS = ("tree", "meld")

# MeldNeighborHeap rebuilds its lazy list once it holds more than
# 2 * len(table) + _SLACK entries; the slack keeps tiny heaps from rebuilding
# on every other edit.
_SLACK = 16


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
    """Write the smaller operand's entries, in its entries() order, into the
    larger through `upsert`, one combine per key in both, and return the
    larger; on equal sizes that is `other`. The smaller operand is left
    empty and stays usable. Costs O(s log(s+l)) for sizes s <= l. Assigned
    in both heap class bodies, as `_relabel` is."""
    small, large = (self, other) if len(self) <= len(other) else (other, self)
    if not small._tab:  # every merge on a star: nothing to write or reset
        return large
    get, upsert = large._tab.get, large.upsert
    for key, prio in small.entries():
        lp = get(key)
        upsert(key, prio if lp is None else combine(lp, prio))
    small.__init__()
    return large


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
    keys() and entries() run in table order.
    """

    __slots__ = ("_tab", "_heap")

    def __init__(self, table: dict[int, float] | None = None):
        if not table:  # every emptied or freshly folded heap
            self._tab, self._heap = {}, []
            return
        self._tab = table
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


class TreeNeighborHeap(MeldNeighborHeap):
    """MeldNeighborHeap whose keys() and entries() run in reversed table
    order. The benchmark's tracer wraps the point ops, union and relabel
    found in each heap class's own `__dict__`, so they are bound here too."""

    __slots__ = ()

    get = MeldNeighborHeap.get
    best_edge = MeldNeighborHeap.best_edge
    insert = MeldNeighborHeap.insert
    update = MeldNeighborHeap.update
    upsert = MeldNeighborHeap.upsert
    delete = MeldNeighborHeap.delete
    union = _union
    relabel = _relabel

    def entries(self) -> Iterator[tuple[int, float]]:
        return reversed(self._tab.items())

    def keys(self) -> list[int]:
        return list(reversed(self._tab))


def new_heap(impl: str, table: dict[int, float] | None = None) -> MeldNeighborHeap:
    """A heap of kind `impl` that takes over `table` (default: empty) as its
    table: the dict is aliased, not copied, so the caller must not use it
    again."""
    if impl == "tree":
        return TreeNeighborHeap(table)
    if impl == "meld":
        return MeldNeighborHeap(table)
    raise ValueError(f"unknown heap impl {impl!r}; expected one of {HEAP_IMPLS}")
