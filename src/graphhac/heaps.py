"""Per-cluster neighbor heaps: key = neighbor cluster id, priority = weight.

Two interchangeable representations with identical observable behavior:

* TreeNeighborHeap: a hash table key -> priority, which is the truth for
  get, len and membership, plus an AVL tree keyed by neighbor id and
  augmented with the subtree max priority, which answers BestEdge in
  O(log d). A write of the priority already stored returns after the table
  lookup. Construction builds one node per item from the sorted items
  (one linear pass on the sorted lists the engines pass), middle item at
  the root and one-item ranges made leaves directly: O(d) tree operations,
  KeyError on a duplicate key. Insert and delete descend once and
  rebalance upward only until an ancestor keeps its place, height and
  maxp; a node with two children takes the entry of its in-order
  predecessor, which is unlinked instead. A changed priority keeps the
  shape: a rise lifts maxp on the way down, a fall recomputes it from the
  node up to the first unchanged ancestor, O(log d) at worst.
* MeldNeighborHeap: a hash table key -> priority, which is the truth, plus a
  `heapq` list of (-priority, key) entries that is cleaned lazily: a write
  of a changed priority pushes an entry, delete only touches the table, and
  BestEdge pops entries that no longer match the table. The list is rebuilt
  from the table once it outgrows twice the table, so point edits cost
  amortized O(log d).

Both share one union: the smaller heap's entries are upserted into the
larger, one combine per key in both, which costs O(s log l) for sizes
s <= l; the larger heap is returned and the smaller is left empty. Over a
triangle-linkage run the smaller sizes sum to at most
`engine.merge_cost_bound(m)`, so all unions together cost O~(m).

best_edge ties always break toward the smaller key; priorities are compared
exactly (no epsilons inside the structure). entries() runs in key order on
the tree and in table order on the meld heap.
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


class _TNode:
    __slots__ = ("key", "prio", "left", "right", "height", "maxp")

    def __init__(self, key: int, prio: float):
        self.key = key
        self.prio = prio
        self.left = None
        self.right = None
        self.height = 1
        self.maxp = prio


def _h(t) -> int:
    return t.height if t is not None else 0


def _fix(t) -> None:
    """Recompute t's height and maxp from its children."""
    l, r = t.left, t.right
    m = t.prio
    if l is None:
        if r is None:
            t.height = 1
        else:
            t.height = r.height + 1
            if r.maxp > m:
                m = r.maxp
    elif r is None:
        t.height = l.height + 1
        if l.maxp > m:
            m = l.maxp
    else:
        hl, hr = l.height, r.height
        t.height = (hl if hl > hr else hr) + 1
        if l.maxp > m:
            m = l.maxp
        if r.maxp > m:
            m = r.maxp
    t.maxp = m


def _rot_left(t):
    r = t.right
    t.right = r.left
    r.left = t
    _fix(t)
    _fix(r)
    return r


def _rot_right(t):
    l = t.left
    t.left = l.right
    l.right = t
    _fix(t)
    _fix(l)
    return l


def _build(items, lo: int, hi: int):
    """Balanced tree over the non-empty range items[lo:hi], sorted by
    distinct keys: the middle item is the root, so sibling sizes (hence
    heights) differ by at most one, and the left range, never the shorter,
    sets the height. A one-item range becomes a leaf without recursing, and
    each node's height and maxp are set from its children as it is made."""
    mid = (lo + hi) // 2
    k, p = items[mid]
    t = _TNode(k, p)
    if lo < mid:
        l = t.left = _build(items, lo, mid)
        t.height = l.height + 1
        if l.maxp > p:
            p = l.maxp
        if mid + 1 < hi:
            r = t.right = _build(items, mid + 1, hi)
            if r.maxp > p:
                p = r.maxp
        t.maxp = p
    return t


def _descend(t, key):
    """Returns (node with key or None, the nodes passed on the way down)."""
    path = []
    while t is not None:
        k = t.key
        if key == k:
            break
        path.append(t)
        t = t.left if key < k else t.right
    return t, path


def _reprioritize(t, key, old: float, new: float) -> None:
    """Change the priority of key, present in tree t, from old to a different
    new one; the shape stays. A rise lifts every maxp on the path to at least
    new in one descent. A fall can only lower the nodes whose maxp was old,
    which end the path; they are recomputed bottom-up, stopping at the first
    one whose maxp comes out unchanged."""
    if new > old:
        while True:
            if t.maxp < new:
                t.maxp = new
            k = t.key
            if key == k:
                t.prio = new
                return
            t = t.left if key < k else t.right
    path = []
    k = t.key
    while key != k:
        if t.maxp == old:
            path.append(t)
        t = t.left if key < k else t.right
        k = t.key
    t.prio = new
    if t.maxp != old:  # a larger priority below t keeps every maxp
        return
    while True:
        m = t.prio
        l, r = t.left, t.right
        if l is not None and l.maxp > m:
            m = l.maxp
        if r is not None and r.maxp > m:
            m = r.maxp
        if m == t.maxp:
            return
        t.maxp = m
        if not path:
            return
        t = path.pop()


def _rebalance(t):
    """Refresh t after one child's height changed by at most one, rotating if
    the AVL balance broke; returns the subtree's new root."""
    l, r = t.left, t.right
    hl = l.height if l is not None else 0
    hr = r.height if r is not None else 0
    if hl > hr + 1:
        if _h(l.left) < _h(l.right):
            t.left = _rot_left(l)
        return _rot_right(t)
    if hr > hl + 1:
        if _h(r.right) < _h(r.left):
            t.right = _rot_right(r)
        return _rot_left(t)
    _fix(t)
    return t


def _replace(path, key, t):
    """Put subtree t where the descent `path` for `key` ended (a new leaf, or
    the only child of an unlinked node, either within one level of the old
    height) and rebalance upward. The walk stops at the first ancestor
    that neither rotates nor changes its height or maxp, since nothing above
    it can change; returns the root."""
    root = path[0] if path else t
    while path:
        p = path.pop()
        if key < p.key:
            p.left = t
        else:
            p.right = t
        h, m = p.height, p.maxp
        t = _rebalance(p)
        if t is p and p.height == h and p.maxp == m:
            return root
    return t


def _relabel(self, old_key: int, new_key: int, combine: CombineFn) -> None:
    """Move old_key's priority to new_key, combined with new_key's own
    priority if it has one. Assigned in both heap class bodies, so each
    class defines its own `relabel`."""
    prio = self.delete(old_key)
    ex = self._tab.get(new_key)
    if ex is None:
        self.insert(new_key, prio)
    else:
        self.update(new_key, combine(ex, prio))


def _union(self, other, combine: CombineFn):
    """Write the smaller operand's entries into the larger through `upsert`,
    one combine per key in both, and return the larger; on equal sizes that
    is `other`. The smaller operand is left empty and stays usable. Costs
    O(s log l) for sizes s <= l. Assigned in both heap class bodies, as
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
    """Augmented balanced tree representation (deterministic).

    `_tab` maps key -> priority and is the truth for get, len and
    membership, as in MeldNeighborHeap; `_root` holds the same entries as a
    tree ordered by key, with subtree max priorities for best_edge. A write
    of the priority already stored returns without touching the tree."""

    __slots__ = ("_root", "_tab")

    def __init__(self, items: Iterable[tuple[int, float]] = ()):
        items = list(items)
        tab = {k: float(p) for k, p in items}
        if len(tab) != len(items):
            raise KeyError("insert: duplicate key in items")
        self._tab = tab
        # one linear pass when the items arrive sorted by key
        self._root = _build(sorted(tab.items()), 0, len(tab)) if tab else None

    def __len__(self) -> int:
        return len(self._tab)

    def __contains__(self, key: int) -> bool:
        return key in self._tab

    def get(self, key: int) -> float | None:
        return self._tab.get(key)

    def insert(self, key: int, prio: float) -> None:
        tab = self._tab
        if key in tab:
            raise KeyError(f"insert: key {key} already present")
        tab[key] = prio
        _, path = _descend(self._root, key)
        self._root = _replace(path, key, _TNode(key, prio))

    def update(self, key: int, prio: float) -> None:
        tab = self._tab
        old = tab.get(key)
        if old is None:
            raise KeyError(f"update: key {key} absent")
        if old == prio:
            return
        tab[key] = prio
        _reprioritize(self._root, key, old, prio)

    def upsert(self, key: int, prio: float) -> None:
        tab = self._tab
        old = tab.get(key)
        if old == prio:
            return
        tab[key] = prio
        if old is None:
            _, path = _descend(self._root, key)
            self._root = _replace(path, key, _TNode(key, prio))
        else:
            _reprioritize(self._root, key, old, prio)

    def delete(self, key: int) -> float:
        prio = self._tab.pop(key, None)
        if prio is None:
            raise KeyError(f"delete: key {key} absent")
        t, path = _descend(self._root, key)
        if t.left is None or t.right is None:
            self._root = _replace(path, key, t.right if t.left is None else t.left)
            return prio
        # Unlink the in-order predecessor s, which has no right child.
        # _replace walks back up by s.key while t still holds the deleted
        # key, so each step takes the side s hangs on; then s's entry moves
        # into t, which keeps the key order.
        path.append(t)
        s = t.left
        while s.right is not None:
            path.append(s)
            s = s.right
        root = _replace(path, s.key, s.left)
        t.key = s.key
        if s.prio != prio:
            _reprioritize(root, s.key, prio, s.prio)
        self._root = root
        return prio

    def best_edge(self) -> tuple[int, float]:
        t = self._root
        if t is None:
            raise KeyError("best_edge on empty heap")
        m = t.maxp
        while True:
            if t.left is not None and t.left.maxp == m:
                t = t.left
            elif t.prio == m:
                return t.key, t.prio
            else:
                t = t.right

    union = _union
    relabel = _relabel

    def entries(self) -> Iterator[tuple[int, float]]:
        """In increasing key order."""
        stack, t = [], self._root
        while stack or t is not None:
            while t is not None:
                stack.append(t)
                t = t.left
            t = stack.pop()
            yield t.key, t.prio
            t = t.right

    def keys(self) -> list[int]:
        return [k for k, _ in self.entries()]


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

    def __init__(self, items: Iterable[tuple[int, float]] = ()):
        items = list(items)
        self._tab = {k: float(p) for k, p in items}
        if len(self._tab) != len(items):
            raise KeyError("insert: duplicate key in items")
        self._compact()

    def _compact(self) -> None:
        heap = [(-p, k) for k, p in self._tab.items()]
        heapify(heap)
        self._heap = heap

    def __len__(self) -> int:
        return len(self._tab)

    def __contains__(self, key: int) -> bool:
        return key in self._tab

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


def new_heap(impl: str, items: Iterable[tuple[int, float]] = ()) -> NeighborHeap:
    if impl == "tree":
        return TreeNeighborHeap(items)
    if impl == "meld":
        return MeldNeighborHeap(items)
    raise ValueError(f"unknown heap impl {impl!r}; expected one of {HEAP_IMPLS}")
