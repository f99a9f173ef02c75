"""Dendrogram: the ordered merge list produced by a clustering run.

Leaves are 0..n-1; merge i creates internal id n+i. Each record is
(left, right, weight, size) where left is the folded cluster's node id,
right is the surviving cluster's pre-merge node id, and size is the merged
cluster size. Disconnected inputs yield one root per component.

Text format (one file per dendrogram):

    n <leafcount>
    <index> <left> <right> <weight> <size>     # one line per merge
    ...
    root <id>                                  # one line per component root
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .graph import read_text

SAME_REL_TOL = 1e-9  # same_clustering's relative tolerance on merge weights


class Merge(NamedTuple):
    left: int
    right: int
    weight: float
    size: int


class DendrogramError(ValueError):
    pass


@dataclass(frozen=True)
class Dendrogram:
    n: int
    merges: tuple[Merge, ...]
    roots: tuple[int, ...]

    def validate(self) -> None:
        """Structural invariants: id usage, sizes, merge count vs roots."""
        if self.n < 1:
            raise DendrogramError("dendrogram needs at least one leaf")
        # checked before any per-leaf work, so a huge leaf count fails at once
        if len(self.roots) != self.n - len(self.merges):
            raise DendrogramError(
                f"{len(self.merges)} merges on {self.n} leaves must leave "
                f"{self.n - len(self.merges)} roots, got {len(self.roots)}"
            )
        size = {i: 1 for i in range(self.n)}
        used: set[int] = set()
        for i, (l, r, _w, s) in enumerate(self.merges):
            new_id = self.n + i
            for side in (l, r):
                if side not in size:
                    raise DendrogramError(f"merge {i} references unknown id {side}")
                if side in used:
                    raise DendrogramError(f"merge {i} reuses id {side}")
                used.add(side)
            if size[l] + size[r] != s:
                raise DendrogramError(
                    f"merge {i} size {s} != {size[l]} + {size[r]}"
                )
            size[new_id] = s
        live = set(size) - used
        if set(self.roots) != live:
            raise DendrogramError(f"roots {self.roots} != unmerged ids {sorted(live)}")

    def leaf_sets(self) -> dict[int, frozenset[int]]:
        """Node id -> the set of leaves under it."""
        out: dict[int, frozenset[int]] = {i: frozenset((i,)) for i in range(self.n)}
        for i, (l, r, _w, _s) in enumerate(self.merges):
            out[self.n + i] = out[l] | out[r]
        return out

    def canonical_merges(self) -> list[tuple[frozenset[int], float]]:
        """Merges as (leaf set of the created cluster, weight), sorted by
        descending weight then leaf set. Two runs produce the same clustering
        iff these agree, regardless of merge discovery order."""
        ls = self.leaf_sets()
        items = [
            (ls[self.n + i], m.weight) for i, m in enumerate(self.merges)
        ]
        return sorted(items, key=lambda t: (-t[1], sorted(t[0])))

    def format_text(self) -> str:
        lines = [f"n {self.n}"]
        for i, (l, r, w, s) in enumerate(self.merges):
            lines.append(f"{i} {l} {r} {w:.17g} {s}")
        for root in self.roots:
            lines.append(f"root {root}")
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.format_text(), encoding="utf-8")


def parse_dendrogram(text: str) -> Dendrogram:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise DendrogramError("missing 'n <leafcount>' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise DendrogramError("bad leaf count header") from None
    merges: list[Merge] = []
    roots: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        try:
            if fields[0] == "root":
                if len(fields) != 2:
                    raise DendrogramError(f"line {lineno}: bad root line")
                roots.append(int(fields[1]))
                continue
            if len(fields) != 5:
                raise DendrogramError(f"line {lineno}: expected 5 fields")
            idx, l, r, w, s = fields
            if int(idx) != len(merges):
                raise DendrogramError(f"line {lineno}: merge index out of order")
            merges.append(Merge(int(l), int(r), float(w), int(s)))
        except DendrogramError:
            raise
        except ValueError:
            raise DendrogramError(f"line {lineno}: bad field in {line!r}") from None
        if not math.isfinite(merges[-1].weight):  # level order needs a total order
            raise DendrogramError(f"line {lineno}: merge weight {w} is not finite")
    d = Dendrogram(n, tuple(merges), tuple(roots))
    d.validate()
    return d


def load_dendrogram(path: str | Path) -> Dendrogram:
    return parse_dendrogram(read_text(path))


def same_clustering(a: Dendrogram, b: Dendrogram) -> bool:
    """True if the two dendrograms describe the same merges, compared
    order-independently: identical created leaf sets, weights within
    SAME_REL_TOL."""
    if a.n != b.n or len(a.merges) != len(b.merges):
        return False
    ca, cb = a.canonical_merges(), b.canonical_merges()
    for (sa, wa), (sb, wb) in zip(ca, cb):
        if sa != sb:
            return False
        if abs(wa - wb) > SAME_REL_TOL * max(abs(wa), abs(wb), 1e-300):
            return False
    return True


class DendrogramBuilder:
    """Accumulates merges during a run; cluster ids map to dendrogram ids."""

    __slots__ = ("n", "node_id", "merges")

    def __init__(self, n: int):
        self.n = n
        self.node_id = list(range(n))  # live cluster id -> dendrogram node id
        self.merges: list[Merge] = []

    def record(self, folded: int, survivor: int, weight: float, size: int) -> int:
        """Record folding `folded` into `survivor`; returns the new node id."""
        new_id = self.n + len(self.merges)
        self.merges.append(
            Merge(self.node_id[folded], self.node_id[survivor], weight, size)
        )
        self.node_id[survivor] = new_id
        return new_id

    def finish(self, active_clusters: list[int]) -> Dendrogram:
        roots = tuple(sorted(self.node_id[c] for c in active_clusters))
        d = Dendrogram(self.n, tuple(self.merges), roots)
        d.validate()
        return d
