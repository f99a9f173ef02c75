"""Dynamic bounded-outdegree edge orientation for the live cluster graph.

A deliberately simple reorient-on-overflow scheme: a new edge is oriented out
of the endpoint with smaller current outdegree (ties toward the smaller id);
whenever a vertex's outdegree exceeds the cap, all of its out-edges are
reversed at once, cascading until every outdegree is within the cap again.
Each reversal invokes the flip callback with the new (tail, head) direction.

With cap >= 2*sqrt(2m) the cascade always settles, since any m-edge graph
admits a sqrt(m)-outdegree orientation; deletions never flip anything.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

FlipFn = Callable[[int, int], None]  # flip(tail, head): edge now tail -> head


class OrientationError(ValueError):
    """The flip cascade did not settle within `Orientation.flip_limit` flips.

    This is a limit of the reorient-on-overflow scheme, not proof that no
    orientation fits under the cap: K5 has one at cap 2 (a regular
    tournament), yet inserting K5's edges in id order under cap 2 makes the
    cascade cycle."""


def default_cap(m0: int) -> int:
    """Default outdegree cap for a graph that starts with m0 edges.

    Contraction never increases the edge count, so the cap stays valid for
    the whole run."""
    return max(8, math.ceil(2.0 * math.sqrt(2.0 * m0)))


class Orientation:
    flip_limit = 10_000_000  # flips one cascade may make before it is declared stuck

    def __init__(
        self,
        cap: int,
        on_flip: FlipFn | None = None,
        audit: bool = False,
    ):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self.on_flip = on_flip
        self.out: dict[int, set[int]] = {}
        self.flip_count = 0
        self.audit = audit  # log every orient, flip and drop; re-check the cap
        self.events: list[tuple[str, int, int]] | None = [] if audit else None

    def outdegree(self, u: int) -> int:
        s = self.out.get(u)
        return len(s) if s is not None else 0

    def out_neighbors(self, u: int) -> list[int]:
        s = self.out.get(u)
        return sorted(s) if s else []

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out.get(u, ()) or u in self.out.get(v, ())

    def max_outdegree(self) -> int:
        return max((len(s) for s in self.out.values()), default=0)

    def _orient(self, tail: int, head: int) -> None:
        self.out.setdefault(tail, set()).add(head)
        if self.events is not None:
            self.events.append(("orient", tail, head))

    def insert_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("self-loop")
        out_u, out_v = self.out.get(u, ()), self.out.get(v, ())
        if v in out_u or u in out_v:
            raise ValueError(f"duplicate edge ({u},{v})")
        du, dv = len(out_u), len(out_v)
        tail, head, deg = (u, v, du) if (du, u) <= (dv, v) else (v, u, dv)
        self._orient(tail, head)
        if deg >= self.cap:  # the tail is now over the cap
            self._settle(tail)
        if self.audit:
            assert self.max_outdegree() <= self.cap

    def _settle(self, start: int) -> None:
        """Reverse all out-edges of any vertex over the cap until stable."""
        queue = deque([start])
        guard = 0
        while queue:
            x = queue.popleft()
            edges = self.out.get(x)
            if edges is None or len(edges) <= self.cap:
                continue
            for y in sorted(edges):  # deterministic cascade order
                edges.discard(y)
                self._orient(y, x)
                self.flip_count += 1
                if self.events is not None:
                    self.events.append(("flip", y, x))
                if self.on_flip is not None:
                    self.on_flip(y, x)
                if len(self.out[y]) > self.cap:
                    queue.append(y)
                guard += 1
                if guard > self.flip_limit:
                    raise OrientationError(
                        f"orientation cascade did not settle within {self.flip_limit} "
                        f"flips under outdegree cap {self.cap}; this scheme may need "
                        "a larger cap even where an orientation under it exists"
                    )

    def delete_edge(self, u: int, v: int) -> None:
        out_u = self.out.get(u, ())
        if v in out_u:
            out_u.remove(v)
        else:
            out_v = self.out.get(v, ())
            if u not in out_v:
                raise ValueError(f"edge ({u},{v}) absent")
            out_v.remove(u)
        if self.events is not None:
            self.events.append(("drop", u, v))
        if self.audit:
            assert self.max_outdegree() <= self.cap
