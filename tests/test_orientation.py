import math
import random

import pytest

from graphhac.orientation import Orientation, OrientationError, default_cap


def directed_edges(o: Orientation) -> set[tuple[int, int]]:
    return {(u, v) for u, s in o.out.items() for v in s}


def test_lower_outdegree_rule_triangle():
    o = Orientation(2)
    o.insert_edge(0, 1)  # tie: out of the smaller id
    o.insert_edge(1, 2)
    o.insert_edge(0, 2)  # outdeg(2)=0 < outdeg(0)=1
    assert directed_edges(o) == {(0, 1), (1, 2), (2, 0)}
    assert o.max_outdegree() == 1
    assert o.out_neighbors(2) == [0]
    assert o.out_neighbors(3) == []


def test_insert_toward_full_vertex_no_flip():
    o = Orientation(2)
    o.insert_edge(1, 2)  # 1 -> 2 (id tie)
    o.insert_edge(3, 4)  # 3 -> 4 (id tie)
    o.insert_edge(1, 3)  # outdegree tie at 1, smaller id: 1 -> 3
    assert o.out_neighbors(1) == [2, 3]  # 1 sits exactly at the cap
    o.insert_edge(0, 1)  # 0 has the smaller outdegree, so 0 -> 1: no flip
    assert (0, 1) in directed_edges(o)
    assert o.flip_count == 0


def test_overflow_cascade():
    # cap 1: (0,1) gives 0->1, (2,3) gives 2->3; (0,2) ties at outdeg 1 and
    # goes out of 0, pushing outdeg(0) to 2 and reversing 0's edges; 2 then
    # overflows in turn and reverses its own.
    flips = []
    o = Orientation(1, on_flip=lambda t, h: flips.append((t, h)))
    o.insert_edge(0, 1)
    o.insert_edge(2, 3)
    o.insert_edge(0, 2)
    assert flips == [(1, 0), (2, 0), (0, 2), (3, 2)]
    assert o.max_outdegree() <= 1
    assert directed_edges(o) == {(1, 0), (0, 2), (3, 2)}


def test_delete_and_reinsert():
    o = Orientation(2)
    o.insert_edge(0, 1)
    o.delete_edge(1, 0)  # direction-agnostic delete
    assert o.outdegree(0) == 0
    o.insert_edge(0, 1)  # fresh orientation decision is legal
    assert o.has_edge(0, 1)
    with pytest.raises(ValueError):
        o.delete_edge(0, 2)


def test_insert_errors():
    o = Orientation(2)
    o.insert_edge(0, 1)
    with pytest.raises(ValueError):
        o.insert_edge(1, 0)
    with pytest.raises(ValueError):
        o.insert_edge(3, 3)


def test_cap_invariant_after_every_operation():
    rng = random.Random(3)
    n, m0 = 24, 60
    cap = default_cap(m0)
    o = Orientation(cap)
    live: set[tuple[int, int]] = set()
    for _ in range(800):
        if live and rng.random() < 0.35:
            e = rng.choice(sorted(live))
            live.discard(e)
            o.delete_edge(*e)
        elif len(live) < m0:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in live:
                continue
            live.add(e)
            o.insert_edge(*e)
        assert o.max_outdegree() <= cap
        arcs = directed_edges(o)
        assert len(arcs) == len(live)
        assert {(min(u, v), max(u, v)) for u, v in arcs} == live


def test_event_log_replays_to_final_orientation():
    # n=16, cap 8, at most 28 live edges: arboricity stays <= 4, the scheme
    # settles, and high-degree hubs still trigger real flip cascades
    rng = random.Random(9)
    o = Orientation(8, audit=True)
    live: set[tuple[int, int]] = set()
    for _ in range(300):
        if live and (len(live) >= 28 or rng.random() < 0.3):
            e = rng.choice(sorted(live))
            live.discard(e)
            o.delete_edge(*e)
        else:
            u, v = rng.randrange(16), rng.randrange(16)
            e = (min(u, v), max(u, v))
            if u == v or e in live:
                continue
            live.add(e)
            o.insert_edge(*e)
    mirror: set[tuple[int, int]] = set()
    for kind, a, b in o.events:
        if kind == "orient":
            mirror.add((a, b))
        elif kind == "flip":
            mirror.discard((b, a))
            mirror.add((a, b))
        else:  # drop: direction unknown to the caller, remove whichever
            mirror.discard((a, b))
            mirror.discard((b, a))
    assert mirror == directed_edges(o)


def test_flip_count_guardrail():
    """With the default cap, total flips stay within c * ops * log2(n);
    observed factors are far below the documented c = 4."""
    for seed in range(5):
        rng = random.Random(seed)
        n = 64
        edges = set()
        while len(edges) < 4 * n:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        cap = default_cap(len(edges))
        o = Orientation(cap)
        ops = 0
        for e in sorted(edges):
            o.insert_edge(*e)
            ops += 1
        for e in rng.sample(sorted(edges), len(edges) // 2):
            o.delete_edge(*e)
            ops += 1
        assert o.flip_count <= 4 * ops * math.log2(n)


def test_stuck_cascade_raises_value_error():
    # K5 under cap 2 makes the reorient-on-overflow cascade cycle
    o = Orientation(2)
    o.flip_limit = 1000
    with pytest.raises(OrientationError, match="cap 2"):
        for u in range(5):
            for v in range(u + 1, 5):
                o.insert_edge(u, v)
    assert issubclass(OrientationError, ValueError)
