"""Linkage measures: their names and the pairwise combine rules of the
triangle-based measures. Average (UPGMA) linkage has no pairwise rule; its
engines in `average` merge raw cut sums.

An absent edge means undefined similarity; absence is represented by key
absence in the neighbor heaps, never by a sentinel weight, so combine
functions only ever see two real weights.
"""

from __future__ import annotations

from .heaps import CombineFn

SINGLE = "single"
COMPLETE = "complete"
WPGMA = "wpgma"
AVG_EXACT = "avg-exact"
AVG_APPROX = "avg-approx"

TRIANGLE_KINDS = (SINGLE, COMPLETE, WPGMA)
AVERAGE_KINDS = (AVG_EXACT, AVG_APPROX)
ALL_KINDS = TRIANGLE_KINDS + AVERAGE_KINDS


class LinkageError(ValueError):
    pass


def _mean(a: float, b: float) -> float:
    return (a + b) / 2.0


_COMBINES: dict[str, CombineFn] = {
    SINGLE: max,
    COMPLETE: min,
    WPGMA: _mean,
}


def is_triangle_based(kind: str) -> bool:
    if kind not in ALL_KINDS:
        raise LinkageError(f"unknown linkage {kind!r}; expected one of {ALL_KINDS}")
    return kind in TRIANGLE_KINDS


def combine_fn(kind: str) -> CombineFn:
    """The weight-combine used on key collisions during union/relabel."""
    try:
        return _COMBINES[kind]
    except KeyError:
        raise LinkageError(
            f"{kind!r} has no pairwise combine; average linkage merges raw "
            "cut sums, not stored weights"
        ) from None
