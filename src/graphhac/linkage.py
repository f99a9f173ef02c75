"""Linkage measures: their names, the weights each accepts
(`check_weights`) and the pairwise combine rules of the triangle-based
measures. Average (UPGMA) linkage has no pairwise rule; its
engines in `average` merge raw cut sums.

An absent edge means undefined similarity; absence is represented by key
absence in the neighbor heaps, never by a sentinel weight, so combine
functions only ever see two real weights.
"""

from __future__ import annotations

import sys
from typing import Iterable

from .heaps import CombineFn

SINGLE = "single"
COMPLETE = "complete"
WPGMA = "wpgma"
AVG_EXACT = "avg-exact"
AVG_APPROX = "avg-approx"

TRIANGLE_KINDS = (SINGLE, COMPLETE, WPGMA)
AVERAGE_KINDS = (AVG_EXACT, AVG_APPROX)
ALL_KINDS = TRIANGLE_KINDS + AVERAGE_KINDS


# Largest weight sum average linkage accepts and largest |w| WPGMA accepts:
# under it every cut sum, and every (a + b) / 2, stays finite.
WEIGHT_BOUND = sys.float_info.max / 2


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


def check_weights(kind: str, edges: Iterable[tuple[int, int, float]]) -> None:
    """Reject weights `kind` cannot cluster, naming the edge or the sum.

    Average linkage counts a missing edge as cut 0, so a negative weight can
    make a merge raise a similarity and the chain's merges stop being the
    greedy ones: it needs w >= 0 and sum(w) <= WEIGHT_BOUND. WPGMA adds two
    weights per merge: it needs |w| <= WEIGHT_BOUND. Single and complete
    linkage only compare weights and accept any finite ones."""
    if kind in AVERAGE_KINDS:
        total = 0.0
        for u, v, w in edges:
            if w < 0.0:
                raise LinkageError(
                    f"{kind} needs non-negative weights; edge ({u},{v}) has weight {w!r}"
                )
            total += w
        if total > WEIGHT_BOUND:
            raise LinkageError(
                f"{kind} needs a weight sum of at most {WEIGHT_BOUND!r}; "
                f"the weights sum to {total!r}"
            )
    elif kind == WPGMA:
        for u, v, w in edges:
            if abs(w) > WEIGHT_BOUND:
                raise LinkageError(
                    f"{kind} needs |w| <= {WEIGHT_BOUND!r}; edge ({u},{v}) has weight {w!r}"
                )
