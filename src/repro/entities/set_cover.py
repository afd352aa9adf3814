"""Greedy set cover, used by GreedyMerge (Section 6.3).

GreedyMerge needs a *minimal* set of entities whose maximal elements
jointly cover a candidate key-set.  Minimal set cover is NP-hard, so —
consistent with the paper's Example 11, which only ever needs small
covers — we use the classical greedy approximation: repeatedly take the
set covering the most still-uncovered keys.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def greedy_set_cover_masks(
    target: int, candidates: Sequence[int]
) -> Optional[List[int]]:
    """Indices of a greedy cover of ``target`` from ``candidates``.

    Key-sets are interned integer bitmasks
    (:class:`~repro.entities.keyset.KeySetUniverse`): gains and
    extraneous-key counts are popcounts, feasibility is a single AND.

    Returns ``None`` when no subset of the candidates covers the
    target.  The empty target is covered by the empty cover only when
    at least one candidate exists — a zero-candidate call always fails,
    matching GreedyMerge's "no cover exists" branch.

    Deterministic: ties are broken by candidate index.
    """
    if not candidates:
        return None
    uncovered = target
    if not uncovered:
        return []
    # Fast feasibility check: every target key must appear somewhere.
    available = 0
    for candidate in candidates:
        available |= candidate
    if uncovered & available != uncovered:
        return None
    cover: List[int] = []
    chosen = [False] * len(candidates)
    while uncovered:
        best_index = -1
        best_score = None
        for index, candidate in enumerate(candidates):
            if chosen[index]:
                continue
            gain = (uncovered & candidate).bit_count()
            if gain == 0:
                continue
            # Prefer covers that stay inside the target: a set bringing
            # keys the candidate entity does not have is evidence of a
            # *different* entity that merely shares fields, and pulling
            # it in would glue distinct entities together (e.g. Yelp's
            # salons melting into the generic business entity).
            extraneous = (candidate & ~target).bit_count()
            score = (extraneous, -gain)
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
        if best_index < 0:  # pragma: no cover - feasibility checked above
            return None
        chosen[best_index] = True
        cover.append(best_index)
        uncovered &= ~candidates[best_index]
    return cover
