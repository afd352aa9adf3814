"""Bimax bi-clustering (Section 6.2, Algorithms 6 and 7).

Bimax — borrowed from gene-expression analysis (Prelic et al.) — sorts
a list of key-sets so that similar sets end up adjacent, using only
subset/superset structure and never a distance measure.  That makes it
robust to entity-size skew, the failure mode of Jaccard-style measures
illustrated by the paper's Example 9.

:func:`bimax_order` is Algorithm 6 (the reordering);
:func:`bimax_naive` is Algorithm 7, which additionally emits each
``K_sub`` block — the seed set and all of its subsets — as one entity
cluster.

Both run internally on interned integer bitmasks
(:mod:`repro.entities.keyset`), which turns every subset/overlap test
of the O(n²) partition loop into a couple of machine-word operations.
The public API speaks frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.instrument import counters
from repro.entities.keyset import KeySetUniverse, encode_all

#: A feature set: record keys (strings) or record paths (tuples),
#: depending on the configured feature mode.  Any hashable works.
KeySet = FrozenSet


@dataclass
class EntityCluster:
    """One discovered entity: a seed key-set and its member key-sets.

    ``maximal`` is the entity's maximal element — every member is a
    subset of it.  Bimax-Naive seeds it with the largest key-set of the
    block; GreedyMerge may later *synthesize* a larger one by unioning
    covers (tracked by ``synthesized``).

    ``member_counts``, when present, aligns with ``members`` and
    carries each member's record multiplicity, so downstream consumers
    (partition weighting, k-means seeding) can weight by record
    frequency rather than by distinct shape.  It is populated whenever
    the clustering entry point was given multiplicities.
    """

    maximal: KeySet
    members: List[KeySet] = field(default_factory=list)
    synthesized: bool = False
    member_counts: Optional[List[int]] = None

    @property
    def size(self) -> int:
        return len(self.maximal)

    @property
    def weight(self) -> int:
        """Total records covered: sum of multiplicities, or the member
        count when multiplicities were not threaded through."""
        if self.member_counts is None:
            return len(self.members)
        return sum(self.member_counts)

    def __contains__(self, key_set: KeySet) -> bool:
        return key_set in self.members

    def covers(self, key_set: KeySet) -> bool:
        """Is ``key_set`` within this entity's maximal element?"""
        return key_set <= self.maximal


def _sorted_masks(masks: Sequence[int], universe: KeySetUniverse) -> List[int]:
    """Descending size; ties broken by the repr-sorted keys.

    Keys are compared by ``repr`` because feature vectors may mix key
    types (strings, array positions, path tuples), which are not
    mutually ordered.  Bit positions are repr-sorted, so a mask's
    bit-order repr tuple is exactly ``tuple(sorted(map(repr, ks)))``
    and the order is a pure function of the key-sets.
    """
    keyed = {mask: (-mask.bit_count(), universe.sort_key(mask)) for mask in masks}
    return sorted(masks, key=keyed.__getitem__)


def distinct_key_sets(
    key_sets: Iterable[KeySet],
    counts: Optional[Sequence[int]] = None,
) -> Tuple[List[KeySet], List[int]]:
    """Multiplicity-preserving dedup: ``(distinct sets, multiplicities)``.

    Order is first occurrence.  Without explicit ``counts`` each
    occurrence weighs 1 (so the multiplicities are occurrence counts);
    with ``counts`` aligned to the input, duplicates accumulate their
    given weights — the bag semantics the counted-merge layer feeds in.
    """
    index: dict = {}
    unique: List[KeySet] = []
    weights: List[int] = []
    if counts is None:
        for key_set in key_sets:
            frozen = frozenset(key_set)
            at = index.get(frozen)
            if at is None:
                index[frozen] = len(unique)
                unique.append(frozen)
                weights.append(1)
            else:
                weights[at] += 1
    else:
        for key_set, count in zip(key_sets, counts):
            frozen = frozenset(key_set)
            at = index.get(frozen)
            if at is None:
                index[frozen] = len(unique)
                unique.append(frozen)
                weights.append(count)
            else:
                weights[at] += count
    return unique, weights


# -- Algorithm 6: the reordering -------------------------------------------


def _bimax_order_masks(ordering: List[int]) -> List[int]:
    """The reorder loop over int masks, already size-sorted."""
    subset_tests = 0
    index = 0
    while index < len(ordering):
        k_max = ordering[index]
        subsets: List[int] = []
        overlap: List[int] = []
        disjoint: List[int] = []
        for mask in ordering[index:]:
            inter = mask & k_max
            if inter == mask:
                subsets.append(mask)
            elif not inter:
                disjoint.append(mask)
            else:
                overlap.append(mask)
        subset_tests += len(ordering) - index
        ordering[index:] = subsets + overlap + disjoint
        index += len(subsets)
    counters.add("entities.subset_tests", subset_tests)
    return ordering


def bimax_order(key_sets: Sequence[KeySet]) -> List[KeySet]:
    """Algorithm 6: reorder key-sets so similar sets are adjacent.

    Repeatedly takes the current head ``k_max`` and stably rearranges
    the remainder as (subsets of ``k_max``) < (overlapping) <
    (disjoint), then advances past the subset block.
    """
    universe = KeySetUniverse.from_key_sets(key_sets)
    masks = _sorted_masks(encode_all(universe, key_sets), universe)
    return [universe.decode(mask) for mask in _bimax_order_masks(masks)]


# -- Algorithm 7: the naive clustering -------------------------------------


def bimax_naive(
    key_sets: Sequence[KeySet],
    counts: Optional[Sequence[int]] = None,
) -> List[EntityCluster]:
    """Algorithm 7: cluster key-sets into subset-blocks.

    Returns clusters in emission (insertion) order.  Each cluster's
    maximal element is its seed — the largest key-set of its block —
    and its members are that seed's subsets from the remaining input.
    Duplicates in the input collapse (a bag of identical key-sets forms
    a single member); their multiplicities accumulate and, when
    ``counts`` is given, are recorded on the clusters'
    ``member_counts``.
    """
    distinct, weights = distinct_key_sets(key_sets, counts)
    universe = KeySetUniverse.from_key_sets(distinct)
    masks = encode_all(universe, distinct)
    count_of = dict(zip(masks, weights))
    ordering = _bimax_order_masks(_sorted_masks(masks, universe))
    keep_counts = counts is not None
    clusters: List[EntityCluster] = []
    subset_tests = 0
    index = 0
    while index < len(ordering):
        k_max = ordering[index]
        subsets: List[int] = []
        overlap: List[int] = []
        disjoint: List[int] = []
        for mask in ordering[index:]:
            inter = mask & k_max
            if inter == mask:
                subsets.append(mask)
            elif not inter:
                disjoint.append(mask)
            else:
                overlap.append(mask)
        subset_tests += len(ordering) - index
        ordering[index:] = subsets + overlap + disjoint
        clusters.append(
            EntityCluster(
                maximal=universe.decode(k_max),
                members=[universe.decode(m) for m in subsets],
                member_counts=(
                    [count_of[m] for m in subsets] if keep_counts else None
                ),
            )
        )
        index += len(subsets)
    counters.add("entities.subset_tests", subset_tests)
    counters.add("entities.clusters_emitted", len(clusters))
    return clusters

