"""Frozenset reference implementations of the entity layer (test oracle).

The product (:mod:`repro.entities`) runs Bimax ordering, Bimax-Naive,
GreedyMerge, the greedy set cover and the partitioner's assignment
rules on interned integer bitmasks.  This module keeps the direct
set-algebra transcription of the same algorithms — paper §6.2–6.3
(Algorithms 6–8) and the §4.3 partitioner — so the equivalence suite
and the entity bench can check that the masks change nothing: same
maximals, same members, same emission order, same assignments, and the
same ``entities.*`` counters.

It also holds the small helpers only tests need (block spans, cover
feasibility, an exact minimal cover by branch and bound).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.engine.instrument import counters
from repro.entities.bimax import EntityCluster, KeySet, distinct_key_sets

T = TypeVar("T")


# -- Algorithm 6: the reordering -------------------------------------------


@lru_cache(maxsize=65536)
def _repr_sort_key(key_set: KeySet) -> Tuple[str, ...]:
    """``tuple(sorted(map(repr, ks)))``, computed once per key-set.

    Keys are sorted by ``repr`` because feature vectors may mix key
    types (strings, array positions, path tuples), which are not
    mutually ordered.
    """
    return tuple(sorted(map(repr, key_set)))


def sorted_by_size(key_sets: Iterable[KeySet]) -> List[KeySet]:
    """Descending size; ties broken by the repr key for determinism."""
    return sorted(key_sets, key=lambda ks: (-len(ks), _repr_sort_key(ks)))


def _order_sets(ordering: List[KeySet]) -> List[KeySet]:
    subset_tests = 0
    index = 0
    while index < len(ordering):
        k_max = ordering[index]
        subsets: List[KeySet] = []
        overlap: List[KeySet] = []
        disjoint: List[KeySet] = []
        for key_set in ordering[index:]:
            subset_tests += 1
            if key_set <= k_max:
                subsets.append(key_set)
            elif not (key_set & k_max):
                disjoint.append(key_set)
            else:
                overlap.append(key_set)
        ordering[index:] = subsets + overlap + disjoint
        index += len(subsets)
    counters.add("entities.subset_tests", subset_tests)
    return ordering


def bimax_order(key_sets: Sequence[KeySet]) -> List[KeySet]:
    """Algorithm 6 over frozensets."""
    return _order_sets(sorted_by_size(key_sets))


# -- Algorithm 7: the naive clustering -------------------------------------


def bimax_naive(
    key_sets: Sequence[KeySet],
    counts: Optional[Sequence[int]] = None,
) -> List[EntityCluster]:
    """Algorithm 7 over frozensets."""
    distinct, weights = distinct_key_sets(key_sets, counts)
    count_of = dict(zip(distinct, weights))
    ordering = _order_sets(sorted_by_size(distinct))
    blocks: List[Tuple[KeySet, List[KeySet], List[int]]] = []
    subset_tests = 0
    index = 0
    while index < len(ordering):
        k_max = ordering[index]
        subsets: List[KeySet] = []
        overlap: List[KeySet] = []
        disjoint: List[KeySet] = []
        for key_set in ordering[index:]:
            if key_set <= k_max:
                subsets.append(key_set)
            elif not (key_set & k_max):
                disjoint.append(key_set)
            else:
                overlap.append(key_set)
        subset_tests += len(ordering) - index
        ordering[index:] = subsets + overlap + disjoint
        blocks.append(
            (k_max, list(subsets), [count_of[ks] for ks in subsets])
        )
        index += len(subsets)
    counters.add("entities.subset_tests", subset_tests)
    counters.add("entities.clusters_emitted", len(blocks))
    keep_counts = counts is not None
    return [
        EntityCluster(
            maximal=maximal,
            members=members,
            member_counts=list(member_counts) if keep_counts else None,
        )
        for maximal, members, member_counts in blocks
    ]


def block_boundaries(key_sets: Sequence[KeySet]) -> List[Tuple[int, int]]:
    """The ``(start, end)`` spans of each subset block after ordering."""
    spans: List[Tuple[int, int]] = []
    start = 0
    for cluster in bimax_naive(key_sets):
        end = start + len(cluster.members)
        spans.append((start, end))
        start = end
    return spans


# -- greedy set cover -------------------------------------------------------


def greedy_set_cover(
    target: KeySet, candidates: Sequence[KeySet]
) -> Optional[List[int]]:
    """The greedy cover over frozensets; ties broken by index."""
    if not candidates:
        return None
    uncovered = set(target)
    if not uncovered:
        return []
    available = set()
    for candidate in candidates:
        available |= candidate
    if not uncovered <= available:
        return None
    cover: List[int] = []
    chosen = [False] * len(candidates)
    target_keys = set(target)
    while uncovered:
        best_index = -1
        best_score = None
        for index, candidate in enumerate(candidates):
            if chosen[index]:
                continue
            gain = len(uncovered & candidate)
            if gain == 0:
                continue
            extraneous = len(candidate - target_keys)
            score = (extraneous, -gain)
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
        chosen[best_index] = True
        cover.append(best_index)
        uncovered -= candidates[best_index]
    return cover


def cover_exists(target: KeySet, candidates: Sequence[KeySet]) -> bool:
    """Does any subset of ``candidates`` cover ``target``?"""
    return greedy_set_cover(target, candidates) is not None


def minimal_cover_size(
    target: KeySet, candidates: Sequence[KeySet]
) -> Optional[int]:
    """Size of an exact minimal cover, by branch and bound."""
    greedy = greedy_set_cover(target, candidates)
    if greedy is None:
        return None
    best = len(greedy)
    order = sorted(
        range(len(candidates)),
        key=lambda i: -len(candidates[i] & target),
    )

    def search(uncovered: frozenset, start: int, used: int) -> None:
        nonlocal best
        if not uncovered:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        for position in range(start, len(order)):
            candidate = candidates[order[position]]
            if uncovered & candidate:
                search(uncovered - candidate, position + 1, used + 1)

    search(frozenset(target), 0, 0)
    return best


# -- Algorithm 8: GreedyMerge ----------------------------------------------


def _counts_threaded(clusters: Sequence[EntityCluster]) -> bool:
    return bool(clusters) and all(
        cluster.member_counts is not None for cluster in clusters
    )


def greedy_merge(clusters: Sequence[EntityCluster]) -> List[EntityCluster]:
    """Algorithm 8 over frozensets."""
    with_counts = _counts_threaded(clusters)
    live: List[EntityCluster] = [
        EntityCluster(
            maximal=cluster.maximal,
            members=list(cluster.members),
            synthesized=cluster.synthesized,
            member_counts=(
                list(cluster.member_counts) if with_counts else None
            ),
        )
        for cluster in clusters
    ]
    consumed = [False] * len(live)
    emitted = [False] * len(live)
    merged: List[EntityCluster] = []
    cover_calls = 0

    for position in range(len(live) - 1, -1, -1):
        if consumed[position]:
            continue
        candidate = live[position]
        while True:
            pool = [
                index
                for index in range(len(live) - 1, -1, -1)
                if index != position
                and not consumed[index]
                and not emitted[index]
            ]
            cover_calls += 1
            cover_local = greedy_set_cover(
                candidate.maximal, [live[i].maximal for i in pool]
            )
            if cover_local is None or not cover_local:
                break
            new_keys: set = set(candidate.maximal)
            for local in cover_local:
                index = pool[local]
                consumed[index] = True
                candidate.members.extend(live[index].members)
                if with_counts:
                    candidate.member_counts.extend(
                        live[index].member_counts
                    )
                new_keys |= live[index].maximal
            candidate.maximal = frozenset(new_keys)
            candidate.synthesized = True
        emitted[position] = True
        merged.append(candidate)

    counters.add("entities.cover_calls", cover_calls)
    counters.add("entities.clusters_emitted", len(merged))
    return merged


def merge_to_fixpoint(
    clusters: Sequence[EntityCluster], max_iterations: int = 4
) -> List[EntityCluster]:
    """Iterate the reference GreedyMerge over its own output."""
    current = list(clusters)
    with_counts = _counts_threaded(current)
    for _ in range(max_iterations):
        before = len(current)
        members_of: dict = {}
        for cluster in current:
            entry = members_of.setdefault(cluster.maximal, ([], []))
            entry[0].extend(cluster.members)
            if with_counts:
                entry[1].extend(cluster.member_counts)
        regrouped = greedy_merge(
            bimax_naive([cluster.maximal for cluster in current])
        )
        rebuilt: List[EntityCluster] = []
        for group in regrouped:
            members: List[KeySet] = []
            group_counts: List[int] = []
            for member in group.members:
                entry = members_of.get(member)
                if entry is None:
                    members.append(member)
                    group_counts.append(1)
                else:
                    members.extend(entry[0])
                    group_counts.extend(entry[1])
            rebuilt.append(
                EntityCluster(
                    maximal=group.maximal,
                    members=members,
                    synthesized=True,
                    member_counts=group_counts if with_counts else None,
                )
            )
        current = rebuilt
        if len(current) == before:
            break
    return current


def bimax_merge(key_sets: Sequence[KeySet]) -> List[EntityCluster]:
    """Bimax-Naive, GreedyMerge, then fixpoint iteration, over frozensets."""
    return merge_to_fixpoint(greedy_merge(bimax_naive(key_sets)))


# -- §4.3 partitioner -------------------------------------------------------


class ReferencePartitioner:
    """The partitioner's three assignment rules over frozensets."""

    def __init__(self, clusters: Sequence[EntityCluster]):
        if not clusters:
            raise ValueError("partitioner requires at least one cluster")
        self._clusters = list(clusters)
        self._member_index: Dict[KeySet, int] = {}
        for index, cluster in enumerate(self._clusters):
            for member in cluster.members:
                self._member_index.setdefault(member, index)

    def assign(self, key_set: KeySet) -> int:
        key_set = frozenset(key_set)
        direct = self._member_index.get(key_set)
        if direct is not None:
            return direct
        best_superset = -1
        best_superset_size = None
        for index, cluster in enumerate(self._clusters):
            if key_set <= cluster.maximal:
                if (
                    best_superset_size is None
                    or cluster.size < best_superset_size
                ):
                    best_superset = index
                    best_superset_size = cluster.size
        if best_superset >= 0:
            return best_superset
        best_overlap = -1
        best_index = 0
        for index, cluster in enumerate(self._clusters):
            overlap = len(key_set & cluster.maximal)
            if overlap > best_overlap or (
                overlap == best_overlap
                and cluster.size < self._clusters[best_index].size
            ):
                best_overlap = overlap
                best_index = index
        return best_index

    def partition(
        self, items: Sequence[T], key_sets: Sequence[KeySet]
    ) -> List[List[T]]:
        if len(items) != len(key_sets):
            raise ValueError("items and key_sets must align")
        counters.add("entities.assignments", len(items))
        groups: List[List[T]] = [[] for _ in self._clusters]
        for item, key_set in zip(items, key_sets):
            groups[self.assign(key_set)].append(item)
        return groups
