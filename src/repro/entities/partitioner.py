"""Deterministic record → entity assignment (Section 4.3).

JXPLAIN's ``partition`` heuristic must output "a deterministic
algorithm for partitioning input types by entity".
:class:`EntityPartitioner` is that algorithm: built once from the
clusters that Bimax-Naive / GreedyMerge discovered, it assigns any
key-set (including ones never seen in training) to an entity:

1. a key-set that is a member of exactly one cluster goes there;
2. otherwise, the entity with the *smallest* maximal superset wins
   (most specific entity that fully explains the record);
3. otherwise — a record matching no entity — the entity with the
   largest key overlap wins, with deterministic tie-breaking.

Rule 3 only matters during validation of unseen data; during discovery
every training key-set belongs to some cluster by construction.

Rules 2 and 3 scan every cluster's maximal element, so the partitioner
encodes the maximals as integer bitmasks at construction and each
``assign`` becomes a strip of AND/popcount operations.  A key outside
the training vocabulary can never witness a subset relation, so rule 2
skips masked sets that lost keys in encoding; rule 3's overlaps are
unaffected (unknown keys overlap nothing).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, TypeVar

from repro.engine.instrument import counters
from repro.entities.bimax import EntityCluster
from repro.entities.keyset import KeySetUniverse

KeySet = FrozenSet[str]
T = TypeVar("T")


class EntityPartitioner:
    """Assigns key-sets to the entity clusters they belong to."""

    def __init__(self, clusters: Sequence[EntityCluster]):
        if not clusters:
            raise ValueError("partitioner requires at least one cluster")
        self._clusters = list(clusters)
        self._member_index: Dict[KeySet, int] = {}
        for index, cluster in enumerate(self._clusters):
            for member in cluster.members:
                self._member_index.setdefault(member, index)
        self._universe = KeySetUniverse.from_key_sets(
            cluster.maximal for cluster in self._clusters
        )
        self._maximal_masks = [
            self._universe.encode(cluster.maximal)
            for cluster in self._clusters
        ]
        self._sizes = [mask.bit_count() for mask in self._maximal_masks]

    @property
    def clusters(self) -> List[EntityCluster]:
        return list(self._clusters)

    @property
    def entity_count(self) -> int:
        return len(self._clusters)

    def cluster_weights(self) -> List[int]:
        """Per-entity record weight (multiplicity-aware when the
        clusters carry ``member_counts``; member counts otherwise)."""
        return [cluster.weight for cluster in self._clusters]

    def assign(self, key_set: KeySet) -> int:
        """The entity index for ``key_set`` (always succeeds)."""
        key_set = frozenset(key_set)
        direct = self._member_index.get(key_set)
        if direct is not None:
            return direct
        mask, complete = self._universe.encode_partial(key_set)
        masks = self._maximal_masks
        sizes = self._sizes
        if complete:
            best_superset = -1
            best_superset_size = None
            for index, maximal in enumerate(masks):
                if mask & maximal == mask:
                    if (
                        best_superset_size is None
                        or sizes[index] < best_superset_size
                    ):
                        best_superset = index
                        best_superset_size = sizes[index]
            if best_superset >= 0:
                return best_superset
        best_overlap = -1
        best_index = 0
        for index, maximal in enumerate(masks):
            overlap = (mask & maximal).bit_count()
            if overlap > best_overlap or (
                overlap == best_overlap
                and sizes[index] < sizes[best_index]
            ):
                best_overlap = overlap
                best_index = index
        return best_index

    def partition(self, items: Sequence[T], key_sets: Sequence[KeySet]) -> List[List[T]]:
        """Split ``items`` into per-entity groups by their key-sets."""
        if len(items) != len(key_sets):
            raise ValueError("items and key_sets must align")
        counters.add("entities.assignments", len(items))
        groups: List[List[T]] = [[] for _ in self._clusters]
        for item, key_set in zip(items, key_sets):
            groups[self.assign(key_set)].append(item)
        return groups

    def non_empty_groups(
        self, items: Sequence[T], key_sets: Sequence[KeySet]
    ) -> List[List[T]]:
        """:meth:`partition` with empty groups dropped."""
        return [g for g in self.partition(items, key_sets) if g]

    def group_weights(
        self,
        key_sets: Sequence[KeySet],
        counts: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Record weight landing on each entity for a bag of key-sets.

        ``counts`` carries per-key-set multiplicities (1 each when
        omitted), so callers holding a counted bag can weight entities
        by record frequency without materialising duplicates.
        """
        weights = [0] * len(self._clusters)
        if counts is None:
            counts = [1] * len(key_sets)
        for key_set, count in zip(key_sets, counts):
            weights[self.assign(key_set)] += count
        return weights
