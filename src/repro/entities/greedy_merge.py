"""GreedyMerge: coalescing Bimax-Naive clusters (Section 6.3, Alg. 8).

Bimax-Naive seeds every entity from a *maximal record*, so an entity
with many independent optional fields fragments into several clusters —
Example 10 shows that seeing a truly maximal record can require
trillions of samples.  GreedyMerge repairs the fragmentation: walking
clusters smallest-first (reverse Bimax insertion order), it looks for a
minimal set of other clusters whose maximal elements jointly cover the
candidate's maximal element.  A cover signals that the candidate's keys
all re-occur across its neighbours — the signature of optional-field
fragments of a single entity — so the cover is folded into the
candidate and the search repeats with the enlarged (synthesized)
maximal element.  When no cover exists (the candidate owns at least one
key no other cluster has), the entity is emitted.

Emitted entities are final: they are not offered as cover members to
later candidates.  (The paper's pseudocode only removes *consumed*
covers from ``K_naive``; allowing emitted entities back into the pool
lets every later candidate swallow the previously-emitted one whose
synthesized maximal keeps growing, cascading all entities into a
single blob on streams with shared foreign keys.)  Each successful
cover consumes at least one live cluster, so the algorithm terminates.

The O(n² · cover) search runs on interned integer bitmasks
(:mod:`repro.entities.keyset`); only the maximal elements participate
in set algebra, so only those are encoded and member lists stay
untouched.  Member multiplicities (``EntityCluster.member_counts``),
when present on every input cluster, ride along through merges.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.engine.instrument import counters
from repro.entities.bimax import EntityCluster, KeySet, bimax_naive
from repro.entities.keyset import KeySetUniverse
from repro.entities.set_cover import greedy_set_cover_masks


def _counts_threaded(clusters: Sequence[EntityCluster]) -> bool:
    """Multiplicities propagate only when every input carries them."""
    return bool(clusters) and all(
        cluster.member_counts is not None for cluster in clusters
    )


def greedy_merge(clusters: Sequence[EntityCluster]) -> List[EntityCluster]:
    """Algorithm 8: merge Bimax-Naive clusters via set covers.

    ``clusters`` must be in Bimax-Naive insertion order (largest
    first); processing runs in reverse, i.e. smallest-first.  Returns
    merged entities in emission order.
    """
    with_counts = _counts_threaded(clusters)
    universe = KeySetUniverse.from_key_sets(
        cluster.maximal for cluster in clusters
    )
    count = len(clusters)
    maximals = [universe.encode(cluster.maximal) for cluster in clusters]
    members = [list(cluster.members) for cluster in clusters]
    member_counts = [
        list(cluster.member_counts) if with_counts else None
        for cluster in clusters
    ]
    synthesized = [cluster.synthesized for cluster in clusters]
    consumed = [False] * count
    emitted = [False] * count
    merged: List[EntityCluster] = []
    cover_calls = 0

    for position in range(count - 1, -1, -1):
        if consumed[position]:
            continue
        while True:
            # Offer cover members nearest-first in Bimax insertion
            # order: the ordering places similar entities adjacent, so
            # ties in the greedy cover resolve toward similar entities
            # (the property Example 11 relies on).
            pool = [
                index
                for index in range(count - 1, -1, -1)
                if index != position
                and not consumed[index]
                and not emitted[index]
            ]
            cover_calls += 1
            cover_local = greedy_set_cover_masks(
                maximals[position], [maximals[i] for i in pool]
            )
            if cover_local is None or not cover_local:
                break
            new_mask = maximals[position]
            for local in cover_local:
                index = pool[local]
                consumed[index] = True
                members[position].extend(members[index])
                if with_counts:
                    member_counts[position].extend(member_counts[index])
                new_mask |= maximals[index]
            maximals[position] = new_mask
            synthesized[position] = True
        emitted[position] = True
        merged.append(
            EntityCluster(
                maximal=universe.decode(maximals[position]),
                members=members[position],
                synthesized=synthesized[position],
                member_counts=member_counts[position],
            )
        )

    counters.add("entities.cover_calls", cover_calls)
    counters.add("entities.clusters_emitted", len(merged))
    return merged


def merge_to_fixpoint(
    clusters: Sequence[EntityCluster], max_iterations: int = 4
) -> List[EntityCluster]:
    """Iterate GreedyMerge over its own output until it stabilises.

    A single pass can strand fragments: once an entity is emitted it
    cannot absorb a later fragment that only its keys could cover.
    Re-clustering the emitted entities' maximal elements (they are
    just key-sets) lets stranded fragments meet in the next round;
    entities with genuinely unique keys are fixed points.  Converges
    in 1-2 extra rounds in practice; ``max_iterations`` is a backstop.
    """
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
    """Bimax-Naive, GreedyMerge, then fixpoint iteration — the full §6
    pipeline as used by JXPLAIN's BIMAX_MERGE strategy."""
    return merge_to_fixpoint(greedy_merge(bimax_naive(key_sets)))
