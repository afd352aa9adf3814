"""Entity discovery: Bimax bi-clustering, GreedyMerge, baselines.

Implements Section 6 of the paper: Algorithm 6 (Bimax ordering),
Algorithm 7 (Bimax-Naive clustering), Algorithm 8 (GreedyMerge), the
k-means baseline of Section 7.3, the feature-vector preprocessing of
Section 6.4, and the deterministic record→entity partitioner.

All of the subset/overlap-heavy algorithms run internally on interned
integer bitmasks (:mod:`repro.entities.keyset`) and speak frozensets at
their API.
"""

from repro.entities.bimax import (
    EntityCluster,
    KeySet,
    bimax_naive,
    bimax_order,
    distinct_key_sets,
)
from repro.entities.keyset import KeySetUniverse, iter_bits
from repro.entities.features import (
    FeatureMemoryProfile,
    FeatureVector,
    FeatureVectorSet,
    extract_feature_vectors,
    feature_memory_profile,
    top_level_key_set,
    type_paths,
)
from repro.entities.greedy_merge import (
    bimax_merge,
    greedy_merge,
    merge_to_fixpoint,
)
from repro.entities.kmeans import (
    KMeansResult,
    encode_key_sets,
    kmeans_clusters,
    kmeans_key_sets,
)
from repro.entities.partitioner import EntityPartitioner
from repro.entities.set_cover import greedy_set_cover_masks

__all__ = [
    "EntityCluster",
    "EntityPartitioner",
    "FeatureMemoryProfile",
    "FeatureVector",
    "FeatureVectorSet",
    "KMeansResult",
    "KeySet",
    "KeySetUniverse",
    "bimax_merge",
    "bimax_naive",
    "bimax_order",
    "distinct_key_sets",
    "encode_key_sets",
    "extract_feature_vectors",
    "feature_memory_profile",
    "greedy_merge",
    "merge_to_fixpoint",
    "greedy_set_cover_masks",
    "iter_bits",
    "kmeans_clusters",
    "kmeans_key_sets",
    "top_level_key_set",
    "type_paths",
]
