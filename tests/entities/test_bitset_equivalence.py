"""Product ↔ frozenset-oracle equivalence for the whole entity stack.

The entity layer runs on interned bitmasks and promises the output of
the set-algebra transcription of the paper's algorithms — same
maximals, same members, same emission order, same assignments.  These
tests run each product algorithm and its frozenset reference
(:mod:`tests.entities.frozenset_reference`) on hypothesis-generated and
randomized seeded bags and compare results structurally.
"""

import random

import pytest
from hypothesis import given

from repro.engine.instrument import counters, reset_perf_counters
from repro.entities.bimax import (
    EntityCluster,
    _sorted_masks,
    bimax_naive,
    bimax_order,
)
from repro.entities.greedy_merge import bimax_merge, greedy_merge
from repro.entities.keyset import KeySetUniverse, encode_all
from repro.entities.partitioner import EntityPartitioner
from repro.entities.set_cover import greedy_set_cover_masks
from tests.conftest import key_set_lists
from tests.entities import frozenset_reference as oracle


def fs(*keys):
    return frozenset(keys)


def cluster_shape(clusters):
    """The full observable structure of a cluster list."""
    return [
        (c.maximal, c.members, c.synthesized, c.member_counts)
        for c in clusters
    ]


def seeded_bags(cases=25):
    """Randomized entity-shaped corpora: per-entity cores plus
    independent optional keys, mixed-type features included."""
    for case in range(cases):
        rng = random.Random(1000 + case)
        vocabulary = [f"k{i}" for i in range(rng.randint(6, 30))]
        # Mixed-type keys (path tuples next to strings) exercise the
        # repr-based tie-break ordering.
        vocabulary += [("p", i) for i in range(rng.randint(0, 4))]
        shapes = []
        for _ in range(rng.randint(1, 6)):
            core = rng.sample(vocabulary, rng.randint(1, len(vocabulary) // 2 + 1))
            optional = rng.sample(vocabulary, min(len(vocabulary), 6))
            shapes.append((core, optional))
        bag = []
        for _ in range(rng.randint(5, 80)):
            core, optional = rng.choice(shapes)
            ks = set(core)
            for key in optional:
                if rng.random() < 0.4:
                    ks.add(key)
            bag.append(frozenset(ks))
        yield bag


class TestAlgorithmEquivalence:
    @given(key_set_lists)
    def test_bimax_order(self, key_sets):
        a = oracle.bimax_order(key_sets)
        b = bimax_order(key_sets)
        assert a == b

    @given(key_set_lists)
    def test_bimax_naive(self, key_sets):
        a = oracle.bimax_naive(key_sets)
        b = bimax_naive(key_sets)
        assert cluster_shape(a) == cluster_shape(b)

    @given(key_set_lists)
    def test_greedy_merge(self, key_sets):
        a = oracle.greedy_merge(oracle.bimax_naive(key_sets))
        b = greedy_merge(bimax_naive(key_sets))
        assert cluster_shape(a) == cluster_shape(b)

    @given(key_set_lists)
    def test_bimax_merge(self, key_sets):
        a = oracle.bimax_merge(key_sets)
        b = bimax_merge(key_sets)
        assert cluster_shape(a) == cluster_shape(b)

    @pytest.mark.parametrize("case", range(25))
    def test_seeded_bags_end_to_end(self, case):
        bag = list(seeded_bags())[case]

        def run(ks, merge, partitioner_class):
            clusters = merge(ks)
            partitioner = partitioner_class(clusters)
            probes = ks + [
                frozenset(set(x) | set(y)) for x, y in zip(ks, ks[1:])
            ] + [fs("unseen-key"), fs()]
            return cluster_shape(clusters), [
                partitioner.assign(p) for p in probes
            ]

        a = run(bag, oracle.bimax_merge, oracle.ReferencePartitioner)
        b = run(bag, bimax_merge, EntityPartitioner)
        assert a == b

    @pytest.mark.parametrize("case", range(5))
    def test_seeded_bags_counters(self, case):
        """The ``entities.*`` counters are part of the contract too."""
        bag = list(seeded_bags())[case]

        def run(merge, partitioner_class):
            reset_perf_counters()
            clusters = merge(bag)
            partitioner_class(clusters).partition(range(len(bag)), bag)
            return {
                key: value
                for key, value in counters.snapshot().items()
                if key.startswith("entities.")
            }

        expected = run(oracle.bimax_merge, oracle.ReferencePartitioner)
        assert run(bimax_merge, EntityPartitioner) == expected

    @pytest.mark.parametrize("case", range(10))
    def test_greedy_set_cover_masks_match(self, case):
        rng = random.Random(2000 + case)
        vocabulary = [f"k{i}" for i in range(rng.randint(4, 16))]
        candidates = [
            frozenset(rng.sample(vocabulary, rng.randint(1, len(vocabulary))))
            for _ in range(rng.randint(1, 10))
        ]
        target = frozenset(
            rng.sample(vocabulary, rng.randint(0, len(vocabulary)))
        )
        universe = KeySetUniverse.from_key_sets(candidates + [target])
        expected = oracle.greedy_set_cover(target, candidates)
        got = greedy_set_cover_masks(
            universe.encode(target),
            [universe.encode(c) for c in candidates],
        )
        assert got == expected


class TestSortDeterminism:
    def test_sorted_by_size_ignores_input_order(self):
        """Regression: the tie-break must be a pure function of the
        key-sets, so any permutation of the input sorts — and Bimax
        orders — identically."""
        rng = random.Random(7)
        key_sets = [
            frozenset(rng.sample("abcdefgh", rng.randint(0, 8)))
            for _ in range(40)
        ] + [fs("a", ("p", 1)), fs(("p", 0)), fs(2, "b")]

        def mask_sorted(ks):
            universe = KeySetUniverse.from_key_sets(ks)
            masks = _sorted_masks(encode_all(universe, ks), universe)
            return [universe.decode(mask) for mask in masks]

        reference = mask_sorted(key_sets)
        assert reference == oracle.sorted_by_size(key_sets)
        ordering = bimax_order(key_sets)
        for _ in range(10):
            shuffled = list(key_sets)
            rng.shuffle(shuffled)
            assert mask_sorted(shuffled) == reference
            assert bimax_order(shuffled) == ordering

    def test_mixed_type_keys_sort(self):
        out = bimax_order([fs(("p", 0)), fs("a"), fs(1)])
        assert len(out) == 3
        assert all(len(ks) == 1 for ks in out)


class TestPartitionerRule3:
    def test_overlap_tie_prefers_smaller_maximal(self):
        big = EntityCluster(maximal=fs("a", "b", "c"), members=[fs("b", "c")])
        small = EntityCluster(maximal=fs("a", "d"), members=[fs("a", "d")])
        partitioner = EntityPartitioner([big, small])
        # {a, q}: overlap 1 with both maximals; the smaller maximal
        # ({a, d}, size 2) wins the tie.
        assert partitioner.assign(fs("a", "q")) == 1

    def test_overlap_and_size_tie_prefers_first(self):
        first = EntityCluster(maximal=fs("a", "b"), members=[fs("b")])
        second = EntityCluster(maximal=fs("a", "c"), members=[fs("c")])
        partitioner = EntityPartitioner([first, second])
        # {a, q}: overlap 1, size 2 for both — index order decides.
        assert partitioner.assign(fs("a", "q")) == 0

    def test_rule3_equivalent_across_representations(self):
        def build_and_probe(partitioner_class):
            clusters = [
                EntityCluster(maximal=fs("a", "b", "c"), members=[fs("a", "b", "c")]),
                EntityCluster(maximal=fs("c", "d"), members=[fs("c", "d")]),
                EntityCluster(maximal=fs("e", "f"), members=[fs("e", "f")]),
            ]
            partitioner = partitioner_class(clusters)
            probes = [
                fs("c", "zzz"),
                fs("a", "d", "zzz"),
                fs("zzz"),
                fs("e", "c"),
            ]
            return [partitioner.assign(p) for p in probes]

        a = build_and_probe(oracle.ReferencePartitioner)
        b = build_and_probe(EntityPartitioner)
        assert a == b
