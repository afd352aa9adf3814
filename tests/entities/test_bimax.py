"""Tests for Bimax (Algorithms 6 and 7)."""

from hypothesis import given

from repro.entities.bimax import bimax_naive, bimax_order
from tests.conftest import key_set_lists
from tests.entities.frozenset_reference import block_boundaries


def fs(*keys):
    return frozenset(keys)


class TestBimaxOrder:
    def test_descending_start(self):
        ordering = bimax_order([fs("a"), fs("a", "b", "c"), fs("a", "b")])
        assert ordering[0] == fs("a", "b", "c")

    def test_subsets_adjacent_to_seed(self):
        ordering = bimax_order(
            [fs("x", "y"), fs("a", "b", "c"), fs("a"), fs("b", "c")]
        )
        # The seed block {a,b,c} ⊇ {a}, {b,c} comes first, then the
        # disjoint {x,y}.
        assert ordering[:3] == [fs("a", "b", "c"), fs("b", "c"), fs("a")]
        assert ordering[3] == fs("x", "y")

    @given(key_set_lists)
    def test_order_is_permutation(self, key_sets):
        distinct = list(dict.fromkeys(key_sets))
        ordering = bimax_order(distinct)
        assert sorted(ordering, key=repr) == sorted(distinct, key=repr)

    @given(key_set_lists)
    def test_deterministic(self, key_sets):
        assert bimax_order(key_sets) == bimax_order(key_sets)


class TestBimaxNaive:
    def test_single_entity_with_subsets(self):
        clusters = bimax_naive([fs("a", "b", "c"), fs("a"), fs("b")])
        assert len(clusters) == 1
        assert clusters[0].maximal == fs("a", "b", "c")
        assert len(clusters[0].members) == 3

    def test_disjoint_entities_stay_apart(self):
        clusters = bimax_naive([fs("a", "b"), fs("x", "y")])
        assert len(clusters) == 2

    def test_overlapping_non_subset_splits(self):
        clusters = bimax_naive([fs("a", "b"), fs("b", "c")])
        assert len(clusters) == 2

    def test_duplicates_collapse(self):
        clusters = bimax_naive([fs("a"), fs("a"), fs("a")])
        assert len(clusters) == 1
        assert len(clusters[0].members) == 1

    def test_optional_field_fragmentation(self):
        """Without a maximal record, one logical entity fragments —
        the motivation for GreedyMerge (Example 10)."""
        clusters = bimax_naive(
            [fs("id", "a"), fs("id", "b"), fs("id", "c")]
        )
        assert len(clusters) == 3

    @given(key_set_lists)
    def test_members_subset_of_maximal(self, key_sets):
        for cluster in bimax_naive(key_sets):
            for member in cluster.members:
                assert member <= cluster.maximal

    @given(key_set_lists)
    def test_clusters_partition_distinct_inputs(self, key_sets):
        distinct = set(key_sets)
        clusters = bimax_naive(key_sets)
        seen = [member for cluster in clusters for member in cluster.members]
        assert len(seen) == len(distinct)
        assert set(seen) == distinct

    @given(key_set_lists)
    def test_maximal_is_a_member(self, key_sets):
        """Bimax-Naive seeds each cluster from an observed record."""
        for cluster in bimax_naive(key_sets):
            assert cluster.maximal in cluster.members
            assert not cluster.synthesized


class TestBlockBoundaries:
    def test_spans_cover_input(self):
        key_sets = [fs("a", "b"), fs("a"), fs("x")]
        spans = block_boundaries(key_sets)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(set(key_sets))
