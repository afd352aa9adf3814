"""Tests for the greedy set cover used by GreedyMerge.

Every case runs the product's bitmask cover on the key-sets encoded
through one :class:`KeySetUniverse` and checks it against the
frozenset oracle before asserting on the result.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.entities.keyset import KeySetUniverse
from repro.entities.set_cover import greedy_set_cover_masks
from tests.entities.frozenset_reference import (
    cover_exists,
    minimal_cover_size,
)
from tests.entities.frozenset_reference import (
    greedy_set_cover as reference_cover,
)

small_sets = st.frozensets(st.sampled_from("abcdefgh"), max_size=6)


def fs(*keys):
    return frozenset(keys)


def greedy_set_cover(target, candidates):
    """The product cover on encoded inputs; must equal the oracle's."""
    universe = KeySetUniverse.from_key_sets([target, *candidates])
    cover = greedy_set_cover_masks(
        universe.encode(target), [universe.encode(c) for c in candidates]
    )
    assert cover == reference_cover(target, candidates)
    return cover


class TestGreedySetCover:
    def test_single_superset_cover(self):
        cover = greedy_set_cover(fs("a", "b"), [fs("a", "b", "c")])
        assert cover == [0]

    def test_multi_set_cover(self):
        cover = greedy_set_cover(
            fs("a", "b", "c"), [fs("a"), fs("b"), fs("c", "a")]
        )
        assert cover is not None
        covered = set()
        for index in cover:
            covered |= [fs("a"), fs("b"), fs("c", "a")][index]
        assert fs("a", "b", "c") <= covered

    def test_no_cover(self):
        assert greedy_set_cover(fs("z"), [fs("a"), fs("b")]) is None

    def test_empty_target_with_candidates(self):
        assert greedy_set_cover(fs(), [fs("a")]) == []

    def test_empty_candidates_never_cover(self):
        assert greedy_set_cover(fs("a"), []) is None
        assert greedy_set_cover(fs(), []) is None

    def test_prefers_larger_overlap(self):
        cover = greedy_set_cover(
            fs("a", "b", "c"),
            [fs("a"), fs("a", "b", "c")],
        )
        assert cover == [1]

    def test_prefers_covers_inside_the_target(self):
        # {a, b, x} covers most but brings a key the target lacks; the
        # two in-target pieces win.
        cover = greedy_set_cover(
            fs("a", "b"),
            [fs("a", "b", "x"), fs("a"), fs("b")],
        )
        assert cover == [1, 2]

    @given(small_sets, st.lists(small_sets, max_size=6))
    def test_greedy_cover_is_valid(self, target, candidates):
        cover = greedy_set_cover(target, candidates)
        if cover is None:
            combined = set().union(*candidates) if candidates else set()
            assert not candidates or not target <= combined
        else:
            covered = set()
            for index in cover:
                covered |= candidates[index]
            assert target <= covered
            assert len(set(cover)) == len(cover)

    @given(small_sets, st.lists(small_sets, max_size=6))
    def test_cover_exists_consistent(self, target, candidates):
        assert cover_exists(target, candidates) == (
            greedy_set_cover(target, candidates) is not None
        )


class TestMinimalCoverSize:
    def test_exact_on_simple_case(self):
        assert minimal_cover_size(fs("a", "b"), [fs("a"), fs("b"), fs("a", "b")]) == 1

    def test_none_when_uncoverable(self):
        assert minimal_cover_size(fs("z"), [fs("a")]) is None

    @given(small_sets, st.lists(small_sets, min_size=1, max_size=5))
    def test_greedy_at_least_optimal(self, target, candidates):
        greedy = greedy_set_cover(target, candidates)
        optimal = minimal_cover_size(target, candidates)
        if greedy is None:
            assert optimal is None
        else:
            assert optimal is not None
            assert optimal <= len(greedy)
            # ln-approximation bound; tiny universes keep it tight.
            assert len(greedy) <= max(1, 3 * optimal)
