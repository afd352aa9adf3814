"""Tests for the interned bitset key-set universe."""

import pytest
from hypothesis import given

from repro.entities.keyset import KeySetUniverse, iter_bits
from tests.conftest import key_set_lists


def fs(*keys):
    return frozenset(keys)


class TestUniverse:
    def test_round_trip(self):
        universe = KeySetUniverse.from_key_sets([fs("a", "b"), fs("c")])
        for ks in (fs("a", "b"), fs("c"), fs("a"), fs()):
            assert universe.decode(universe.encode(ks)) == ks

    def test_decode_returns_interned_original(self):
        original = fs("a", "b")
        universe = KeySetUniverse.from_key_sets([original])
        assert universe.decode(universe.encode(original)) is original

    def test_subset_is_mask_containment(self):
        universe = KeySetUniverse.from_key_sets([fs("a", "b", "c"), fs("x")])
        small = universe.encode(fs("a", "c"))
        big = universe.encode(fs("a", "b", "c"))
        assert small & big == small
        assert not (universe.encode(fs("x")) & big)

    def test_encode_rejects_unknown_keys(self):
        universe = KeySetUniverse.from_key_sets([fs("a")])
        with pytest.raises(KeyError):
            universe.encode(fs("zzz"))

    def test_encode_partial_flags_unknown_keys(self):
        universe = KeySetUniverse.from_key_sets([fs("a", "b")])
        mask, complete = universe.encode_partial(fs("a", "zzz"))
        assert not complete
        assert universe.decode(mask) == fs("a")
        mask, complete = universe.encode_partial(fs("a", "b"))
        assert complete

    def test_sort_key_matches_repr_sort(self):
        key_sets = [fs("a", "b"), fs("ab"), fs("b"), fs()]
        universe = KeySetUniverse.from_key_sets(key_sets)
        for ks in key_sets:
            assert universe.sort_key(universe.encode(ks)) == tuple(
                sorted(repr(key) for key in ks)
            )

    @given(key_set_lists)
    def test_popcount_is_cardinality(self, key_sets):
        universe = KeySetUniverse.from_key_sets(key_sets)
        for ks in key_sets:
            assert universe.encode(ks).bit_count() == len(ks)

    @given(key_set_lists)
    def test_iter_bits_enumerates_members(self, key_sets):
        universe = KeySetUniverse.from_key_sets(key_sets)
        for ks in key_sets:
            keys = frozenset(
                universe.keys[bit] for bit in iter_bits(universe.encode(ks))
            )
            assert keys == ks

