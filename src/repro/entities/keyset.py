"""Bitset key-sets: the representation every entity algorithm runs on.

Entity discovery (Bimax ordering, Bimax-Naive, GreedyMerge, the
partitioner's assignment rules) is dominated by subset and overlap
tests over key-sets.  With Python ``frozenset``\\ s every test walks the
smaller set and hashes each element; with *bitmasks* over a fixed key
vocabulary the same tests are single arbitrary-precision integer
operations — one machine word per 64 keys:

* subset        — ``a & b == a``
* overlap       — ``a & b != 0``
* union         — ``a | b``
* difference    — ``a & ~b``
* cardinality   — ``a.bit_count()``

:class:`KeySetUniverse` is the encoder: it interns every distinct key
of a workload at a bit position and converts frozensets to masks and
back.  Bit positions are assigned in ``repr``-sorted key order, which
makes two derived quantities cheap and *exactly* equal to their
frozenset counterparts:

* the deterministic tie-break key ``tuple(sorted(map(repr, ks)))``
  used by Bimax ordering is just the reprs of a mask's set bits in
  ascending bit order;
* the k-means vocabulary (``repr``-sorted union of all keys) is the
  universe's key tuple itself.

Decoding returns the *original* frozenset object whenever the mask
corresponds to an encoded input (masks are interned alongside the
sets), so round-trips through the bitset layer cost no allocations for
unchanged sets.

The public API of every entity function consumes and produces
frozensets, so callers never see masks unless they opt in.  A
frozenset transcription of each algorithm is kept as a test oracle in
``tests/entities/frozenset_reference.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

#: A key-set as the public API sees it.
KeySet = FrozenSet

#: A key-set as the bitset layer sees it.
Mask = int


class KeySetUniverse:
    """Interns a key vocabulary and encodes key-sets as int bitmasks.

    The universe is immutable once built: every key of every set it
    will encode must be present at construction.  ``encode_partial``
    tolerates unknown keys (dropping them and reporting the loss) for
    the partitioner's unseen-record assignment path.
    """

    __slots__ = ("_keys", "_index", "_reprs", "_interned")

    def __init__(self, keys: Iterable) -> None:
        ordered = sorted(set(keys), key=repr)
        self._keys: Tuple = tuple(ordered)
        self._index: Dict = {key: i for i, key in enumerate(ordered)}
        self._reprs: Tuple[str, ...] = tuple(repr(key) for key in ordered)
        #: mask -> the original frozenset it was encoded from.
        self._interned: Dict[Mask, KeySet] = {}

    @classmethod
    def from_key_sets(cls, key_sets: Iterable[KeySet]) -> "KeySetUniverse":
        keys: set = set()
        for key_set in key_sets:
            keys |= key_set
        return cls(keys)

    @property
    def keys(self) -> Tuple:
        """The vocabulary, ``repr``-sorted; bit ``i`` is ``keys[i]``."""
        return self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._index

    def bit_of(self, key) -> int:
        """The bit position of ``key`` (KeyError when unknown)."""
        return self._index[key]

    def encode(self, key_set: KeySet) -> Mask:
        """The bitmask of ``key_set``; every key must be known."""
        index = self._index
        mask = 0
        for key in key_set:
            mask |= 1 << index[key]
        self._interned.setdefault(mask, key_set)
        return mask

    def encode_partial(self, key_set: KeySet) -> Tuple[Mask, bool]:
        """``(mask of known keys, were all keys known?)``.

        Unknown keys are dropped from the mask; the flag lets callers
        distinguish "subset under the mask" from a genuine subset (a
        set with an out-of-universe key is never a subset of any
        universe set).
        """
        index = self._index
        mask = 0
        complete = True
        for key in key_set:
            bit = index.get(key)
            if bit is None:
                complete = False
            else:
                mask |= 1 << bit
        return mask, complete

    def decode(self, mask: Mask) -> KeySet:
        """The frozenset of a mask; reuses the encoded original when
        one exists, so unchanged sets round-trip by identity."""
        interned = self._interned.get(mask)
        if interned is not None:
            return interned
        keys = self._keys
        decoded = frozenset(keys[i] for i in iter_bits(mask))
        self._interned[mask] = decoded
        return decoded

    def sort_key(self, mask: Mask) -> Tuple[str, ...]:
        """``tuple(sorted(map(repr, keys of mask)))`` — equal to the
        frozenset tie-break key because bits are repr-sorted."""
        reprs = self._reprs
        return tuple(reprs[i] for i in iter_bits(mask))


def iter_bits(mask: Mask) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def encode_all(
    universe: KeySetUniverse, key_sets: Sequence[KeySet]
) -> List[Mask]:
    """Encode a sequence of key-sets under one universe."""
    return [universe.encode(key_set) for key_set in key_sets]

