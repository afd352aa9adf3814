"""Differential oracles for per-distinct (type, path) synthesis.

Synthesis pays once per distinct (type, path), not per occurrence:

* pass ① merges a collection's children with one n-ary
  :func:`~repro.discovery.stat_tree.merge_stat_trees`; the pairwise
  left fold it replaced stays here as the oracle (same decisions,
  same ``write_stat_tree`` bytes, same entropies to the last bit);
* pass ② (:meth:`TupleShapes.add_all`) and pass ③
  (:meth:`DecidedFolder.fold`) visit each (type, path) once; the
  per-distinct-type ``add`` / ``combine(node, lift(tau))`` loops are
  the oracle;
* ``combine(x, x)`` is ``x``;
* spies show a record holding one element type N times costs
  O(distinct) lifts and feature extractions, not O(N).
"""

from __future__ import annotations

import json
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery import stat_tree as stat_tree_module
from repro.discovery.config import JxplainConfig
from repro.discovery.fold import DecidedFolder, FoldNode
from repro.discovery.pipeline import (
    FeatureExtractor,
    TupleShapes,
    build_partitioners,
)
from repro.discovery.stat_tree import (
    StatTree,
    decide_collections,
    entropy_profile,
    merge_stat_trees,
)
from repro.discovery.state import JxplainState
from repro.heuristics.collection import CollectionEvidence, Designation
from repro.jsontypes.types import type_of
from repro.schema import to_json_schema
from tests.conftest import json_keys, json_objects
from tests.discovery.pass_codecs import (
    fold_node_bytes,
    stat_tree_bytes,
    tuple_shapes_bytes,
)

# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

#: Objects keyed from a wide alphabet with similar values: high key
#: entropy, so pass ① designates them collections and star-merges
#: their children.
collection_records = st.builds(
    lambda counts, tags: {"counts": counts, "tags": tags},
    st.dictionaries(
        st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=2),
        st.one_of(
            st.integers(0, 9),
            st.dictionaries(json_keys, st.integers(0, 9), max_size=3),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.dictionaries(json_keys, st.booleans(), max_size=2), max_size=5),
)

records = st.one_of(json_objects(max_leaves=10), collection_records)

record_lists = st.lists(records, min_size=1, max_size=12)

depths = st.sampled_from([None, 1, 3])

configs = st.builds(
    lambda depth: JxplainConfig().with_(similarity_depth=depth), depths
)


# ---------------------------------------------------------------------------
# The pairwise pass-① merge (the oracle).
# ---------------------------------------------------------------------------


def _pairwise_evidence(first, second):
    if first is None:
        return second
    if second is None:
        return first
    merged = CollectionEvidence(first.kind)
    merged.record_count = first.record_count + second.record_count
    merged.key_counts = first.key_counts + second.key_counts
    merged.length_counts = first.length_counts + second.length_counts
    merged.mixed_kinds = first.mixed_kinds or second.mixed_kinds
    merged.similarity = first.similarity.merge(second.similarity)
    return merged


def _pairwise_merge(mine: StatTree, theirs: StatTree) -> StatTree:
    merged = StatTree(similarity_depth=mine.similarity_depth)
    merged.primitive_kinds = mine.primitive_kinds + theirs.primitive_kinds
    merged.object_evidence = _pairwise_evidence(
        mine.object_evidence, theirs.object_evidence
    )
    merged.array_evidence = _pairwise_evidence(
        mine.array_evidence, theirs.array_evidence
    )
    # Steps in first-appearance order, as merge_stat_trees keeps them:
    # a depth-bounded similarity union keeps its first side, so a
    # hash-ordered set here would make the oracle's decisions vary
    # with the string hash seed.
    steps = list(mine.children)
    steps += [step for step in theirs.children if step not in mine.children]
    for step in steps:
        left = mine.children.get(step)
        right = theirs.children.get(step)
        if left is None:
            merged.children[step] = right
        elif right is None:
            merged.children[step] = left
        else:
            merged.children[step] = _pairwise_merge(left, right)
    return merged


def _left_fold(trees):
    merged = None
    for tree in trees:
        merged = tree if merged is None else _pairwise_merge(merged, tree)
    return merged


def _profile(tree):
    return sorted(
        (repr(point.path), point.kind.value, point.entropy, point.instances)
        for point in entropy_profile(tree, similar_only=False)
    )


def _trees(chunks, depth):
    return [
        StatTree.from_types(
            [type_of(record) for record in chunk], similarity_depth=depth
        )
        for chunk in chunks
    ]


class TestNaryStarMerge:
    @given(st.lists(record_lists, min_size=1, max_size=5), depths)
    @settings(max_examples=60, deadline=None)
    def test_equals_pairwise_left_fold(self, chunks, depth):
        trees = _trees(chunks, depth)
        merged = merge_stat_trees(trees)
        oracle = _left_fold(trees)
        assert stat_tree_bytes(merged) == stat_tree_bytes(oracle)
        assert _profile(merged) == _profile(oracle)
        config = JxplainConfig().with_(similarity_depth=depth)
        assert decide_collections(merged, config) == decide_collections(
            oracle, config
        )

    @given(record_lists, configs)
    @settings(max_examples=60, deadline=None)
    def test_decisions_equal_pairwise_star_merge(self, values, config):
        tree = StatTree.from_types(
            [type_of(value) for value in values],
            similarity_depth=config.similarity_depth,
        )
        decisions = decide_collections(tree, config)
        with mock.patch.object(
            stat_tree_module, "merge_stat_trees", _left_fold
        ):
            oracle = decide_collections(tree, config)
        assert decisions == oracle

    def test_star_merge_exercised(self, collection_like_records):
        tree = StatTree.from_types(
            [type_of(record) for record in collection_like_records]
        )
        decisions = decide_collections(tree)
        assert Designation.COLLECTION in decisions.values()
        with mock.patch.object(
            stat_tree_module, "merge_stat_trees", _left_fold
        ):
            assert decide_collections(tree) == decisions

    def test_two_input_case_is_merge(self, login_serve_stream):
        types = [type_of(record) for record in login_serve_stream]
        first = StatTree.from_types(types[:7])
        second = StatTree.from_types(types[7:])
        assert stat_tree_bytes(first.merge(second)) == stat_tree_bytes(
            merge_stat_trees([first, second])
        )

    def test_single_input_and_sole_subtrees_are_shared(self):
        only = StatTree.from_types([type_of({"a": {"x": 1}})])
        assert merge_stat_trees([only]) is only
        other = StatTree.from_types([type_of({"b": 2})])
        merged = merge_stat_trees([only, other])
        assert merged.children["a"] is only.children["a"]
        assert merged.children["b"] is other.children["b"]

    def test_counter_sums_keep_fold_key_order(self):
        trees = _trees([[{"b": 1, "a": 1}], [{"c": 1}], [{"a": 1, "d": 1}]], None)
        merged = merge_stat_trees(trees)
        oracle = _left_fold(trees)
        assert list(merged.object_evidence.key_counts.items()) == list(
            oracle.object_evidence.key_counts.items()
        )
        assert merged.object_evidence.key_counts == Counter(
            {"b": 1, "a": 2, "c": 1, "d": 1}
        )


# ---------------------------------------------------------------------------
# Passes ② and ③ per distinct (type, path).
# ---------------------------------------------------------------------------


def _state(values, config):
    state = JxplainState(config)
    state.absorb_many(values)
    return state


def _oracle_synthesis(state):
    """Passes ①–③ as per-distinct-type loops."""
    decisions = decide_collections(state.tree, state.config)
    extractor = FeatureExtractor(decisions, state.config)
    shapes = TupleShapes()
    for tau in state.bag.distinct():
        shapes.add(tau, decisions, extractor)
    object_partitioners, array_partitioners = build_partitioners(
        shapes, state.config
    )
    folder = DecidedFolder(
        decisions,
        object_partitioners,
        array_partitioners,
        state.config,
        extractor=extractor,
    )
    node = FoldNode()
    for tau in state.bag.distinct():
        node = folder.combine(node, folder.lift(tau))
    return folder, shapes, node


def _schema_bytes(schema) -> bytes:
    return json.dumps(to_json_schema(schema), sort_keys=True).encode()


class TestMemoizedSynthesis:
    @given(record_lists, configs)
    @settings(max_examples=60, deadline=None)
    def test_equals_per_type_loops(self, values, config):
        state = _state(values, config)
        folder, shapes, node = _oracle_synthesis(state)
        schema = state.synthesize()
        assert _schema_bytes(schema) == _schema_bytes(folder.schema(node))
        decisions = decide_collections(state.tree, state.config)
        extractor = FeatureExtractor(decisions, state.config)
        features = {}
        memo_shapes = TupleShapes()
        memo_shapes.add_all(
            state.bag.distinct(), decisions, extractor, features
        )
        assert tuple_shapes_bytes(memo_shapes) == tuple_shapes_bytes(shapes)
        folded = folder.fold(state.bag.distinct(), features)
        assert fold_node_bytes(folded) == fold_node_bytes(node)

    @given(record_lists)
    @settings(max_examples=40, deadline=None)
    def test_combine_is_idempotent_by_identity(self, values):
        state = _state(values, JxplainConfig())
        folder, _, node = _oracle_synthesis(state)
        assert folder.combine(node, node) is node
        for tau in state.bag.distinct():
            lifted = folder.lift(tau)
            assert folder.combine(lifted, lifted) is lifted


class TestCostIsPerDistinct:
    """A record holding one element type N times costs O(distinct)."""

    @staticmethod
    def _corpus(repeats):
        element = {"a": 1, "b": "x", "c": {"d": True}}
        # Lengths 1..8 give the arrays a length entropy above 1: they
        # are collections, so every element shares one path.
        base = [{"items": [element] * length} for length in range(1, 9)]
        return base + [{"items": [element] * repeats}]

    def _count(self, repeats, target, name):
        calls = []
        original = getattr(target, name)

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        state = _state(self._corpus(repeats), JxplainConfig())
        with mock.patch.object(target, name, spy):
            state.synthesize()
        return len(calls)

    def test_lifts(self):
        few = self._count(10, DecidedFolder, "_lift_into")
        many = self._count(1000, DecidedFolder, "_lift_into")
        assert many == few
        # 9 root objects + 9 arrays + element, a, b, c, c.d.
        assert many == 23

    def test_feature_extraction_shared_by_passes_two_and_three(self):
        few = self._count(10, FeatureExtractor, "features")
        many = self._count(1000, FeatureExtractor, "features")
        assert many == few
        # One per distinct tuple-designated object (type, path): the
        # 9 roots, the element and its ``c``.
        assert many == 11
