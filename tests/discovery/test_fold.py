"""Tests for pass ③ as an associative fold."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery.config import JxplainConfig
from repro.discovery.fold import DecidedFolder, FoldNode
from repro.discovery.pipeline import (
    FeatureExtractor,
    TupleShapes,
    build_partitioners,
)
from repro.discovery.stat_tree import StatTree, decide_collections
from repro.jsontypes.types import type_of
from tests.conftest import json_values
from tests.discovery.pipeline_merger_reference import PipelineMerger

value_lists = st.lists(json_values(max_leaves=6), min_size=1, max_size=8)


def make_folder(types, config=None):
    """Run passes ① and ② and build the pass-③ folder."""
    config = config or JxplainConfig()
    tree = StatTree.from_types(types)
    decisions = decide_collections(tree, config)
    extractor = FeatureExtractor(decisions, config)
    shapes = TupleShapes()
    for tau in types:
        shapes.add(tau, decisions, extractor)
    object_partitioners, array_partitioners = build_partitioners(
        shapes, config
    )
    return (
        DecidedFolder(
            decisions,
            object_partitioners,
            array_partitioners,
            config,
            extractor=extractor,
        ),
        decisions,
        object_partitioners,
        array_partitioners,
        extractor,
    )


class TestFoldEquivalence:
    @given(value_lists)
    @settings(max_examples=50, deadline=None)
    def test_fold_equals_precomputed_merger(self, values):
        """The fold and the recursive merger agree when both use the
        same precomputed decisions and partitioners."""
        config = JxplainConfig()
        types = [type_of(v) for v in values]
        folder, decisions, op, ap, extractor = make_folder(types, config)
        folded = functools.reduce(
            folder.combine, (folder.lift(tau) for tau in types), FoldNode()
        )
        merger = PipelineMerger(config, decisions, op, ap, extractor)
        assert folder.schema(folded) == merger.merge(types)

    @given(value_lists, st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_combine_associative(self, values, cut_at):
        types = [type_of(v) for v in values]
        folder, *_ = make_folder(types)
        nodes = [folder.lift(tau) for tau in types]
        cut = min(cut_at, len(nodes))
        left = functools.reduce(folder.combine, nodes[:cut], FoldNode())
        right = functools.reduce(folder.combine, nodes[cut:], FoldNode())
        split = folder.schema(folder.combine(left, right))
        sequential = folder.schema(
            functools.reduce(folder.combine, nodes, FoldNode())
        )
        assert split == sequential

    @given(value_lists)
    @settings(max_examples=30, deadline=None)
    def test_combine_commutative(self, values):
        types = [type_of(v) for v in values]
        folder, *_ = make_folder(types)
        nodes = [folder.lift(tau) for tau in types]
        forward = functools.reduce(folder.combine, nodes, FoldNode())
        backward = functools.reduce(
            folder.combine, reversed(nodes), FoldNode()
        )
        assert folder.schema(forward) == folder.schema(backward)

    @given(value_lists)
    @settings(max_examples=30, deadline=None)
    def test_folded_schema_admits_training(self, values):
        types = [type_of(v) for v in values]
        folder, *_ = make_folder(types)
        node = functools.reduce(
            folder.combine, (folder.lift(tau) for tau in types), FoldNode()
        )
        schema = folder.schema(node)
        for tau in types:
            assert schema.admits_type(tau)

    def test_empty_fold_is_never(self):
        folder, *_ = make_folder([type_of({"a": 1})])
        from repro.schema.nodes import NEVER

        assert folder.schema(FoldNode()) is NEVER
        assert folder.schema(None) is NEVER
