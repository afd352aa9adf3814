"""Tests for the staged three-pass pipeline (Figure 3)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_dataset
from repro.discovery.jxplain import Jxplain
from repro.discovery.pipeline import JxplainPipeline
from repro.errors import EmptyInputError
from repro.jsontypes.types import type_of
from repro.schema import to_json_schema
from tests.conftest import json_values
from tests.discovery.pipeline_merger_reference import partitioned_pipeline

value_lists = st.lists(json_values(max_leaves=6), min_size=1, max_size=8)


class TestPipeline:
    def test_matches_reference_on_figure1(self, login_serve_stream):
        reference = Jxplain().discover(login_serve_stream)
        staged = JxplainPipeline().discover(login_serve_stream)
        assert staged == reference

    def test_matches_reference_on_collections(
        self, collection_like_records
    ):
        reference = Jxplain().discover(collection_like_records)
        staged = JxplainPipeline().discover(collection_like_records)
        assert staged == reference

    @given(value_lists)
    @settings(max_examples=30, deadline=None)
    def test_training_recall_perfect(self, values):
        schema = JxplainPipeline().discover(values)
        for value in values:
            assert schema.admits_value(value)

    @given(value_lists)
    @settings(max_examples=20, deadline=None)
    def test_fold_and_merger_paths_agree(self, values):
        """The state-core fold equals the recursive merger oracle."""
        with_fold = JxplainPipeline().discover(values)
        without_fold, _ = partitioned_pipeline(values, merger=True)
        assert with_fold == without_fold

    @given(value_lists, st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_partition_count_irrelevant(self, values, partitions):
        """One counted bag equals per-partition folds fanned in."""
        one = JxplainPipeline(num_partitions=1).run(values)
        many, decisions = partitioned_pipeline(
            values, num_partitions=partitions
        )
        assert one.schema == many
        assert one.decisions == decisions

    @pytest.mark.parametrize("dataset", ["github", "yelp-merged"])
    @pytest.mark.parametrize("fraction", [None, 0.05, 0.3])
    @pytest.mark.parametrize("seed, partitions", [(0, 1), (7, 4), (3, 5)])
    def test_matches_partitioned_reference(
        self, dataset, fraction, seed, partitions
    ):
        """Same schema bytes and decisions as the Spark-shaped form,
        sampled heuristics included."""
        records = make_dataset(dataset).generate(150, seed=seed)
        result = JxplainPipeline(
            heuristic_sample=fraction,
            sample_seed=seed,
            num_partitions=partitions,
        ).run(records)
        schema, decisions = partitioned_pipeline(
            records,
            heuristic_sample=fraction,
            sample_seed=seed,
            num_partitions=partitions,
        )
        assert json.dumps(to_json_schema(result.schema)) == json.dumps(
            to_json_schema(schema)
        )
        assert result.decisions == decisions
        assert result.record_count == len(records)

    def test_result_diagnostics(self, login_serve_stream):
        result = JxplainPipeline().run(login_serve_stream)
        assert result.record_count == len(login_serve_stream)
        assert result.decisions
        assert (("user", "geo"),) not in result.collection_paths
        stages = [name for name, _, _ in result.timer.rows()]
        assert stages == [
            "parse",
            "pass1-collections",
            "pass2-entities",
            "pass3-synthesis",
        ]

    def test_accepts_prebuilt_dataset_of_types(self, login_serve_stream):
        types = [type_of(r) for r in login_serve_stream]
        result = JxplainPipeline().run(types)
        assert result.schema == Jxplain().discover(login_serve_stream)
        assert result.record_count == len(types)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            JxplainPipeline().discover([])

    def test_invalid_partition_count_rejected(self):
        with pytest.raises(ValueError, match="num_partitions"):
            JxplainPipeline(num_partitions=0)

    def test_multi_entity_github_shape(self):
        """Entities that differ only in nested payload split (PATHS
        feature mode), in both the reference and the pipeline."""
        records = []
        for index in range(40):
            if index % 2:
                records.append(
                    {"type": "A", "payload": {"x": 1, "y": 2}}
                )
            else:
                records.append(
                    {"type": "B", "payload": {"z": "s"}}
                )
        reference = Jxplain().discover(records)
        staged = JxplainPipeline().discover(records)
        assert staged == reference
        assert not staged.admits_value(
            {"type": "A", "payload": {"x": 1, "z": "s"}}
        )
