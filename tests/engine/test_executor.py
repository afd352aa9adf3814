"""Executor backends: equivalence, fallback, and scan-count exactness.

The contract under test is that a backend changes *where* per-slice
work runs, never *what* any operation returns.  Property tests drive
``map_list`` over explicit slices on all three backends and require
identical results.  Scan-counting tests re-assert the paper's pass
counts (K-reduce: 1; the staged JXPLAIN reference: 4 including
parsing) under parallel execution, on the partitioned-dataset oracle
(``tests.engine.dataset_reference``).
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    Counters,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    counters,
    default_executor,
    executor_names,
    resolve_executor,
    set_default_executor,
)
from repro.datasets import make_dataset
from repro.discovery import JxplainPipeline, KReduce
from repro.errors import EngineError
from repro.io.sampling import partitioned_bernoulli_sample
from tests.discovery.pipeline_merger_reference import partitioned_pipeline
from tests.engine.dataset_reference import LocalDataset


# Module-level ops so the process backend can pickle every task.

def _double(x):
    return x * 2


def _is_even(x):
    return x % 2 == 0


def _explode(x):
    return [x, -x]


def _reverse_partition(partition):
    return list(reversed(partition))


def _zero():
    return (0, 1)


def _seq_op(acc, item):
    # Deliberately non-commutative in its parts: (sum, product-ish)
    return (acc[0] + item, (acc[1] * (item % 7 + 1)) % 1000003)


def _comb_op(left, right):
    return (left[0] + right[0], (left[1] * right[1]) % 1000003)


def _transform_slice(items):
    doubled = [_double(x) for x in items]
    exploded = [y for x in doubled if _is_even(x) for y in _explode(x)]
    return _reverse_partition(exploded)


def _fold_slice(items):
    return functools.reduce(_seq_op, items, _zero())


def _kreduce_slice(types):
    from repro.discovery.kreduce import merge_k

    return merge_k(types)


def _tree_combine(partials):
    """Pairwise (balanced) fan-in, as a distributed reduction does."""
    while len(partials) > 1:
        paired = [
            _comb_op(partials[index], partials[index + 1])
            for index in range(0, len(partials) - 1, 2)
        ]
        partials = paired + partials[len(paired) * 2:]
    return partials[0] if partials else _zero()


@pytest.fixture(scope="module")
def backends():
    """One long-lived executor per backend (pools are reusable)."""
    return [SerialExecutor(), ThreadExecutor(3), ProcessExecutor(2)]


def _slices(records, count):
    """Deal ``records`` round-robin into ``count`` slices."""
    return [records[index::count] for index in range(count)]


ints = st.lists(st.integers(min_value=-1000, max_value=1000), max_size=40)
partition_counts = st.integers(min_value=1, max_value=7)


class TestBackendEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(records=ints, parts=partition_counts)
    def test_transformations_agree(self, backends, records, parts):
        slices = _slices(records, parts)
        results = [
            ex.map_list(_transform_slice, slices) for ex in backends
        ]
        assert results[0] == results[1] == results[2]
        assert results[0] == [_transform_slice(s) for s in slices]

    @settings(max_examples=20, deadline=None)
    @given(records=ints, parts=partition_counts)
    def test_aggregate_agrees(self, backends, records, parts):
        values = [
            functools.reduce(
                _comb_op, ex.map_list(_fold_slice, _slices(records, parts))
            )
            for ex in backends
        ]
        assert values[0] == values[1] == values[2]

    @settings(max_examples=20, deadline=None)
    @given(records=ints, parts=partition_counts)
    def test_tree_aggregate_agrees(self, backends, records, parts):
        values = [
            _tree_combine(ex.map_list(_fold_slice, _slices(records, parts)))
            for ex in backends
        ]
        assert values[0] == values[1] == values[2]

    @settings(max_examples=10, deadline=None)
    @given(
        records=ints,
        parts=partition_counts,
        fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_sample_is_backend_independent(
        self, backends, records, parts, fraction, seed
    ):
        """The pipeline's in-process sample equals the per-partition
        sample of the dataset oracle, whichever backend runs it."""
        sample = partitioned_bernoulli_sample(records, fraction, seed, parts)
        for ex in backends:
            dataset = LocalDataset.from_records(records, parts, executor=ex)
            assert dataset.sample(fraction, seed=seed).collect() == sample

    def test_discoverers_identical_across_backends(self, backends):
        from repro.discovery.kreduce import merge_k_schemas
        from repro.jsontypes import type_of
        from repro.schema.nodes import NEVER

        records = make_dataset("yelp-merged").generate(200, seed=3)
        types = [type_of(r) for r in records]
        reference_k = KReduce().discover(records)
        reference_j = JxplainPipeline().run(records).schema
        for ex in backends:
            pipeline = JxplainPipeline(executor=ex, num_partitions=4)
            assert pipeline.run(records).schema == reference_j
            folded = functools.reduce(
                merge_k_schemas,
                ex.map_list(_kreduce_slice, _slices(types, 4)),
                NEVER,
            )
            assert folded == reference_k


class TestScanCounting:
    """Pass counts tick in the driver, so they are exact per backend."""

    @pytest.mark.parametrize("spec", ["serial", "threads:3", "processes:2"])
    def test_pipeline_scans_are_exact(self, spec):
        records = make_dataset("github").generate(120, seed=1)
        ds = LocalDataset.from_records(records, 4, executor=spec)
        partitioned_pipeline(ds)
        # map(type_of) + one aggregation per pass = 4 total scans.
        assert ds.scans == 4

    @pytest.mark.parametrize("spec", ["serial", "threads:3"])
    def test_kreduce_fold_single_scan(self, spec):
        from repro.discovery.kreduce import merge_k, merge_k_schemas
        from repro.jsontypes import type_of
        from repro.schema.nodes import NEVER

        records = make_dataset("pharma").generate(80, seed=1)
        types = [type_of(r) for r in records]
        ds = LocalDataset.from_records(types, 4, executor=spec)
        ds.tree_aggregate(
            lambda: NEVER,
            lambda acc, tau: merge_k_schemas(acc, merge_k([tau])),
            merge_k_schemas,
        )
        assert ds.scans == 1

    def test_every_op_ticks_once(self):
        ds = LocalDataset.from_records(list(range(20)), 3, executor="threads:2")
        assert ds.scans == 0
        ds2 = ds.map(_double)
        assert ds.scans == 1
        ds3 = ds2.filter(_is_even)
        assert ds.scans == 2
        ds3.aggregate(_zero, _seq_op, _comb_op)
        assert ds.scans == 3
        # Union is metadata-only: no pass over the data.
        ds2.union(ds3)
        assert ds.scans == 3


class TestProcessFallback:
    def test_unpicklable_closure_falls_back_serially(self):
        counters.reset()
        executor = ProcessExecutor(2)
        bound = 5
        try:
            # A closure cannot pickle, so the pool is never reached.
            out = executor.map_list(
                lambda x: x + bound, list(range(10))  # repro-lint: disable=R2
            )
        finally:
            executor.close()
        assert out == [x + bound for x in range(10)]
        assert counters.get("executor.process_fallbacks") >= 1


class TestResolution:
    def test_spec_strings(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("threads"), ThreadExecutor)
        ex = resolve_executor("threads:5")
        assert isinstance(ex, ThreadExecutor) and ex.workers == 5
        ex = resolve_executor("processes:2")
        assert isinstance(ex, ProcessExecutor) and ex.workers == 2

    def test_passthrough_and_default(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex
        assert resolve_executor(None) is default_executor()

    def test_bad_specs_raise(self):
        with pytest.raises(EngineError):
            resolve_executor("clusters:9")
        with pytest.raises(EngineError):
            resolve_executor("threads:0")
        with pytest.raises(EngineError):
            resolve_executor("threads:lots")

    def test_names_registry(self):
        assert set(executor_names()) == {"serial", "threads", "processes"}

    def test_set_default_round_trip(self):
        old = default_executor()
        try:
            set_default_executor("threads:2")
            assert isinstance(default_executor(), ThreadExecutor)
            assert isinstance(resolve_executor(None), ThreadExecutor)
        finally:
            set_default_executor(old)

    def test_with_executor_shares_scan_counter(self):
        ds = LocalDataset.from_records(list(range(9)), 3)
        threaded = ds.with_executor("threads:2")
        threaded.map(_double)
        assert ds.scans == 1
        assert threaded.collect() == ds.collect()
        assert sorted(ds.collect()) == list(range(9))


class TestCounters:
    def test_counters_object(self):
        c = Counters()
        c.add("a")
        c.add("a", 4)
        c.set("b", 7)
        assert c.get("a") == 5
        assert c.snapshot() == {"a": 5, "b": 7}
        c.reset()
        assert c.snapshot() == {}
        assert c.get("a") == 0
