"""Chaos harness: discovery output is invariant under injected faults.

The acceptance bar for the fault-tolerance layer: with a
:class:`FaultPlan` injecting crashes, a timeout and a corrupt result
into the kernel's ``shard-discover`` stage of a sharded
:meth:`JxplainPipeline.run_file`, the discovered schema is
byte-identical to a fault-free run, and the retry/timeout counters
account for exactly the injected faults — no more (no spurious
retries), no less (the plan really fired).  The same invariance is
asserted for the pipeline's pass-② fan-out, for a K-reduce fold over
explicit slices and for genuine process-pool worker crashes.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.datasets import make_dataset
from repro.discovery.kreduce import merge_k, merge_k_schemas
from repro.discovery.pipeline import JxplainPipeline
from repro.engine import (
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    ThreadExecutor,
    clear_fault_plan,
    counters,
    install_fault_plan,
    stage_scope,
)
from repro.io.jsonlines import write_jsonlines
from repro.jsontypes.types import type_of
from repro.schema import to_json_schema


#: Short per-attempt deadline; injected delays sleep well past it.
TASK_TIMEOUT = 0.4
INJECTED_DELAY = 1.5

CHAOS_POLICY = RetryPolicy(
    max_retries=3,
    task_timeout=TASK_TIMEOUT,
    backoff_base=0.001,
    on_failure="serial",
)

#: Two crashes, a timeout and a corrupt result across the four shard
#: tasks of a sharded run.  All faults stand down after one firing, so
#: a single retry clears each.
SHARD_PLAN = ",".join(
    [
        "shard-discover:0:raise",
        f"shard-discover:1:delay:1:{INJECTED_DELAY}",
        "shard-discover:2:corrupt",
        "shard-discover:3:raise",
    ]
)


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(scope="module")
def records():
    """A multi-entity corpus small enough that honest per-shard work
    finishes far inside the injected deadline."""
    return make_dataset("github").generate(160, seed=7)


@pytest.fixture(scope="module")
def corpus(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "github.jsonl"
    write_jsonlines(path, records)
    return path


def _slices(records, count=4):
    return [records[index::count] for index in range(count)]


def schema_bytes(schema) -> bytes:
    return json.dumps(to_json_schema(schema), sort_keys=True).encode()


def _delta(before, name: str) -> float:
    return counters.get(name) - before.get(name, 0)


class TestPipelineChaos:
    def test_jxplain_output_identical_under_faults(self, corpus):
        baseline = JxplainPipeline(shards=4, executor=SerialExecutor()).run_file(
            corpus
        )
        install_fault_plan(SHARD_PLAN)
        executor = ThreadExecutor(4, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            chaotic = JxplainPipeline(shards=4, executor=executor).run_file(
                corpus
            )
        finally:
            executor.close()
        assert schema_bytes(chaotic.schema) == schema_bytes(baseline.schema)
        assert chaotic.record_count == baseline.record_count
        assert chaotic.decisions == baseline.decisions
        assert chaotic.state.to_bytes() == baseline.state.to_bytes()

        injected_raise = _delta(before, "faults.injected_raise")
        injected_delay = _delta(before, "faults.injected_delay")
        injected_corrupt = _delta(before, "faults.injected_corrupt")
        assert injected_raise == 2
        assert injected_delay == 1
        assert injected_corrupt == 1
        # Every injected delay overran the deadline; nothing else did.
        assert _delta(before, "executor.timeouts") == injected_delay
        # Exactly one retry per injected fault, of any kind.
        assert _delta(before, "executor.retries") == (
            injected_raise + injected_delay + injected_corrupt
        )
        assert _delta(before, "executor.corrupt_results") == injected_corrupt
        # Retries sufficed: nothing escalated, nothing was dropped.
        assert _delta(before, "executor.serial_rescues") == 0
        assert _delta(before, "executor.skipped_tasks") == 0

    def test_robustness_config_wires_the_policy(self, corpus):
        """The same invariance, configured via RobustnessConfig: its
        retry policy supervises run_file's shard tasks."""
        from repro.discovery import RobustnessConfig

        baseline = JxplainPipeline().run_file(corpus)
        install_fault_plan("shard-discover:0:raise:1,shard-discover:2:raise:1")
        robust = JxplainPipeline(
            shards=4,
            executor=ThreadExecutor(2),
            robustness=RobustnessConfig(
                max_retries=2, backoff_base=0.001, on_failure="serial"
            ),
        )
        before = counters.snapshot()
        result = robust.run_file(corpus)
        assert schema_bytes(result.schema) == schema_bytes(baseline.schema)
        assert _delta(before, "faults.injected_raise") == 2
        assert _delta(before, "executor.retries") == 2


def _kreduce_partition(partition):
    return merge_k([type_of(record) for record in partition])


class TestKReduceChaos:
    def test_kreduce_fold_identical_under_faults(self, records):
        def fold(executor):
            with stage_scope("kreduce-fold"):
                partials = executor.map_list(
                    _kreduce_partition, _slices(records)
                )
            return functools.reduce(merge_k_schemas, partials)

        baseline = fold(SerialExecutor())
        install_fault_plan(
            f"kreduce-fold:0:raise,kreduce-fold:3:delay:1:{INJECTED_DELAY},"
            "kreduce-fold:1:corrupt"
        )
        executor = ThreadExecutor(4, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            chaotic = fold(executor)
        finally:
            executor.close()
        assert schema_bytes(chaotic) == schema_bytes(baseline)
        assert _delta(before, "faults.injected_raise") == 1
        assert _delta(before, "faults.injected_delay") == 1
        assert _delta(before, "faults.injected_corrupt") == 1
        assert _delta(before, "executor.retries") == 3
        assert _delta(before, "executor.timeouts") == 1
        assert _delta(before, "executor.skipped_tasks") == 0


def _tag(partition):
    # Module-level and closure-free so the process backend ships it to
    # real pool workers instead of degrading to the driver.
    return [
        {"type": record.get("type", "?"), "n": len(record)}
        for record in partition
    ]


class TestProcessWorkerChaos:
    def test_real_worker_crashes_are_survived(self, records):
        serial = [_tag(partition) for partition in _slices(records)]
        install_fault_plan(
            f"process-map:1:raise,process-map:2:delay:1:{INJECTED_DELAY}"
        )
        executor = ProcessExecutor(2, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            with stage_scope("process-map"):
                parallel = executor.map_list(_tag, _slices(records))
        finally:
            executor.close()
        assert parallel == serial
        # The crash really happened in a pool worker (no pickling
        # degradation took place) and one retry cleared each fault.
        assert executor.last_fallback_error is None
        assert _delta(before, "executor.process_fallbacks") == 0
        assert _delta(before, "faults.injected_raise") == 1
        assert _delta(before, "faults.injected_delay") == 1
        assert _delta(before, "executor.retries") == 2
        assert _delta(before, "executor.timeouts") == 1


class TestEnvDrivenChaos:
    def test_repro_faults_env_plan_fires(self, monkeypatch, records):
        """An env plan on run()'s pass-② clustering fan-out fires and
        is retried away."""
        from repro.engine.faults import FAULTS_ENV_VAR

        baseline = JxplainPipeline().discover(records)
        monkeypatch.setenv(FAULTS_ENV_VAR, "pass2-entities:0:raise:1")
        executor = ThreadExecutor(2, retry=CHAOS_POLICY)
        before = counters.snapshot()
        try:
            schema = JxplainPipeline(executor=executor).discover(records)
        finally:
            executor.close()
        assert schema_bytes(schema) == schema_bytes(baseline)
        assert _delta(before, "faults.injected_raise") == 1
        assert _delta(before, "executor.retries") == 1
