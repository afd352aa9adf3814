"""Traced in-process chains: one per route, each in a fresh interpreter.

Each chain calls the public functions of every layer its CLI route
goes through, in the same order, and records one span per call with
the :mod:`spans` recorder and the counter deltas of
``repro.engine.instrument.perf_counters``.  It renders the same bytes
as the CLI command, which the caller checks.  The ``kernel`` chain has
no CLI route: it measures the counted-bag fold, the state merge and
the monoid law on the same corpus.

Run as a script, with ``src`` on ``PYTHONPATH``::

    python perfbench/chains.py ROUTE --workload NAME --workdir DIR \
        --trace-id ID --out RESULT.json

The work directory holds the files ``run.py`` set up.
"""

from __future__ import annotations

import argparse
import json
import sys

from spans import Tracer
from workloads import WORKLOADS, Files

from repro.discovery import (
    DiscoveryState,
    JxplainConfig,
    make_discoverer,
    state_for_algorithm,
)
from repro.engine.executor import ProcessExecutor
from repro.engine.instrument import (
    StageTimer,
    perf_counters,
    reset_perf_counters,
)
from repro.engine.sharding import discover_sharded
from repro.io.fastpath import ingest_jsonlines_fused
from repro.io.jsonlines import ingest_jsonlines
from repro.jsontypes import type_of
from repro.jsontypes.bag import CountedBag
from repro.schema import from_json_schema, to_json_schema
from repro.validation import validate_records


class Chain:
    """What one chain needs and what it reports."""

    def __init__(self, tracer: Tracer, workload, files: Files) -> None:
        self.span = tracer.span
        self.files = files
        overrides = dict(workload.overrides)
        # The CLI builds a config only when flags override it.
        self.config = JxplainConfig().with_(**overrides) if overrides else None
        with open(files.stats, encoding="utf-8") as handle:
            self.head_records = json.load(handle)["head_records"]
        #: Per-layer metric name -> value.
        self.metrics = {}
        #: Ratio metric name -> (numerator, denominator).
        self.bases = {}
        #: Rendered outputs, keyed by the CLI route they must equal.
        self.outputs = {}
        #: Failed internal checks, as messages.
        self.failures = []

    def timed(self, metric: str, span) -> None:
        self.metrics[metric] = span.duration

    def ratio(self, metric: str, part: float, whole: float) -> None:
        self.bases[metric] = (part, whole)
        self.metrics[metric] = part / whole if whole else 0.0

    def read_classic(self, path: str):
        with self.span("io.read_classic") as span:
            values, _ = ingest_jsonlines(path, on_bad_record="raise")
        return values, span

    def read_fused(self, path: str):
        with self.span("io.read_fused") as span:
            types, _ = ingest_jsonlines_fused(path, on_bad_record="raise")
        return types, span

    def render(self, route: str, schema):
        with self.span("schema.render") as span:
            text = json.dumps(
                to_json_schema(schema), indent=2, sort_keys=True
            ) + "\n"
        span.attrs["doc_bytes"] = len(text.encode("utf-8"))
        self.outputs[route] = text
        return span


def chain_default(chain: Chain) -> None:
    """``discover`` (classic ingest, bimax-merge)."""
    values, read = chain.read_classic(chain.files.corpus)
    discoverer = make_discoverer("bimax-merge")
    if chain.config is not None:
        discoverer.config = chain.config
    # Discoverer.discover(values) is exactly type_of per value followed
    # by merge_types; the two steps get spans of their own.
    with chain.span("discovery.discover_values") as discover:
        with chain.span("jsontypes.type_of") as typing:
            types = [type_of(value) for value in values]
        with chain.span("discovery.merge_types"):
            schema = discoverer.merge_types(types)
    render = chain.render("default", schema)
    chain.timed("io.read_classic_s", read)
    chain.timed("jsontypes.type_of_s", typing)
    chain.timed("discovery.discover_values_s", discover)
    chain.timed("schema.render_s", render)
    chain.metrics["schema.doc_bytes"] = render.attrs["doc_bytes"]
    hits = typing.counters.get("intern.hits", 0)
    misses = typing.counters.get("intern.misses", 0)
    chain.ratio("jsontypes.intern_hit_rate", hits, hits + misses)


def chain_fused(chain: Chain) -> None:
    """``discover --ingest fused``: per-record fold into the state."""
    state = state_for_algorithm("bimax-merge", chain.config)
    types, read = chain.read_fused(chain.files.corpus)
    with chain.span("discovery.absorb_record") as absorb:
        for tau in types:
            state.absorb_type(tau)
    with chain.span("discovery.synthesize") as synthesize:
        schema = state.synthesize()
    chain.render("fused", schema)
    chain.timed("io.read_fused_s", read)
    chain.ratio(
        "io.shape_hit_rate",
        read.counters.get("ingest.shape_hits", 0),
        read.counters.get("ingest.fused_records", 0),
    )
    chain.timed("discovery.absorb_record_s", absorb)
    chain.timed("discovery.synthesize_s", synthesize)
    for name in (
        "entities.subset_tests", "entities.clusters_emitted",
        "entities.cover_calls",
    ):
        chain.metrics[name] = synthesize.counters.get(name, 0)
    hits = absorb.counters.get("similarity.similar_hits", 0)
    hits += synthesize.counters.get("similarity.similar_hits", 0)
    misses = absorb.counters.get("similarity.similar_misses", 0)
    misses += synthesize.counters.get("similarity.similar_misses", 0)
    chain.ratio("jsontypes.similarity_hit_rate", hits, hits + misses)


def chain_pipeline(chain: Chain) -> None:
    """``discover --algorithm jxplain-pipeline`` (Fig. 3, classic ingest)."""
    values, _ = chain.read_classic(chain.files.corpus)
    pipeline = make_discoverer("jxplain-pipeline")
    if chain.config is not None:
        pipeline.config = chain.config
    with chain.span("discovery.pipeline_run") as run:
        result = pipeline.run(values)
    chain.render("pipeline", result.schema)
    for metric, stage in (
        ("pipeline.parse_s", "parse"),
        ("pipeline.pass1_s", "pass1-collections"),
        ("pipeline.pass2_s", "pass2-entities"),
        ("pipeline.pass3_s", "pass3-synthesis"),
    ):
        run.attrs[stage] = result.timer.seconds(stage)
        chain.metrics[metric] = result.timer.seconds(stage)


def chain_kreduce(chain: Chain) -> None:
    """``discover --algorithm k-reduce --ingest fused``."""
    state = state_for_algorithm("k-reduce")
    types, _ = chain.read_fused(chain.files.corpus)
    with chain.span("discovery.kreduce_absorb_record") as absorb:
        for tau in types:
            state.absorb_type(tau)
    with chain.span("discovery.synthesize"):
        schema = state.synthesize()
    chain.render("kreduce", schema)
    chain.timed("discovery.kreduce_absorb_record_s", absorb)


def chain_sharded(chain: Chain) -> None:
    """``discover --ingest fused --shards 2 --workers 2``."""
    executor = ProcessExecutor(max_workers=2)
    timer = StageTimer()
    try:
        with chain.span("engine.discover_sharded") as sharded:
            run = discover_sharded(
                chain.files.corpus,
                "bimax-merge",
                chain.config,
                executor=executor,
                shards=2,
                ingest="fused",
                timer=timer,
            )
    finally:
        executor.close()
    with chain.span("discovery.synthesize"):
        schema = run.state.synthesize()
    chain.render("sharded", schema)
    for metric, stage in (
        ("engine.shard_plan_s", "shard-plan"),
        ("engine.shard_discover_s", "shard-discover"),
        ("engine.shard_merge_s", "shard-merge"),
    ):
        sharded.attrs[stage] = timer.seconds(stage)
        chain.metrics[metric] = timer.seconds(stage)
    chain.metrics["engine.partial_bytes"] = run.partial_bytes


def chain_append(chain: Chain) -> None:
    """``discover --resume --checkpoint C --append tail``."""
    with chain.span("io.read_checkpoint"):
        with open(chain.files.head_checkpoint, "rb") as handle:
            payload = handle.read()
    with chain.span("discovery.codec.decode") as decode:
        state = DiscoveryState.from_bytes(payload)
    values, _ = chain.read_classic(chain.files.tail)
    # state.absorb_many(values) is type_of then absorb_type per value.
    with chain.span("jsontypes.type_of"):
        types = [type_of(value) for value in values]
    with chain.span("discovery.absorb_record"):
        for tau in types:
            state.absorb_type(tau)
    with chain.span("discovery.synthesize"):
        schema = state.synthesize()
    with chain.span("discovery.codec.encode") as encode:
        payload = state.to_bytes()
    with chain.span("io.write_checkpoint"):
        with open(chain.files.path("traced-append.state"), "wb") as handle:
            handle.write(payload)
    chain.render("append", schema)
    chain.timed("discovery.codec.decode_s", decode)
    chain.timed("discovery.codec.encode_s", encode)
    chain.metrics["discovery.codec.state_bytes"] = len(payload)


def chain_validate(chain: Chain) -> None:
    """``validate schema.json corpus``."""
    with chain.span("schema.parse"):
        with open(chain.files.schema, encoding="utf-8") as handle:
            schema = from_json_schema(json.load(handle))
    records, _ = chain.read_classic(chain.files.corpus)
    with chain.span("validation.validate") as validate:
        report = validate_records(schema, records)
    chain.outputs["validate"] = (
        f"validated {report.total} records: "
        f"{report.valid_count} accepted, {report.invalid_count} rejected "
        f"(recall {report.recall:.4f})\n"
    )
    chain.timed("validation.validate_s", validate)
    chain.ratio("validation.accept_ratio", report.valid_count, report.total)


def chain_kernel(chain: Chain) -> None:
    """Read → counted bag → ``absorb_bag``, for both state kinds.

    Also folds the head and tail halves separately and merges them:
    the merged state must equal the whole-corpus state byte for byte.
    """
    types, _ = chain.read_fused(chain.files.corpus)
    with chain.span("jsontypes.bag") as bagging:
        bag = CountedBag.from_types(types)
    state = state_for_algorithm("bimax-merge", chain.config)
    with chain.span("discovery.absorb_bag") as absorb:
        state.absorb_bag(bag)
    kstate = state_for_algorithm("k-reduce")
    with chain.span("discovery.kreduce_absorb_bag") as kabsorb:
        kstate.absorb_bag(bag)
    with chain.span("discovery.absorb_bag.halves"):
        halves = []
        for part in (
            types[:chain.head_records], types[chain.head_records:]
        ):
            half = state_for_algorithm("bimax-merge", chain.config)
            half.absorb_bag(CountedBag.from_types(part))
            halves.append(half)
    with chain.span("discovery.merge") as merge:
        merged = halves[0].merge(halves[1])
    if merged.to_bytes() != state.to_bytes():
        chain.failures.append("head+tail merge differs from one-shot state")
    with chain.span("discovery.synthesize"):
        schema = state.synthesize()
    chain.render("fused", schema)
    with chain.span("discovery.kreduce_synthesize"):
        kschema = kstate.synthesize()
    chain.render("kreduce", kschema)
    chain.timed("jsontypes.bag_s", bagging)
    chain.ratio("jsontypes.distinct_ratio", bag.distinct_count, bag.total)
    chain.timed("discovery.absorb_bag_s", absorb)
    chain.timed("discovery.kreduce_absorb_bag_s", kabsorb)
    chain.timed("discovery.merge_s", merge)


CHAINS = {
    "default": chain_default,
    "fused": chain_fused,
    "pipeline": chain_pipeline,
    "kreduce": chain_kreduce,
    "sharded": chain_sharded,
    "append": chain_append,
    "validate": chain_validate,
    "kernel": chain_kernel,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("route", choices=sorted(CHAINS))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-id", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    reset_perf_counters()
    tracer = Tracer(args.trace_id, counters=perf_counters)
    chain = Chain(tracer, WORKLOADS[args.workload], Files(args.workdir))
    with tracer.span(args.route) as root:
        CHAINS[args.route](chain)
    result = {
        "route": args.route,
        "total_s": root.duration,
        "metrics": chain.metrics,
        "bases": chain.bases,
        "outputs": chain.outputs,
        "failures": chain.failures,
        "spans": tracer.dump(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
