"""Ablation benches for the design choices DESIGN.md calls out.

Not a table from the paper; these quantify the individual decisions:

* feature mode (KEYS vs PATHS) — PATHS is required to split entities
  that share an envelope (GitHub);
* entity strategy ladder (SINGLE / KMEANS / BIMAX_NAIVE / BIMAX_MERGE /
  EXACT) — precision/recall trade-off along §6's continuum;
* fold-based pass ③ (the product) versus the in-memory recursive
  merger (the test oracle) — identical schemas, comparable cost;
* literal versus decision-counting collection entropy — the literal
  count compounds nested collections astronomically.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_records, emit
from repro.discovery import (
    EntityStrategy,
    Jxplain,
    JxplainConfig,
    JxplainPipeline,
)
from repro.discovery.config import FeatureMode
from repro.io.sampling import train_test_split
from repro.jsontypes.types import type_of
from repro.schema.entropy import schema_entropy
from repro.validation.validator import recall_against
from tests.discovery.pipeline_merger_reference import partitioned_pipeline


def test_ablation_feature_mode(benchmark):
    """KEYS features cannot split GitHub's envelope-sharing entities;
    PATHS features can — measured as schema entropy."""
    records = bench_records("github", seed=81)
    types = [type_of(r) for r in records]

    def run(mode):
        config = JxplainConfig(feature_mode=mode)
        return schema_entropy(Jxplain(config).merge_types(types))

    paths_entropy = benchmark.pedantic(
        run, args=(FeatureMode.PATHS,), rounds=1, iterations=1
    )
    keys_entropy = run(FeatureMode.KEYS)
    emit(
        "ablation_feature_mode",
        "github schema entropy by feature mode\n"
        f"  PATHS (paper §6.4): {paths_entropy:10.2f}\n"
        f"  KEYS  (simplified): {keys_entropy:10.2f}",
    )
    assert paths_entropy < keys_entropy


def test_ablation_entity_strategy_ladder(benchmark):
    """Recall/precision along the §6 continuum on Yelp-Merged."""
    records = bench_records("yelp-merged", seed=82)
    split = train_test_split(records, seed=82)
    test_types = [type_of(r) for r in split.test]
    ladder = (
        EntityStrategy.SINGLE,
        EntityStrategy.KMEANS,
        EntityStrategy.BIMAX_NAIVE,
        EntityStrategy.BIMAX_MERGE,
        EntityStrategy.EXACT,
    )

    def run():
        rows = {}
        for strategy in ladder:
            config = JxplainConfig(entity_strategy=strategy)
            schema = Jxplain(config).discover(split.train)
            rows[strategy.value] = (
                recall_against(schema, test_types),
                schema_entropy(schema),
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["yelp-merged: strategy ladder (recall, entropy)"]
    for name, (recall, entropy) in rows.items():
        lines.append(f"  {name:12s} recall={recall:.4f} H={entropy:9.2f}")
    emit("ablation_entity_strategy", "\n".join(lines))

    # The two extremes of §6.1.
    assert rows["single"][0] >= rows["exact"][0]       # recall
    assert rows["exact"][1] <= rows["single"][1]       # precision
    # Bimax-Merge sits between: near-SINGLE recall, near-EXACT entropy.
    assert rows["bimax-merge"][0] >= rows["exact"][0]
    assert rows["bimax-merge"][1] <= rows["single"][1]


def test_ablation_fold_vs_in_memory(benchmark):
    """Pass ③ as an associative fold produces the identical schema."""
    records = bench_records("github", seed=83)

    def run_fold():
        return JxplainPipeline().discover(records)

    fold_schema = benchmark.pedantic(run_fold, rounds=1, iterations=1)
    merger_schema, _ = partitioned_pipeline(records, merger=True)
    assert fold_schema == merger_schema


def test_ablation_literal_collection_entropy(benchmark):
    """The literal counting convention compounds nested collections;
    decision counting (the paper's) does not."""
    records = bench_records("synapse", seed=84)
    schema = Jxplain().discover(records)
    decision = benchmark.pedantic(
        schema_entropy, args=(schema,), rounds=3, iterations=1
    )
    literal = schema_entropy(schema, literal_collections=True)
    emit(
        "ablation_entropy_convention",
        "synapse schema entropy by counting convention\n"
        f"  decision counting (paper): {decision:12.1f}\n"
        f"  literal counting:          {literal:12.1f}",
    )
    assert literal > decision


def test_ablation_threshold_extremes(benchmark):
    """Degenerate thresholds break the heuristic in the expected
    directions: 0 marks everything varying a collection, +inf nothing."""
    records = bench_records("pharma", seed=85)
    types = [type_of(r) for r in records]
    never = JxplainConfig(entropy_threshold=float("inf"))
    schema_never = Jxplain(never).merge_types(types)
    assert not schema_never.admits_value(
        {"npi": 1, "provider_variables": {}, "cms_prescription_counts": {"NEW": 1}}
    )
    default = Jxplain().merge_types(types)
    # With the default threshold the drug map is a collection and new
    # drugs are admitted (full record shape preserved).
    sample_record = bench_records("pharma", seed=86)[0]
    sample_record["cms_prescription_counts"] = {"BRAND NEW DRUG": 12}
    assert default.admits_value(sample_record)
