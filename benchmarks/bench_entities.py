"""Entity-discovery bench: frozenset oracle vs bitset vs bitset+parallel.

Times the full Section 6 entity stage — Bimax-Naive, GreedyMerge to
fixpoint, partitioner construction, and record→entity assignment — on
wide synthetic key-set corpora shaped like the two workloads where
entity discovery dominates:

* **github-style** — a shared event envelope plus per-entity payload
  key pools (entities share many keys, so GreedyMerge works hard);
* **pharma-style** — wide, sparse records: large per-entity cores with
  many independent optional columns (Bimax ordering works hard).

Each corpus spans several tuple-typed paths; every path's bag clusters
independently, which is exactly the fan-out the pipeline's pass ②
exploits.  Three configurations run over the same corpora:

* ``frozenset``       — the set-algebra reference implementation kept
  as a test oracle (``tests/entities/frozenset_reference.py``), serial;
* ``bitset``          — the product: interned integer masks, serial;
* ``bitset+parallel`` — the product, paths fanned out on a process pool.

Clusters must be byte-identical across all three (same maximals, same
members, same emission order, same record assignments); the run fails
otherwise.  Results go to ``BENCH_PR2.json`` at the repo root (to
``.bench_out/BENCH_PR2.json`` below full scale) and
``benchmarks/results/entities.txt``.  At full scale (>= 2000 records
per path, >= 64 distinct keys) the bitset representation must be
>= 3x faster than frozensets on at least one corpus.

Scale with ``REPRO_BENCH_SCALE`` (CI smoke uses a small fraction; the
speedup gate only applies at full scale).
"""

from __future__ import annotations

import json
import os
import random
import time
import zlib
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.conftest import emit, report_path
from repro.engine import resolve_executor
from repro.engine.instrument import counters, reset_perf_counters
from repro.entities import EntityPartitioner, bimax_merge
from tests.entities import frozenset_reference

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Records per path at full scale; the gate needs >= 2000.
RECORDS_PER_PATH = 2400

#: Independent tuple-typed paths per corpus (the parallel fan-out).
PATHS_PER_CORPUS = 6

#: (corpus name, distinct keys, entities, optional pool, optional p)
CORPORA = [
    ("github-style", 96, 10, 16, 0.45),
    ("pharma-style", 160, 8, 22, 0.35),
]

PARALLEL_SPEC = "processes:4"

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_PR2.json"


def synthesize_path_bag(
    *, keys: int, entities: int, optional_pool: int, optional_p: float,
    records: int, seed: int,
) -> list:
    """One path's bag of key-sets: per-entity cores plus independent
    optional fields, over a shared key vocabulary."""
    rng = random.Random(seed)
    vocabulary = [f"k{i:03d}" for i in range(keys)]
    shared = rng.sample(vocabulary, 6)  # the corpus's envelope keys
    shapes = []
    for _ in range(entities):
        core = shared + rng.sample(vocabulary, rng.randint(8, 14))
        optional = rng.sample(vocabulary, optional_pool)
        shapes.append((core, optional))
    bag = []
    for _ in range(records):
        core, optional = rng.choice(shapes)
        key_set = set(core)
        for key in optional:
            if rng.random() < optional_p:
                key_set.add(key)
        bag.append(frozenset(key_set))
    return bag


def synthesize_corpus(name: str, records_per_path: int) -> list:
    """``[(path label, bag of key-sets), ...]`` for one corpus."""
    (keys, entities, optional_pool, optional_p) = next(
        spec[1:] for spec in CORPORA if spec[0] == name
    )
    return [
        (
            f"{name}/path{i}",
            synthesize_path_bag(
                keys=keys,
                entities=entities,
                optional_pool=optional_pool,
                optional_p=optional_p,
                records=records_per_path,
                seed=100 * i + zlib.crc32(name.encode()) % 97,
            ),
        )
        for i in range(PATHS_PER_CORPUS)
    ]


def _discover(task, merge, partitioner_class):
    """The entity stage for one path: cluster, build the partitioner,
    assign every record."""
    label, key_sets = task
    clusters = merge(key_sets)
    partitioner = partitioner_class(clusters)
    labels = partitioner.partition(range(len(key_sets)), key_sets)
    return (
        label,
        [
            (cluster.maximal, cluster.members, cluster.synthesized)
            for cluster in clusters
        ],
        labels,
    )


def discover_path(task):
    """The product's entity stage for one path.  Module-level and
    picklable for the process backend."""
    return _discover(task, bimax_merge, EntityPartitioner)


def discover_path_reference(task):
    """The frozenset oracle's entity stage for one path."""
    return _discover(
        task,
        frozenset_reference.bimax_merge,
        frozenset_reference.ReferencePartitioner,
    )


def _run_parallel(corpus, executor):
    return executor.map_list(discover_path, corpus)


def _bench_corpus(name: str, records_per_path: int) -> dict:
    corpus = synthesize_corpus(name, records_per_path)
    distinct_keys = len({key for _, bag in corpus for ks in bag for key in ks})
    distinct_sets = max(len(set(bag)) for _, bag in corpus)

    results = {}
    timings = {}
    counter_snapshots = {}

    for mode, discover in (
        ("frozenset", discover_path_reference),
        ("bitset", discover_path),
    ):
        reset_perf_counters()
        start = time.perf_counter()
        results[mode] = [discover(task) for task in corpus]
        timings[mode] = time.perf_counter() - start
        counter_snapshots[mode] = {
            key: value
            for key, value in sorted(counters.snapshot().items())
            if key.startswith("entities.")
        }
    executor = resolve_executor(PARALLEL_SPEC)
    try:
        start = time.perf_counter()
        results["bitset+parallel"] = _run_parallel(corpus, executor)
        timings["bitset+parallel"] = time.perf_counter() - start
    finally:
        executor.close()

    reference = results["frozenset"]
    for mode, outcome in results.items():
        assert outcome == reference, (
            f"{name}: clusters diverged between frozenset and {mode}"
        )

    bitset_speedup = timings["frozenset"] / timings["bitset"]
    parallel_speedup = timings["frozenset"] / timings["bitset+parallel"]
    return {
        "paths": len(corpus),
        "records_per_path": records_per_path,
        "distinct_keys": distinct_keys,
        "max_distinct_key_sets_per_path": distinct_sets,
        "clusters_per_path": [len(clusters) for _, clusters, _ in reference],
        "timings_s": {m: round(t, 4) for m, t in timings.items()},
        "bitset_speedup": round(bitset_speedup, 2),
        "parallel_speedup": round(parallel_speedup, 2),
        "clusters_identical": True,
        "counters": counter_snapshots,
    }


def test_entities_bench():
    records_per_path = max(60, int(RECORDS_PER_PATH * SCALE))
    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": SCALE,
        "cpu_count": os.cpu_count(),
        "parallel_executor": PARALLEL_SPEC,
        "corpora": {},
    }
    for name, *_ in CORPORA:
        report["corpora"][name] = _bench_corpus(name, records_per_path)

    best = max(d["bitset_speedup"] for d in report["corpora"].values())
    full_scale = records_per_path >= 2000 and all(
        d["distinct_keys"] >= 64 for d in report["corpora"].values()
    )
    report["acceptance"] = {
        "bitset_best_speedup": best,
        "gate_applies": full_scale,
        "met": best >= 3.0,
        "clusters_identical": all(
            d["clusters_identical"] for d in report["corpora"].values()
        ),
    }
    report_path(OUTPUT, full_scale).write_text(
        json.dumps(report, indent=2) + "\n"
    )

    lines = [
        "corpus         mode              stage_s  speedup",
    ]
    for name, data in report["corpora"].items():
        for mode, seconds in data["timings_s"].items():
            speedup = data["timings_s"]["frozenset"] / seconds
            lines.append(
                f"{name:<14} {mode:<17} {seconds:>7.3f}  {speedup:>6.2f}x"
            )
        lines.append(
            f"{name:<14} distinct_keys={data['distinct_keys']} "
            f"max_distinct_sets={data['max_distinct_key_sets_per_path']} "
            f"records/path={data['records_per_path']}"
        )
    lines.append(f"best bitset speedup: {best}x (gate {'on' if full_scale else 'off'})")
    emit("entities", "\n".join(lines))

    if full_scale:
        assert best >= 3.0, f"bitset speedup {best} < 3.0"
