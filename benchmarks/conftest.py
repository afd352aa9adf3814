"""Shared infrastructure for the benchmark harness.

Every table and figure of the paper's evaluation has a bench module in
this directory.  Heavy computations (the Table 1/2/5 sweep) are cached
at session scope so each experiment is run once and re-read by every
table that reports a different column of it.

Each bench writes its reproduction of the paper's table to
``benchmarks/results/<name>.txt`` *and* prints it (visible with
``pytest -s`` or in the saved files).  Record counts are scaled-down
synthetic analogues (see DESIGN.md §2); set ``REPRO_BENCH_SCALE`` to
grow or shrink them, e.g. ``REPRO_BENCH_SCALE=4`` for a longer run.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

import pytest

from repro.datasets import make_dataset
from repro.discovery import Jxplain, JxplainNaive, KReduce, LReduce
from repro.metrics.recall import SweepResult, run_sweep

#: Baseline record counts per dataset (multiplied by REPRO_BENCH_SCALE).
BENCH_SIZES = {
    "nyt": 800,
    "synapse": 1000,
    "twitter": 600,
    "github": 1000,
    "pharma": 800,
    "wikidata": 150,
    "yelp-merged": 1200,
    "yelp-business": 800,
    "yelp-checkin": 800,
    "yelp-photos": 800,
    "yelp-review": 800,
    "yelp-tip": 800,
    "yelp-user": 800,
}

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Training fractions and trials used by the sweep benches.  The paper
#: uses (0.01, 0.10, 0.50, 0.90) x 5 trials on corpora of 10^5-10^6
#: records; at bench scale a 1% sample of ~800 records is only a few
#: records, so the grid starts at 5%.
BENCH_FRACTIONS = (0.05, 0.10, 0.50, 0.90)
BENCH_TRIALS = 2

RESULTS_DIR = Path(__file__).parent / "results"

#: Where below-full-scale runs write their machine-readable reports,
#: so a smoke run never rewrites the tracked ``BENCH_*.json`` files.
SMOKE_REPORT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def bench_size(name: str) -> int:
    return max(30, int(BENCH_SIZES[name] * SCALE))


def bench_records(name: str, seed: int = 0) -> list:
    """The bench-scale record sample for one dataset."""
    return make_dataset(name).generate(bench_size(name), seed=seed)


def sweep_discoverers() -> list:
    """The four algorithms of Tables 1, 2 and 5, in paper order."""
    return [KReduce(), Jxplain(), JxplainNaive(), LReduce()]


def report_path(tracked: Path, full_scale: bool) -> Path:
    """``tracked`` at full scale, else its name under
    :data:`SMOKE_REPORT_DIR`."""
    if full_scale:
        return tracked
    SMOKE_REPORT_DIR.mkdir(exist_ok=True)
    return SMOKE_REPORT_DIR / tracked.name


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


class SweepCache:
    """Session-scoped memo of the Table 1/2/5 sweep per dataset."""

    def __init__(self) -> None:
        self._sweeps: Dict[str, SweepResult] = {}

    def sweep(self, dataset: str) -> SweepResult:
        if dataset not in self._sweeps:
            records = bench_records(dataset)
            self._sweeps[dataset] = run_sweep(
                dataset,
                records,
                sweep_discoverers(),
                fractions=BENCH_FRACTIONS,
                trials=BENCH_TRIALS,
                seed=13,
            )
        return self._sweeps[dataset]


@pytest.fixture(scope="session")
def sweep_cache() -> SweepCache:
    return SweepCache()


#: Datasets included in the sweep benches.  Wikidata is excluded from
#: the full four-algorithm sweep (as in the paper, where L-reduce and
#: Bimax-Naive exhaust resources on it) and benched separately.
SWEEP_DATASETS = [
    "nyt",
    "synapse",
    "twitter",
    "github",
    "pharma",
    "yelp-merged",
    "yelp-business",
    "yelp-checkin",
    "yelp-photos",
    "yelp-review",
    "yelp-tip",
    "yelp-user",
]
