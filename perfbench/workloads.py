"""Workloads, routes and the files one benchmark run works on.

A *route* is one ``repro`` command line as a user types it.  The five
JXPLAIN-family routes (``default``, ``fused``, ``pipeline``,
``sharded``, ``append``) must print identical bytes; ``kreduce`` is a
different algorithm and ``validate`` checks the discovered schema
against its own training data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    #: The corpus is the shortest prefix of ``max_records`` generated
    #: records that holds at least this many bytes, so its size, and
    #: with it the share of a command's time spent starting up, does
    #: not vary with the seed.
    corpus_bytes: int
    max_records: int
    #: JxplainConfig overrides every JXPLAIN-family command carries,
    #: as ``(field, value)`` pairs.
    overrides: Tuple[Tuple[str, int], ...]
    why: str

    @property
    def flags(self) -> List[str]:
        """The overrides as ``discover`` command-line flags."""
        flags = []
        for field, value in self.overrides:
            flags += ["--" + field.replace("_", "-"), str(value)]
        return flags


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "github", "github", 1_500_000, 2000, (),
            "few distinct shapes: reading, type_of and the per-record "
            "fold are the work; synthesis and codec are near zero",
        ),
        Workload(
            "wikidata", "wikidata", 300_000, 80, (("similarity_depth", 3),),
            "large all-distinct records: the shape cache never hits "
            "and synthesis, codec and shard merge dominate",
        ),
        # Not listed in BENCHMARK.json: on most seeds the classic
        # ``discover`` route prints a different schema from the four
        # state-core routes, so its identity check fails.
        Workload(
            "yelp-merged", "yelp-merged", 850_000, 2500, (),
            "five interleaved entity kinds: entity discovery, codec and "
            "merge carry a large share of every route",
        ),
    )
}

#: Every timed command, in the order of the first round.
ROUTES = (
    "default", "fused", "pipeline", "kreduce", "sharded", "append",
    "validate",
)

#: Routes that must print the same schema bytes.
JXPLAIN_ROUTES = ("default", "fused", "pipeline", "sharded", "append")


@dataclass(frozen=True)
class Files:
    """The inputs of one run, all inside its work directory."""

    workdir: str

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @property
    def corpus(self) -> str:
        return self.path("corpus.jsonl")

    @property
    def stats(self) -> str:
        """What ``prepare.py`` reports about the corpus, as JSON."""
        return self.path("corpus.json")

    @property
    def head(self) -> str:
        return self.path("head.jsonl")

    @property
    def tail(self) -> str:
        return self.path("tail.jsonl")

    @property
    def head_checkpoint(self) -> str:
        """Checkpoint of the head half, built once during set-up."""
        return self.path("head.state")

    @property
    def checkpoint(self) -> str:
        """The copy ``append`` resumes from (and overwrites)."""
        return self.path("append.state")

    @property
    def schema(self) -> str:
        return self.path("schema.json")


NOOP = ["algorithms"]


def route_args(route: str, workload: Workload, files: Files) -> List[str]:
    """The ``repro`` arguments of one route."""
    discover = ["discover", files.corpus, "--format", "json"]
    if route == "default":
        return discover + workload.flags
    if route == "fused":
        return discover + ["--ingest", "fused"] + workload.flags
    if route == "pipeline":
        return discover + ["--algorithm", "jxplain-pipeline"] + workload.flags
    if route == "kreduce":
        # K-reduce has no configuration, so it carries no flags.
        return discover + ["--algorithm", "k-reduce", "--ingest", "fused"]
    if route == "sharded":
        return discover + [
            "--ingest", "fused", "--shards", "2", "--workers", "2",
        ] + workload.flags
    if route == "append":
        # The configuration was fixed when the head checkpoint was made.
        return [
            "discover", "--resume", "--checkpoint", files.checkpoint,
            "--append", files.tail, "--format", "json",
        ]
    if route == "validate":
        return ["validate", files.schema, files.corpus]
    raise ValueError(f"unknown route {route!r}")


def head_checkpoint_args(workload: Workload, files: Files) -> List[str]:
    """The set-up command that checkpoints the head half."""
    return [
        "discover", files.head, "--format", "json",
        "--checkpoint", files.head_checkpoint,
    ] + workload.flags
