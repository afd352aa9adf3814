"""Set-up step: write a workload's seeded corpus and describe it.

Run as a script, with ``src`` on ``PYTHONPATH``::

    python perfbench/prepare.py --root CHECKOUT --workload NAME --seed N --workdir DIR

It writes the corpus and its head and tail halves into ``DIR``, and
into ``DIR/corpus.json`` and stdout one JSON object: bytes and records
of the corpus, records of the head, bytes of the tail, and the bases
of the two ratios that say which layers the corpus loads
(``jsontypes.distinct_ratio`` and ``io.shape_hit_rate``).  It runs in
its own process so that ``run.py`` never imports the program: a
child's peak RSS as ``wait4`` reports it includes the image it was
forked from.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import WORKLOADS, Files


def cut(files: Files, corpus_bytes: int) -> int:
    """Keep the shortest prefix of at least ``corpus_bytes`` bytes and
    split it into head and tail halves; returns the record count."""
    with open(files.corpus, "rb") as source:
        lines = source.readlines()
    size = 0
    for count, line in enumerate(lines, start=1):
        size += len(line)
        if size >= corpus_bytes:
            lines = lines[:count]
            break
    head_records = len(lines) // 2
    for path, part in (
        (files.corpus, lines),
        (files.head, lines[:head_records]),
        (files.tail, lines[head_records:]),
    ):
        with open(path, "wb") as handle:
            handle.writelines(part)
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.root)

    from benchmarks.corpus import write_corpus
    from repro.engine.instrument import perf_counters, reset_perf_counters
    from repro.io.fastpath import ingest_jsonlines_fused
    from repro.jsontypes.bag import CountedBag

    workload = WORKLOADS[args.workload]
    files = Files(args.workdir)
    write_corpus(
        files.corpus, workload.dataset, workload.max_records, seed=args.seed
    )
    records = cut(files, workload.corpus_bytes)
    reset_perf_counters()
    types, _ = ingest_jsonlines_fused(files.corpus, on_bad_record="raise")
    counters = perf_counters()
    bag = CountedBag.from_types(types)
    stats = json.dumps(
        {
            "bytes": os.path.getsize(files.corpus),
            "records": records,
            "head_records": records // 2,
            "tail_bytes": os.path.getsize(files.tail),
            "distinct": bag.distinct_count,
            "shape_hits": int(counters.get("ingest.shape_hits", 0)),
            "lines": int(counters.get("ingest.fused_records", 0)),
        }
    )
    with open(files.stats, "w", encoding="utf-8") as handle:
        handle.write(stats)
    print(stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
