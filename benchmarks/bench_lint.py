"""Self-hosting lint bench: cold vs warm cache, per-rule cost, backends.

The analyzer lints a scratch copy of the repo's own ``src/`` tree (the
self-hosting corpus — the largest honest input available offline) and
reports:

* **cold vs warm**: a fresh-cache run against a rerun served entirely
  from the content-hash cache, plus the one-edit case — one file
  edited, asserting that exactly that file re-parses and that the
  findings equal an uncached run of the edited tree (the finalize
  phase re-runs in full, so no cross-file verdict goes stale);
* **per-rule timings**: each of R1–R10 run alone, cold, so regressions
  in a single rule are attributable;
* **executor backends**: the per-file fan-out under serial, threads
  and processes, asserting byte-identical findings.

Results go machine-readably to ``BENCH_PR10.json`` at the repo root
and as text under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import rule_ids, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_PR10.json"

#: Executor backends for the per-file fan-out comparison.
BACKENDS = ("serial", "threads:4", "processes:4")

#: The file edited for the one-edit measurement: a mid-graph module
#: with real callers across the tree.
EDIT_TARGET = "src/repro/jsontypes/types.py"


def _timed_lint(root: Path, **kwargs):
    start = time.perf_counter()
    result = run_lint([str(root / "src")], root=str(root), **kwargs)
    return time.perf_counter() - start, result


def _fingerprints(result):
    return [(f.file, f.line, f.rule_id, f.message) for f in result.findings]


def test_lint_bench():
    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cache": {},
        "per_rule": {},
        "executors": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-lint-") as tmp:
        scratch = Path(tmp)
        shutil.copytree(REPO_ROOT / "src", scratch / "src")
        cache = str(scratch / "lint-cache.json")

        cold_s, cold = _timed_lint(scratch, cache_path=cache)
        warm_s, warm = _timed_lint(scratch, cache_path=cache)
        assert _fingerprints(warm) == _fingerprints(cold)
        assert warm.analyzed_count == 0, "warm run must be all cache hits"
        report["files"] = len(cold.files)
        report["cache"]["cold"] = {
            "seconds": round(cold_s, 3),
            "files_analyzed": cold.analyzed_count,
        }
        report["cache"]["warm"] = {
            "seconds": round(warm_s, 3),
            "cache_hits": warm.cache_hit_count,
            "speedup": round(cold_s / warm_s, 1),
        }

        # One edit: append a harmless statement to one mid-graph file.
        # Only that file re-parses, and the warm run's findings are
        # exactly those of an uncached run over the edited tree.
        target = scratch / EDIT_TARGET
        target.write_text(target.read_text() + "\n_BENCH_TOUCH = 1\n")
        edit_s, edited = _timed_lint(scratch, cache_path=cache)
        assert edited.analyzed_count == 1, "only the edited file re-parses"
        _, uncached = _timed_lint(scratch, cache_path=None)
        assert _fingerprints(edited) == _fingerprints(uncached), (
            "one-edit findings diverged from an uncached run"
        )
        assert _fingerprints(edited) == _fingerprints(cold)
        report["cache"]["one_edit"] = {
            "seconds": round(edit_s, 3),
            "edited_file": EDIT_TARGET,
            "files_reparsed": edited.analyzed_count,
        }

        for rule in rule_ids():
            rule_s, _ = _timed_lint(scratch, cache_path=None, rules=[rule])
            report["per_rule"][rule] = round(rule_s, 3)

        for backend in BACKENDS:
            backend_s, backend_result = _timed_lint(
                scratch, cache_path=None, executor=backend
            )
            assert _fingerprints(backend_result) == _fingerprints(cold), (
                f"{backend}: findings diverged from the serial run"
            )
            report["executors"][backend] = {"seconds": round(backend_s, 3)}

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"lint self-host: {report['files']} files",
        f"  cold {report['cache']['cold']['seconds']}s"
        f"  warm {report['cache']['warm']['seconds']}s"
        f"  (x{report['cache']['warm']['speedup']})"
        f"  one-edit {report['cache']['one_edit']['seconds']}s",
        "  per rule: "
        + "  ".join(
            f"{rule}={seconds}s"
            for rule, seconds in report["per_rule"].items()
        ),
        "  backends: "
        + "  ".join(
            f"{backend}={data['seconds']}s"
            for backend, data in report["executors"].items()
        ),
    ]
    emit("bench_lint", "\n".join(lines))
