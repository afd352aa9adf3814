"""Driver tests: discovery, caching, executor fan-out, baseline."""

import json

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    LintError,
    Severity,
    discover_files,
    render_json,
    run_lint,
)
from repro.engine.executor import ThreadExecutor

SWALLOW = (
    "def probe(fn):\n"
    "    try:\n"
    "        fn()\n"
    "    except Exception:\n"
    "        pass\n"
)

CLEAN = "def double(x):\n    return 2 * x\n"


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "bad.py").write_text(SWALLOW)
    (pkg / "good.py").write_text(CLEAN)
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "skipme.py").write_text(SWALLOW)
    return tmp_path


def lint_tree(tree, **kwargs):
    kwargs.setdefault("root", str(tree))
    return run_lint([str(tree / "pkg")], **kwargs)


def _each_report(payload, damage):
    """A cache payload with ``damage`` applied to every file report."""
    files = {
        path: {**entry, "report": damage(entry["report"])}
        for path, entry in payload["files"].items()
    }
    return {**payload, "files": files}


class TestDiscovery:
    def test_discovers_py_files_and_skips_excluded_dirs(self, tree):
        found = discover_files([str(tree / "pkg")])
        names = [path.rsplit("/", 1)[-1] for path in found]
        assert names == ["bad.py", "good.py"]

    def test_missing_path_raises(self):
        with pytest.raises(LintError):
            discover_files(["definitely/not/here"])


class TestRunLint:
    def test_finds_the_swallow(self, tree):
        result = lint_tree(tree)
        assert [f.rule_id for f in result.fresh_findings] == ["R3"]
        assert result.fresh_findings[0].file == "pkg/bad.py"
        assert result.worst_fresh_severity() is Severity.ERROR
        assert result.fails(Severity.WARNING)
        assert result.fails(Severity.ERROR)
        assert not result.fails(None)

    def test_rule_subset(self, tree):
        result = lint_tree(tree, rules=["R4"])
        assert result.findings == []

    def test_syntax_error_becomes_r0_finding(self, tree):
        (tree / "pkg" / "broken.py").write_text("def oops(:\n")
        result = lint_tree(tree)
        by_file = {f.file: f for f in result.findings}
        broken = by_file["pkg/broken.py"]
        assert broken.rule_id == "R0"
        assert broken.severity is Severity.ERROR

    def test_thread_backend_matches_serial(self, tree):
        serial = lint_tree(tree, executor="serial")
        threaded = lint_tree(tree, executor=ThreadExecutor(max_workers=4))
        assert serial.findings == threaded.findings

    def test_executor_spec_string(self, tree):
        result = lint_tree(tree, executor="threads:2")
        assert [f.rule_id for f in result.findings] == ["R3"]


class TestCache:
    def test_second_run_is_all_cache_hits(self, tree, tmp_path):
        cache = str(tmp_path / "cache.json")
        first = lint_tree(tree, cache_path=cache)
        assert (first.analyzed_count, first.cache_hit_count) == (2, 0)
        second = lint_tree(tree, cache_path=cache)
        assert (second.analyzed_count, second.cache_hit_count) == (0, 2)
        assert first.findings == second.findings

    def test_edit_invalidates_only_that_file(self, tree, tmp_path):
        cache = str(tmp_path / "cache.json")
        lint_tree(tree, cache_path=cache)
        (tree / "pkg" / "good.py").write_text(CLEAN + "\n# touched\n")
        rerun = lint_tree(tree, cache_path=cache)
        assert (rerun.analyzed_count, rerun.cache_hit_count) == (1, 1)

    def test_corrupt_cache_is_cold_not_fatal(self, tree, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{ not json")
        result = lint_tree(tree, cache_path=str(cache))
        assert result.analyzed_count == 2

    @pytest.mark.parametrize(
        "damage",
        [
            lambda payload: [],
            lambda payload: {**payload, "files": [1]},
            lambda payload: _each_report(
                payload,
                lambda report: {
                    **report,
                    "findings": [
                        {k: v for k, v in finding.items() if k != "file"}
                        for finding in report["findings"]
                    ],
                },
            ),
            lambda payload: _each_report(payload, lambda report: 7),
            lambda payload: {
                **payload,
                "finalize": {**payload["finalize"], "findings": [{}]},
            },
        ],
        ids=[
            "top-level-list",
            "files-list",
            "finding-without-file",
            "report-not-object",
            "finalize-finding-empty",
        ],
    )
    def test_malformed_cache_is_a_miss(self, tree, tmp_path, damage):
        cache = tmp_path / "cache.json"
        lint_tree(tree, cache_path=str(cache))
        cache.write_text(json.dumps(damage(json.loads(cache.read_text()))))
        result = lint_tree(tree, cache_path=str(cache))
        assert result.findings == lint_tree(tree, cache_path=None).findings
        assert [f.rule_id for f in result.findings] == ["R3"]

    def test_rule_set_change_invalidates(self, tree, tmp_path):
        cache = str(tmp_path / "cache.json")
        lint_tree(tree, cache_path=cache)
        rerun = lint_tree(tree, cache_path=cache, rules=["R3"])
        assert rerun.cache_hit_count == 0


class TestBaseline:
    def test_round_trip_marks_findings(self, tree, tmp_path):
        result = lint_tree(tree)
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(result.findings).save(str(baseline_path))
        rerun = lint_tree(tree, baseline_path=str(baseline_path))
        assert rerun.fresh_findings == []
        assert len(rerun.findings) == 1
        assert rerun.findings[0].baselined
        assert not rerun.fails(Severity.INFO)

    def test_budget_is_per_occurrence(self, tree, tmp_path):
        result = lint_tree(tree)
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(result.findings).save(str(baseline_path))
        # A SECOND occurrence of the grandfathered violation in the
        # same file must still fail the gate.
        (tree / "pkg" / "bad.py").write_text(SWALLOW + "\n\n" + SWALLOW)
        rerun = lint_tree(tree, baseline_path=str(baseline_path))
        assert len(rerun.findings) == 2
        assert len(rerun.fresh_findings) == 1

    def test_missing_baseline_file_is_empty(self, tree, tmp_path):
        result = lint_tree(
            tree, baseline_path=str(tmp_path / "nonexistent.json")
        )
        assert len(result.fresh_findings) == 1

    def test_unreadable_baseline_raises(self, tree, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("nope")
        with pytest.raises(LintError):
            lint_tree(tree, baseline_path=str(bad))


class TestCrossFileFinalize:
    def test_r7_reconciles_across_files(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "stages.py").write_text(
            "def run(timer):\n"
            "    with timer.stage('parse'):\n"
            "        pass\n"
        )
        (pkg / "chaos.py").write_text(
            "def inject(monkeypatch):\n"
            "    monkeypatch.setenv('REPRO_FAULTS', 'ghost:0:raise')\n"
        )
        result = run_lint([str(pkg)], root=str(tmp_path))
        r7 = [f for f in result.findings if f.rule_id == "R7"]
        assert len(r7) == 1
        assert r7[0].file == "pkg/chaos.py"
        assert "'ghost'" in r7[0].message

    def test_finalize_findings_respect_suppressions(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "stages.py").write_text(
            "def run(timer):\n"
            "    with timer.stage('parse'):\n"
            "        pass\n"
        )
        (pkg / "chaos.py").write_text(
            "# repro-lint: disable-file=R7\n"
            "def inject(monkeypatch):\n"
            "    monkeypatch.setenv('REPRO_FAULTS', 'ghost:0:raise')\n"
        )
        result = run_lint([str(pkg)], root=str(tmp_path))
        assert [f for f in result.findings if f.rule_id == "R7"] == []


class TestJsonReport:
    def test_shape(self, tree):
        result = lint_tree(tree)
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert payload["files_checked"] == 2
        assert payload["summary"]["fresh"] == 1
        assert payload["summary"]["by_rule"] == {"R3": 1}
        assert {rule["id"] for rule in payload["rules"]} >= {"R1", "R7"}
        (finding,) = payload["findings"]
        restored = Finding.from_dict(finding)
        assert restored.rule_id == "R3"
        assert restored.fingerprint == finding["fingerprint"]
