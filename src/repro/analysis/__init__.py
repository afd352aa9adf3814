"""Static analysis of the repro codebase itself (``repro lint``).

PRs 1–4 made correctness rest on cross-cutting *laws* — deterministic
encoding, picklable executor tasks, supervision that never swallows
errors, seeded randomness, thread-safe counters, closed codec
registries, real fault-target stage names.  This package machine-checks
them: an AST rule framework (:mod:`~repro.analysis.base`), the
codebase-specific rules R1–R10 (:mod:`~repro.analysis.rules`), and a
driver (:mod:`~repro.analysis.driver`) with a per-file content-hash
cache that fans file analysis out over the engine's executor backends.
The interprocedural rules R8–R10 resolve their function summaries in
one in-process, callee-first pass (:mod:`~repro.analysis.summaries`)
over the call graph (:mod:`~repro.analysis.callgraph`).

Quick use::

    from repro.analysis import run_lint
    result = run_lint(["src", "tests"], baseline_path="lint-baseline.json")
    for finding in result.fresh_findings:
        print(finding.describe())

The CLI front end is ``repro lint`` (also ``jxplain lint``); inline
waivers use ``# repro-lint: disable=R2`` comments and grandfathered
findings live in a checked-in baseline file.
"""

from repro.analysis.base import (
    ANALYZER_VERSION,
    LintError,
    Rule,
    RuleContext,
    all_rules,
    register_rule,
    rule_ids,
    rules_signature,
)
from repro.analysis.baseline import Baseline, DEFAULT_BASELINE_PATH
from repro.analysis.driver import (
    DEFAULT_CACHE_PATH,
    DEFAULT_EXCLUDES,
    LintResult,
    analyze_source,
    discover_files,
    run_lint,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.report import render_json, render_text, summary_line
from repro.analysis.sarif import (
    result_fingerprints,
    sarif_report,
    validate_sarif,
)
from repro.analysis.suppressions import Suppressions

__all__ = [
    "ANALYZER_VERSION",
    "Baseline",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_CACHE_PATH",
    "DEFAULT_EXCLUDES",
    "Finding",
    "LintError",
    "LintResult",
    "Rule",
    "RuleContext",
    "Severity",
    "Suppressions",
    "all_rules",
    "analyze_source",
    "discover_files",
    "register_rule",
    "render_json",
    "render_text",
    "result_fingerprints",
    "rule_ids",
    "rules_signature",
    "run_lint",
    "sarif_report",
    "summary_line",
    "validate_sarif",
]
