"""The lint driver: file discovery, caching, executor fan-out.

Per-file analysis is a pure function of (file content, rule set), so
the driver:

* fans file tasks out over a pluggable
  :class:`~repro.engine.executor.Executor` backend (the same
  serial/threads/processes registry the discovery engine uses — tasks
  and reports are plain picklable values, so the process backend
  genuinely ships them to workers);
* memoizes per-file reports in a content-hash cache keyed by a
  signature of (analyzer version, active rules), so a re-run after a
  small edit re-analyzes only the edited files;
* runs each rule's cross-file :meth:`~repro.analysis.base.Rule.finalize`
  over the accumulated facts, in process — cached files contribute
  their facts without re-parsing.  The whole finalize phase is
  replayed from the cache only when the digest vector (every linted
  file's content hash, under the same rule signature) is identical;
  any edit re-runs it from scratch.

Inline suppressions are honoured inside the per-file task (they are
part of the hashed content); the checked-in baseline is applied at the
end, in the driver.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.base import (
    LintError,
    Rule,
    RuleContext,
    all_rules,
    rules_signature,
)
from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding, Severity
from repro.analysis.suppressions import Suppressions
from repro.engine.executor import resolve_executor
from repro.engine.instrument import counters

#: Directory names never descended into during file discovery.
DEFAULT_EXCLUDES = (
    "__pycache__",
    ".git",
    "build",
    "dist",
    "lint_fixtures",
)

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_PATH = ".repro-lint-cache.json"

#: Rule id attached to files that fail to parse.
PARSE_FAILURE_RULE = "R0"

_CACHE_VERSION = 2


def discover_files(
    paths: Sequence[str],
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    excluded = set(excludes)
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name
                    for name in dirnames
                    if name not in excluded and not name.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.append(os.path.join(dirpath, filename))
        else:
            raise LintError(f"no such file or directory: {path}")
    # De-duplicate while keeping a stable, sorted order.
    return sorted(set(found))


def _relative(path: str, root: str) -> str:
    try:
        rel = os.path.relpath(path, root)
    except ValueError:  # different drive on Windows
        rel = path
    return rel.replace(os.sep, "/")


def analyze_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    *,
    respect_suppressions: bool = True,
) -> Tuple[List[Finding], Dict[str, List[dict]]]:
    """Analyze one in-memory buffer; returns (findings, facts-by-rule).

    The public single-buffer entry point (the fixture tests drive the
    rules through it); :func:`run_lint` uses the same code path per
    file.
    """
    if rules is None:
        rules = all_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            file=path,
            line=exc.lineno or 1,
            column=(exc.offset or 1) - 1,
            rule_id=PARSE_FAILURE_RULE,
            severity=Severity.ERROR,
            message=f"file does not parse: {exc.msg}",
        )
        return [finding], {}
    ctx = RuleContext(path, source, tree)
    suppressions = Suppressions(source) if respect_suppressions else None
    findings: List[Finding] = []
    facts: Dict[str, List[dict]] = {}
    for rule in rules:
        rule_findings, rule_facts = rule.check(ctx)
        if suppressions is not None:
            rule_findings = [
                finding
                for finding in rule_findings
                if not suppressions.suppresses(finding.rule_id, finding.line)
            ]
        findings.extend(rule_findings)
        if rule_facts:
            # Rules sharing a facts key (R8–R10's interprocedural
            # payload) store it once; the first producer wins.
            facts.setdefault(rule.facts_key or rule.rule_id, list(rule_facts))
    return findings, facts


def _analyze_file_task(task: Tuple[str, str, Tuple[str, ...]]) -> dict:
    """One file's analysis, as a picklable executor task."""
    abs_path, rel_path, rule_ids = task
    rules = all_rules(only=list(rule_ids))
    try:
        with open(abs_path, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        finding = Finding(
            file=rel_path,
            line=1,
            column=0,
            rule_id=PARSE_FAILURE_RULE,
            severity=Severity.ERROR,
            message=f"file is unreadable: {exc}",
        )
        return {"findings": [finding.to_dict()], "facts": {}}
    findings, facts = analyze_source(source, rel_path, rules)
    return {
        "findings": [finding.to_dict() for finding in findings],
        "facts": facts,
    }


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: All findings, sorted, with baseline matches marked.
    findings: List[Finding]
    #: Lint-root-relative paths of every file considered.
    files: List[str]
    #: Files actually (re-)analyzed this run.
    analyzed_count: int
    #: Files served from the content-hash cache.
    cache_hit_count: int
    #: The baseline applied, if any.
    baseline: Optional[Baseline] = None
    #: Active rules, for reporting.
    rules: List[Rule] = field(default_factory=list)

    @property
    def fresh_findings(self) -> List[Finding]:
        """Findings not grandfathered by the baseline."""
        return [f for f in self.findings if not f.baselined]

    def worst_fresh_severity(self) -> Optional[Severity]:
        fresh = self.fresh_findings
        if not fresh:
            return None
        return max((f.severity for f in fresh), key=lambda s: s.rank)

    def fails(self, fail_on: Optional[Severity]) -> bool:
        """Whether the run should gate, given a severity threshold."""
        if fail_on is None:
            return False
        worst = self.worst_fresh_severity()
        return worst is not None and worst >= fail_on


#: What decoding a well-formed JSON value of the wrong shape raises.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def _decode_findings(payloads) -> List[Finding]:
    """Stored finding dicts → findings; raises one of ``_MALFORMED``
    on anything :meth:`Finding.to_dict` could not have written."""
    findings = [Finding.from_dict(payload) for payload in payloads]
    for finding in findings:
        if not (
            isinstance(finding.file, str)
            and isinstance(finding.line, int)
            and isinstance(finding.column, int)
            and isinstance(finding.rule_id, str)
            and isinstance(finding.message, str)
        ):
            raise ValueError(f"malformed cached finding: {finding!r}")
    return findings


class _LintCache:
    """Content-hash cache of per-file reports (findings + facts), plus
    the finalize-phase findings keyed on the rule-set-wide digest
    vector.  A corrupt cache, or any entry that does not decode, is
    just a miss."""

    def __init__(self, path: Optional[str], signature: str):
        self._path = path
        self._signature = signature
        self._files: Dict[str, dict] = {}
        self._finalize: Optional[dict] = None
        if path is None or not os.path.exists(path):
            return
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return
        if (
            isinstance(payload, dict)
            and payload.get("version") == _CACHE_VERSION
            and payload.get("signature") == signature
        ):
            files = payload.get("files")
            self._files = files if isinstance(files, dict) else {}
            self._finalize = payload.get("finalize")

    def lookup(self, rel_path: str, digest: str) -> Optional[dict]:
        entry = self._files.get(rel_path)
        if not isinstance(entry, dict) or entry.get("sha256") != digest:
            return None
        report = entry.get("report")
        try:
            _decode_findings(report["findings"])
            facts_ok = all(
                isinstance(facts, list) for facts in report["facts"].values()
            )
        except _MALFORMED:
            return None
        return report if facts_ok else None

    def store(self, rel_path: str, digest: str, report: dict) -> None:
        self._files[rel_path] = {"sha256": digest, "report": report}

    def finalize_findings(self, vector: str) -> Optional[List[Finding]]:
        """The stored finalize-phase findings, if recorded for exactly
        this digest vector."""
        entry = self._finalize
        if not isinstance(entry, dict) or entry.get("vector") != vector:
            return None
        try:
            return _decode_findings(entry["findings"])
        except _MALFORMED:
            return None

    def store_finalize(self, vector: str, findings: List[Finding]) -> None:
        self._finalize = {
            "vector": vector,
            "findings": [finding.to_dict() for finding in findings],
        }

    def save(self) -> None:
        if self._path is None:
            return
        payload = {
            "version": _CACHE_VERSION,
            "signature": self._signature,
            "files": self._files,
        }
        if self._finalize is not None:
            payload["finalize"] = self._finalize
        tmp_path = f"{self._path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_path, self._path)


def run_lint(
    paths: Sequence[str],
    *,
    rules: Optional[Sequence[str]] = None,
    executor=None,
    cache_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
    root: Optional[str] = None,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> LintResult:
    """Lint ``paths`` and return a :class:`LintResult`.

    ``rules`` restricts the run to the given rule ids; ``executor`` is
    an :class:`~repro.engine.executor.Executor` or spec string (the
    process-wide default when None); ``cache_path`` enables the
    content-hash cache; ``baseline_path`` applies a checked-in
    baseline.  ``root`` anchors the relative paths findings report
    (defaults to the working directory).
    """
    root = os.path.abspath(root or os.getcwd())
    active_rules = all_rules(only=list(rules) if rules is not None else None)
    rule_ids = tuple(rule.rule_id for rule in active_rules)
    signature = rules_signature(active_rules)
    cache = _LintCache(cache_path, signature)
    backend = resolve_executor(executor)

    files = discover_files(paths, excludes)
    rel_paths = [_relative(path, root) for path in files]

    reports: Dict[str, dict] = {}
    pending: List[Tuple[str, str, Tuple[str, ...]]] = []
    digests: Dict[str, str] = {}
    for abs_path, rel_path in zip(files, rel_paths):
        try:
            with open(abs_path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            digest = ""
        digests[rel_path] = digest
        cached = cache.lookup(rel_path, digest) if digest else None
        if cached is not None:
            reports[rel_path] = cached
        else:
            pending.append((abs_path, rel_path, rule_ids))

    cache_hits = len(files) - len(pending)
    if pending:
        produced = backend.map_list(_analyze_file_task, pending)
        for (_, rel_path, _), report in zip(pending, produced):
            if report is None:
                # A supervised backend escalated this file to "skip".
                report = {
                    "findings": [
                        Finding(
                            file=rel_path,
                            line=1,
                            column=0,
                            rule_id=PARSE_FAILURE_RULE,
                            severity=Severity.ERROR,
                            message="analysis task was skipped by the "
                            "executor's failure policy",
                        ).to_dict()
                    ],
                    "facts": {},
                }
            reports[rel_path] = report
            if digests[rel_path]:
                cache.store(rel_path, digests[rel_path], report)
    counters.add("lint.files_analyzed", len(pending))
    counters.add("lint.cache_hits", cache_hits)

    findings: List[Finding] = []
    for rel_path in rel_paths:
        report = reports.get(rel_path)
        if report is None:
            continue
        findings.extend(
            Finding.from_dict(payload) for payload in report["findings"]
        )

    # The finalize phase is keyed on the rule-set-wide content-hash
    # vector: any single-file edit changes the vector and re-runs every
    # cross-file rule over fresh facts (no stale cross-file verdicts),
    # while an untouched tree replays the stored findings outright.
    vector_basis = "\n".join(
        f"{rel_path}\0{digests.get(rel_path, '')}"
        for rel_path in sorted(rel_paths)
    )
    vector = hashlib.sha256(
        f"{signature}\n{vector_basis}".encode("utf-8")
    ).hexdigest()
    finalize_findings = cache.finalize_findings(vector)
    if finalize_findings is not None:
        counters.add("lint.finalize_cache_hits", 1)
    else:
        finalize_findings = _finalized_findings(
            active_rules, rel_paths, files, reports
        )
        cache.store_finalize(vector, finalize_findings)
        counters.add("lint.finalize_runs", 1)
    cache.save()

    findings.extend(finalize_findings)
    findings.sort(key=lambda finding: finding.sort_key)

    baseline = None
    if baseline_path is not None:
        baseline = Baseline.load(baseline_path)
        findings = baseline.apply(findings)
    counters.add("lint.findings", len(findings))
    return LintResult(
        findings=findings,
        files=rel_paths,
        analyzed_count=len(pending),
        cache_hit_count=cache_hits,
        baseline=baseline,
        rules=active_rules,
    )


def _finalized_findings(
    active_rules: Sequence[Rule],
    rel_paths: Sequence[str],
    files: Sequence[str],
    reports: Dict[str, dict],
) -> List[Finding]:
    """Cross-file findings, with inline suppressions re-applied."""
    abs_by_rel = dict(zip(rel_paths, files))
    shared: dict = {}
    out: List[Finding] = []
    for rule in active_rules:
        facts_key = rule.facts_key or rule.rule_id
        facts_by_file = {
            rel_path: reports[rel_path]["facts"].get(facts_key, [])
            for rel_path in rel_paths
            if rel_path in reports
        }
        for finding in rule.finalize(facts_by_file, shared):
            abs_path = abs_by_rel.get(finding.file)
            if abs_path is not None:
                try:
                    with open(abs_path, encoding="utf-8") as handle:
                        suppressions = Suppressions(handle.read())
                except OSError:
                    suppressions = None
                if suppressions is not None and suppressions.suppresses(
                    finding.rule_id, finding.line
                ):
                    continue
            out.append(finding)
    return out
