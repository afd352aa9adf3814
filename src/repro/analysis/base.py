"""Rule framework: contexts, the :class:`Rule` protocol, the registry.

A rule sees one file at a time through a :class:`RuleContext` (source,
parsed AST, module identity) and returns findings plus optional
*facts*.  Facts are small JSON-serializable payloads a cross-file rule
needs from every file before it can judge any of them — e.g. R7
collects the set of defined stage labels and the set of referenced
fault-spec stages separately, then reconciles them in
:meth:`Rule.finalize` once the whole run has been scanned.  Keeping
facts serializable is what lets per-file analysis fan out over the
process executor backend and survive the content-hash cache.

Finalize is one in-process pass over the current facts.  Nothing a
rule computes there outlives the pass: the only cross-run reuse is
the driver replaying a whole finalize phase's findings when no linted
file changed.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.findings import Finding, Severity
from repro.errors import ReproError

#: Bump when rule semantics change, to invalidate cached file reports.
ANALYZER_VERSION = 2


class LintError(ReproError, RuntimeError):
    """The analyzer was configured or invoked incorrectly."""


class RuleContext:
    """Everything a rule may inspect about one file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        #: Lint-root-relative, ``/``-separated path of the file.
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    @property
    def module_parts(self) -> Tuple[str, ...]:
        """The path as module-ish parts (``repro/cli.py`` →
        ``("repro", "cli")``), used for module-scoped rules."""
        parts = self.path.replace("\\", "/").split("/")
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        return tuple(parts)

    def matches_module(self, suffix: str) -> bool:
        """Whether the file path ends with ``suffix`` (``/``-separated,
        ``.py`` optional)."""
        want = tuple(
            part[: -len(".py")] if part.endswith(".py") else part
            for part in suffix.replace("\\", "/").split("/")
        )
        parts = self.module_parts
        return parts[-len(want):] == want if len(want) <= len(parts) else False


class Rule:
    """One statically checkable law.  Subclass and register."""

    #: Stable identifier, e.g. ``"R1"``.
    rule_id: str = ""
    #: Short name used in docs and reports.
    name: str = ""
    #: Severity assigned to this rule's findings.
    severity: Severity = Severity.WARNING
    #: One-line statement of the law the rule guards.
    law: str = ""
    #: Key the rule's facts are stored under in per-file reports.
    #: Rules sharing one extraction (R8–R10's interprocedural payload)
    #: use a common key so the cache holds the payload once; ``None``
    #: means the rule id.
    facts_key: Optional[str] = None

    def check(
        self, ctx: RuleContext
    ) -> Tuple[List[Finding], List[dict]]:
        """Analyze one file: return (findings, facts)."""
        raise NotImplementedError

    def finalize(
        self,
        facts_by_file: Dict[str, List[dict]],
        shared: Optional[dict] = None,
    ) -> List[Finding]:
        """Cross-file reconciliation over every file's facts.

        Called once per run, in the driver, after all files have been
        analyzed (or served from cache).  ``shared`` is a scratch dict
        common to every rule of one finalize pass, so rules that query
        one derived structure (R8–R10's project model) build it once.
        The default is no cross-file component.
        """
        return []

    def finding(
        self,
        ctx: RuleContext,
        node: ast.AST,
        message: str,
        *,
        severity: Optional[Severity] = None,
    ) -> Finding:
        return Finding(
            file=ctx.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            severity=severity or self.severity,
            message=message,
        )


_RULES: "Dict[str, Type[Rule]]" = {}


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the registry (id must be unique)."""
    rule_id = rule_class.rule_id
    if not rule_id:
        raise LintError(f"rule {rule_class.__name__} has no rule_id")
    if rule_id in _RULES and _RULES[rule_id] is not rule_class:
        raise LintError(f"duplicate rule id {rule_id!r}")
    _RULES[rule_id] = rule_class
    return rule_class


def rule_ids() -> List[str]:
    """Registered rule ids, in registration order."""
    return list(_RULES)


def all_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registered rules (optionally a subset by id)."""
    # Importing the rules module populates the registry on first use.
    import repro.analysis.rules  # noqa: F401

    if only is None:
        return [rule_class() for rule_class in _RULES.values()]
    unknown = [rule_id for rule_id in only if rule_id not in _RULES]
    if unknown:
        known = ", ".join(_RULES)
        raise LintError(f"unknown rule ids {unknown}; known: {known}")
    return [_RULES[rule_id]() for rule_id in only]


def rules_signature(rules: Sequence[Rule]) -> str:
    """Cache key component: analyzer version + active rule ids."""
    ids = ",".join(sorted(rule.rule_id for rule in rules))
    return f"v{ANALYZER_VERSION}:{ids}"
