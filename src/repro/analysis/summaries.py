"""Interprocedural summary resolution (the fixpoint half of R8/R9).

:mod:`repro.analysis.taint` produces *symbolic* per-function facts in
executor workers; this module resolves them project-wide, in one
in-process pass per finalize:

1. assemble the :class:`~repro.analysis.callgraph.SymbolTable` and
   :class:`~repro.analysis.callgraph.CallGraph` from every file's
   facts;
2. *pre-resolve* every call reference in the taint facts to a
   qualified function id, so the fixpoint below is pure data-flow over
   plain dicts;
3. resolve summaries callee-first: walk the Tarjan SCCs in the order
   :meth:`~repro.analysis.callgraph.CallGraph.sccs` emits them and run
   each component's fixpoint against one live :class:`SummaryEnv`;
4. answer rule queries: resolved sink taints and call-site parameter
   sinks for R8, transitive mutation summaries for R9.

Per-function resolved summaries:

``ret``
    concrete source kinds reaching the return value;
``rp``
    parameter indices passing through to the return value, each
    flagged ``True`` when every path runs through ``sorted(...)``
    (order kinds cleaned);
``ps``
    parameter sinks — parameters that reach an iteration/write sink in
    this function or any callee, with a witness chain;
``mut``
    parameters and module globals the function (transitively) mutates.

Nothing is carried between runs: a finalize pass resolves every
summary from the current facts.  The driver replays a whole finalize
phase from its cache only when no file changed at all.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    SymbolTable,
    build_call_graph,
    extract_module_facts,
)
from repro.analysis.taint import ORDER_KINDS, extract_taint_facts

#: Recursion guard for nested symbolic taint payloads.
_MAX_DEPTH = 24
#: Witness chains longer than this are abandoned (and with them the
#: corresponding parameter-sink export — deliberate, bounded reporting).
_MAX_CHAIN = 8


def extract_interproc_facts(path: str, tree: ast.Module) -> dict:
    """The per-file payload shared by R8/R9/R10 (runs in workers)."""
    symbols = extract_module_facts(path, tree)
    taint = extract_taint_facts(path, tree, symbols)
    return {"symbols": symbols, "taint": taint}


# ---------------------------------------------------------------------------
# pre-resolution: call refs → function ids, in place
# ---------------------------------------------------------------------------


def _is_method(function_id: str) -> bool:
    return "." in function_id.partition("::")[2]


def _resolve_entry(
    entry: dict, symbols: SymbolTable, module: str, enclosing: Optional[str]
) -> None:
    if "z" in entry:
        _preresolve_taint(entry["z"], symbols, module, enclosing)
        return
    ref = entry.get("ref")
    if ref is not None:
        callee = symbols.resolve_call(module, ref, enclosing)
        if callee is not None:
            entry["f"] = callee
            # Bound calls (``self.m()`` / ``obj.m()``) do not carry the
            # receiver in the argument list, so call-site argument *i*
            # lines up with callee parameter *i + 1*.
            entry["o"] = (
                1 if ref[:2] in ("s:", "a:") and _is_method(callee) else 0
            )
    for arg in entry.get("a", {}).values():
        _preresolve_taint(arg, symbols, module, enclosing)


def _preresolve_taint(
    taint: Optional[dict],
    symbols: SymbolTable,
    module: str,
    enclosing: Optional[str],
) -> None:
    if not taint:
        return
    for entry in taint.get("c", ()):
        _resolve_entry(entry, symbols, module, enclosing)


def _preresolve_function(
    facts: dict, symbols: SymbolTable, module: str, enclosing: Optional[str]
) -> None:
    _preresolve_taint(facts.get("returns"), symbols, module, enclosing)
    for sink in facts.get("sinks", ()):
        _preresolve_taint(sink.get("taint"), symbols, module, enclosing)
    for event in facts.get("calls", ()):
        _resolve_entry(event, symbols, module, enclosing)
    for fanout in facts.get("fanouts", ()):
        for task in fanout.get("tasks", ()):
            ref = task.get("ref")
            if ref is None:
                continue
            callee = symbols.resolve_call(module, ref, enclosing)
            if callee is not None:
                task["f"] = callee


# ---------------------------------------------------------------------------
# the resolved-summary environment and the core resolver
# ---------------------------------------------------------------------------


class SummaryEnv:
    """Resolved summaries, filled in callee-first as SCCs resolve."""

    __slots__ = ("ret", "rp", "ps", "mut", "attr")

    def __init__(self):
        self.ret: Dict[str, List[str]] = {}
        self.rp: Dict[str, Dict[str, bool]] = {}
        self.ps: Dict[str, Dict[str, dict]] = {}
        self.mut: Dict[str, dict] = {}
        self.attr: Dict[str, List[str]] = {}

    def load(self, function_id: str, summary: dict) -> None:
        self.ret[function_id] = summary.get("ret", [])
        self.rp[function_id] = summary.get("rp", {})
        self.ps[function_id] = summary.get("ps", {})
        self.mut[function_id] = summary.get(
            "mut", {"p": [], "g": []}
        )

    def summary_of(self, function_id: str) -> dict:
        out: dict = {}
        if self.ret.get(function_id):
            out["ret"] = self.ret[function_id]
        if self.rp.get(function_id):
            out["rp"] = self.rp[function_id]
        if self.ps.get(function_id):
            out["ps"] = self.ps[function_id]
        mut = self.mut.get(function_id)
        if mut and (mut.get("p") or mut.get("g")):
            out["mut"] = mut
        return out


def _merge_param(params: Dict[int, bool], index: int, sanitized: bool):
    # An unsanitized path dominates a sanitized one.
    params[index] = params.get(index, True) and sanitized


def resolve_taint(
    taint: Optional[dict], env: SummaryEnv, depth: int = 0
) -> Tuple[Set[str], Dict[int, bool]]:
    """A symbolic taint payload → (concrete kinds, live params).

    ``params`` maps a parameter index to ``True`` when every flow from
    it runs through the ``sorted(...)`` sanitizer.
    """
    if not taint or depth > _MAX_DEPTH:
        return set(), {}
    kinds: Set[str] = set(taint.get("s", ()))
    params: Dict[int, bool] = {}
    for index in taint.get("p", ()):
        _merge_param(params, index, False)
    for key in taint.get("t", ()):
        kinds.update(env.attr.get(key, ()))
    for entry in taint.get("c", ()):
        if "z" in entry:
            inner_kinds, inner_params = resolve_taint(
                entry["z"], env, depth + 1
            )
            kinds.update(inner_kinds - ORDER_KINDS)
            for index, sanitized in inner_params.items():
                _merge_param(params, index, True)
            continue
        callee = entry.get("f")
        if callee is None:
            continue  # optimistic: an unresolved callee returns clean
        kinds.update(env.ret.get(callee, ()))
        offset = entry.get("o", 0)
        for param_str, sanitized in env.rp.get(callee, {}).items():
            arg = entry.get("a", {}).get(str(int(param_str) - offset))
            if arg is None:
                continue
            inner_kinds, inner_params = resolve_taint(arg, env, depth + 1)
            if sanitized:
                inner_kinds = inner_kinds - ORDER_KINDS
            kinds.update(inner_kinds)
            for index, inner_sanitized in inner_params.items():
                _merge_param(params, index, sanitized or inner_sanitized)
    return kinds, params


def _short(function_id: str) -> str:
    return function_id.partition("::")[2] or function_id


def _resolve_one(function_id: str, facts: dict, env: SummaryEnv) -> dict:
    """One function's resolved summary under the current environment."""
    ret_kinds, ret_params = resolve_taint(facts.get("returns"), env)
    summary: dict = {}
    if ret_kinds:
        summary["ret"] = sorted(ret_kinds)
    if ret_params:
        summary["rp"] = {
            str(index): sanitized
            for index, sanitized in sorted(ret_params.items())
        }

    psink: Dict[str, dict] = {}
    for sink in facts.get("sinks", ()):
        _, params = resolve_taint(sink.get("taint"), env)
        for index, sanitized in sorted(params.items()):
            key = str(index)
            if key in psink:
                continue
            psink[key] = {
                "kind": sink["kind"],
                "detail": sink["detail"],
                "z": sanitized,
                "chain": [
                    [function_id, sink["line"], sink["detail"], sink["kind"]]
                ],
            }
    for event in facts.get("calls", ()):
        callee = event.get("f")
        if callee is None:
            continue
        offset = event.get("o", 0)
        for param_str, centry in sorted(env.ps.get(callee, {}).items()):
            arg = event.get("a", {}).get(str(int(param_str) - offset))
            if arg is None:
                continue
            _, params = resolve_taint(arg, env)
            chain = [
                [function_id, event["line"], f"call {_short(callee)}", "call"]
            ] + centry["chain"]
            if len(chain) > _MAX_CHAIN:
                continue
            for index, sanitized in sorted(params.items()):
                key = str(index)
                if key in psink:
                    continue
                psink[key] = {
                    "kind": centry["kind"],
                    "detail": centry["detail"],
                    "z": sanitized or centry.get("z", False),
                    "chain": chain,
                }
    if psink:
        summary["ps"] = psink

    mutations = facts.get("mutations", {})
    mut_params: Set[int] = set(mutations.get("params", ()))
    mut_globals: Set[str] = set(mutations.get("globals", ()))
    for event in facts.get("calls", ()):
        callee = event.get("f")
        if callee is None:
            continue
        callee_mut = env.mut.get(callee)
        if not callee_mut:
            continue
        mut_globals.update(callee_mut.get("g", ()))
        offset = event.get("o", 0)
        ref = event.get("ref", "")
        for param in callee_mut.get("p", ()):
            arg_index = param - offset
            if arg_index < 0:
                # The callee mutates its receiver; for a ``self.m()``
                # call that receiver is this function's own ``self``.
                if ref.startswith("s:"):
                    mut_params.add(0)
                continue
            root = event.get("r", {}).get(str(arg_index))
            if root is None:
                continue
            if root.get("k") == "param":
                mut_params.add(root["i"])
            elif root.get("k") == "global":
                mut_globals.add(root["n"])
    if mut_params or mut_globals:
        summary["mut"] = {
            "p": sorted(mut_params),
            "g": sorted(mut_globals),
        }
    return summary


def _resolve_component(
    members: List[str], functions: Dict[str, dict], env: SummaryEnv
) -> None:
    """Fixpoint one SCC in place; every callee outside it is already
    resolved in ``env``."""
    for function_id in members:
        env.load(function_id, {})
    for _ in range(max(2, 2 * len(members))):
        changed = False
        for function_id in members:
            summary = _resolve_one(function_id, functions[function_id], env)
            if summary != env.summary_of(function_id):
                env.load(function_id, summary)
                changed = True
        if not changed:
            break


# ---------------------------------------------------------------------------
# the project model
# ---------------------------------------------------------------------------


class ProjectModel:
    """Everything the interprocedural rules query, fully resolved."""

    def __init__(
        self,
        symbols: SymbolTable,
        graph: CallGraph,
        functions: Dict[str, dict],
        file_of: Dict[str, str],
        env: SummaryEnv,
    ):
        self.symbols = symbols
        self.graph = graph
        #: function id → pre-resolved taint facts.
        self.functions = functions
        #: function id → rel path.
        self.file_of = file_of
        self.env = env


def build_project_model(facts_by_file: Dict[str, dict]) -> ProjectModel:
    """Assemble symbols, the call graph, and resolved summaries.

    ``facts_by_file`` maps rel path → the per-file payload of
    :func:`extract_interproc_facts`.
    """
    symbol_facts = {
        path: payload["symbols"] for path, payload in facts_by_file.items()
    }
    symbols = SymbolTable(symbol_facts)

    functions: Dict[str, dict] = {}
    file_of: Dict[str, str] = {}
    calls_by_function: Dict[str, Tuple[str, List[str]]] = {}
    attr_env: Dict[str, dict] = {}
    for path in sorted(facts_by_file):
        payload = facts_by_file[path]
        module = payload["symbols"]["module"]
        taint = payload.get("taint", {})
        for qualname, facts in taint.get("functions", {}).items():
            function_id = f"{module}::{qualname}"
            enclosing = (
                f"{module}::{qualname.rsplit('.', 1)[0]}"
                if "." in qualname
                else None
            )
            _preresolve_function(facts, symbols, module, enclosing)
            functions[function_id] = facts
            file_of[function_id] = path
            calls_by_function[function_id] = (
                path,
                [
                    event["ref"]
                    for event in facts.get("calls", ())
                    if "ref" in event
                ],
            )
        for key, taint_payload in taint.get("attr_writes", {}).items():
            _preresolve_taint(taint_payload, symbols, module, None)
            attr_env[key] = taint_payload

    graph = build_call_graph(symbols, calls_by_function)

    env = SummaryEnv()
    # Attribute-write kinds resolve against an empty env first; a
    # second pass after the fixpoint would catch writes of call
    # results — one pass is the deliberate optimistic cut.
    for key in sorted(attr_env):
        kinds, _ = resolve_taint(attr_env[key], env)
        if kinds:
            env.attr[key] = sorted(kinds)

    for component in graph.sccs():
        _resolve_component(component, functions, env)

    return ProjectModel(symbols, graph, functions, file_of, env)
