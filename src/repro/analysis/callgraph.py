"""Project symbol table and call graph (the interprocedural substrate).

The whole-program rules (R8–R10) need to see *through* calls: a helper
returning ``set(...)`` two modules away must taint the codec writer
that eventually iterates it.  This module supplies the substrate in
two phases that mirror the driver's caching model:

* **Per-file extraction** (:func:`extract_module_facts`) runs inside
  the executor workers and produces a plain JSON-serializable facts
  dict — module identity, imports, classes/methods, top-level
  functions, and module-level ``functools.partial`` task bindings.
  Facts are pure functions of the file content, so they live in the
  per-file content-hash cache like any other rule output.

* **Project assembly** (:class:`SymbolTable`, :class:`CallGraph`) runs
  once, driver-side, over every file's facts: resolve call references
  to qualified function ids, build the call graph, and condense it
  into Tarjan SCCs so the summary fixpoint can run callee-first.

Call references are resolved with deliberately *optimistic*
heuristics — an unresolvable target contributes no edge rather than an
"anything could happen" edge — because the rules built on top gate CI
and must not false-positive on dynamic dispatch they cannot see:

* ``f(...)``            → module function, module-level partial task,
                          or an imported name (``from m import f``);
* ``mod.f(...)``        → through an ``import m [as mod]`` alias;
* ``self.m(...)``       → the enclosing class, then its resolvable
                          base classes;
* ``obj.m(...)``        → only when exactly one class in the whole
                          project defines method ``m`` (unique-name
                          heuristic);
* ``partial(f, ...)``   → an edge to ``f`` plus the bound-argument
                          count, so taint and mutation summaries can
                          line partial-bound arguments up with callee
                          parameters.

Function ids are ``"<module>::<qualname>"`` (``repro.discovery.codec::
write_schema``, ``repro.engine.executor::Executor.map_list``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Bump when extraction output changes shape (part of the facts dicts).
FACTS_VERSION = 1

#: Leading path components dropped when deriving a module's dotted name.
_STRIP_ROOTS = ("src",)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a lint-root-relative path.

    ``src/repro/discovery/codec.py`` → ``repro.discovery.codec``;
    package ``__init__`` files name the package itself.
    """
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    while parts and parts[0] in _STRIP_ROOTS:
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# call-reference encoding
# ---------------------------------------------------------------------------
#
# References are compact strings so they serialize verbatim in facts:
#   "n:f"       a bare name
#   "d:a.b.c"   a dotted access rooted at a name
#   "s:m"       self.m(...) inside a method
#   "a:m"       obj.m(...) on an unresolved receiver


def encode_call_ref(func: ast.expr) -> Optional[str]:
    """Encode a call target expression as a reference string."""
    if isinstance(func, ast.Name):
        return f"n:{func.id}"
    if isinstance(func, ast.Attribute):
        chain: List[str] = [func.attr]
        node = func.value
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            if node.id == "self" and len(chain) == 1:
                return f"s:{chain[0]}"
            chain.append(node.id)
            return "d:" + ".".join(reversed(chain))
        return f"a:{func.attr}"
    return None


def _base_ref(node: ast.expr) -> Optional[str]:
    """A class-base expression as a reference string (``Name`` or dotted)."""
    if isinstance(node, ast.Name):
        return f"n:{node.id}"
    if isinstance(node, ast.Attribute):
        return encode_call_ref(node)
    return None


def _is_stub_body(body: Sequence[ast.stmt]) -> bool:
    """Whether a method body is an abstract stub (docstring +
    ``raise NotImplementedError`` / ``...`` / ``pass`` only)."""
    meaningful = [
        stmt
        for stmt in body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, (str, type(Ellipsis)))
        )
        and not isinstance(stmt, ast.Pass)
    ]
    if not meaningful:
        return True
    if len(meaningful) == 1 and isinstance(meaningful[0], ast.Raise):
        exc = meaningful[0].exc
        name = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        return name == "NotImplementedError"
    return False


def _function_signature(node) -> dict:
    """Positional-signature facts for the codec arity law (R10)."""
    args = node.args
    signature = {
        "line": node.lineno,
        "arity": len(args.posonlyargs) + len(args.args),
        "defaults": len(args.defaults),
    }
    if args.vararg is not None:
        signature["vararg"] = True
    return signature


def _partial_binding(node: ast.expr) -> Optional[Tuple[str, int]]:
    """``partial(f, a, b)`` → (ref-of-f, bound-positional-count)."""
    if not isinstance(node, ast.Call):
        return None
    callee = node.func
    name = (
        callee.id
        if isinstance(callee, ast.Name)
        else callee.attr
        if isinstance(callee, ast.Attribute)
        else None
    )
    if name != "partial" or not node.args:
        return None
    ref = encode_call_ref(node.args[0]) if isinstance(
        node.args[0], (ast.Name, ast.Attribute)
    ) else None
    if ref is None:
        return None
    return ref, len(node.args) - 1


def extract_module_facts(path: str, tree: ast.Module) -> dict:
    """The symbol skeleton of one file, as a serializable dict."""
    module = module_name_for_path(path)
    imports: Dict[str, str] = {}
    package_parts = module.split(".") if module else []
    if path.replace("\\", "/").split("/")[-1] != "__init__.py":
        package_parts = package_parts[:-1] if package_parts else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imports[bound] = alias.name if alias.asname else (
                    alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            if node.level:
                base = package_parts[: len(package_parts) - node.level + 1]
                source = ".".join(base + (node.module.split(".") if node.module else []))
            else:
                source = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{source}.{alias.name}" if source else alias.name

    classes: Dict[str, dict] = {}
    functions: Dict[str, dict] = {}
    partial_tasks: Dict[str, dict] = {}
    module_globals: List[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = _function_signature(node)
        elif isinstance(node, ast.ClassDef):
            methods: Dict[str, str] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = (
                        "stub" if _is_stub_body(item.body) else "concrete"
                    )
            classes[node.name] = {
                "line": node.lineno,
                "bases": [
                    ref
                    for ref in (_base_ref(base) for base in node.bases)
                    if ref is not None
                ],
                "methods": methods,
            }
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    module_globals.append(target.id)
            binding = _partial_binding(value)
            if binding is not None:
                for target in targets:
                    if isinstance(target, ast.Name):
                        partial_tasks[target.id] = {
                            "callee": binding[0],
                            "bound": binding[1],
                        }
    return {
        "version": FACTS_VERSION,
        "path": path,
        "module": module,
        "imports": imports,
        "functions": functions,
        "classes": classes,
        "partial_tasks": partial_tasks,
        "globals": sorted(set(module_globals)),
    }


# ---------------------------------------------------------------------------
# the project symbol table
# ---------------------------------------------------------------------------


class SymbolTable:
    """Every file's symbol facts, resolvable project-wide."""

    def __init__(self, facts_by_file: Dict[str, dict]):
        #: rel path → module facts.
        self.facts_by_file = dict(facts_by_file)
        #: dotted module name → facts.
        self.modules: Dict[str, dict] = {}
        #: dotted module name → rel path.
        self.module_paths: Dict[str, str] = {}
        #: method name → sorted ["module::Class"] owners (for the
        #: unique-name attribute heuristic).
        self._method_owners: Dict[str, List[str]] = {}
        for path in sorted(facts_by_file):
            facts = facts_by_file[path]
            module = facts.get("module", "")
            self.modules[module] = facts
            self.module_paths[module] = path
            for class_name, klass in sorted(facts.get("classes", {}).items()):
                for method in klass.get("methods", {}):
                    self._method_owners.setdefault(method, []).append(
                        f"{module}::{class_name}"
                    )

    # -- lookup ---------------------------------------------------------------

    def function_id(self, module: str, name: str) -> Optional[str]:
        """``module::name`` if the module defines a top-level function."""
        facts = self.modules.get(module)
        if facts is not None and name in facts.get("functions", ()):
            return f"{module}::{name}"
        return None

    def method_id(self, owner: str, name: str) -> Optional[str]:
        """``module::Class.name`` if the class defines the method."""
        module, _, class_name = owner.partition("::")
        facts = self.modules.get(module)
        if facts is None:
            return None
        klass = facts.get("classes", {}).get(class_name)
        if klass is not None and name in klass.get("methods", {}):
            return f"{module}::{class_name}.{name}"
        return None

    def class_bases(self, owner: str) -> List[str]:
        """Resolved ``module::Class`` owners of a class's bases."""
        module, _, class_name = owner.partition("::")
        facts = self.modules.get(module)
        if facts is None:
            return []
        klass = facts.get("classes", {}).get(class_name)
        if klass is None:
            return []
        resolved = []
        for ref in klass.get("bases", ()):
            base = self.resolve_class(module, ref)
            if base is not None:
                resolved.append(base)
        return resolved

    def resolve_class(self, module: str, ref: str) -> Optional[str]:
        """A class-base reference → ``module::Class`` (or None)."""
        kind, _, target = ref.partition(":")
        facts = self.modules.get(module, {})
        if kind == "n":
            if target in facts.get("classes", {}):
                return f"{module}::{target}"
            source = facts.get("imports", {}).get(target)
            if source is not None:
                owner_module, _, name = source.rpartition(".")
                if (
                    owner_module in self.modules
                    and name in self.modules[owner_module].get("classes", {})
                ):
                    return f"{owner_module}::{name}"
        elif kind == "d":
            head, _, rest = target.partition(".")
            source = facts.get("imports", {}).get(head, head)
            owner_module = source
            if owner_module in self.modules and "." not in rest:
                if rest in self.modules[owner_module].get("classes", {}):
                    return f"{owner_module}::{rest}"
        return None

    def mro(self, owner: str) -> List[str]:
        """The resolvable inheritance chain of a class, root-last."""
        chain: List[str] = []
        seen: Set[str] = set()
        stack = [owner]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            chain.append(current)
            stack.extend(self.class_bases(current))
        return chain

    def subclasses(self, owner: str) -> List[str]:
        """Direct project subclasses of ``module::Class``."""
        out = []
        for module, facts in sorted(self.modules.items()):
            for class_name in sorted(facts.get("classes", {})):
                candidate = f"{module}::{class_name}"
                if owner in self.class_bases(candidate):
                    out.append(candidate)
        return out

    # -- call-reference resolution -------------------------------------------

    def resolve_call(
        self,
        module: str,
        ref: str,
        enclosing_class: Optional[str] = None,
    ) -> Optional[str]:
        """A call reference → a qualified function id (or None).

        ``enclosing_class`` is the ``module::Class`` owner when the
        reference was made inside a method (for ``self.m()``).
        """
        kind, _, target = ref.partition(":")
        if kind == "n":
            return self._resolve_name(module, target)
        if kind == "d":
            return self._resolve_dotted(module, target)
        if kind == "s":
            if enclosing_class is None:
                return None
            for owner in self.mro(enclosing_class):
                found = self.method_id(owner, target)
                if found is not None:
                    return found
            return None
        if kind == "a":
            return self._resolve_unique_method(target)
        return None

    def _resolve_name(self, module: str, name: str) -> Optional[str]:
        facts = self.modules.get(module, {})
        found = self.function_id(module, name)
        if found is not None:
            return found
        task = facts.get("partial_tasks", {}).get(name)
        if task is not None:
            return self.resolve_call(module, task["callee"])
        source = facts.get("imports", {}).get(name)
        if source is not None:
            owner_module, _, func = source.rpartition(".")
            found = self.function_id(owner_module, func)
            if found is not None:
                return found
            # ``from m import task`` where task is a partial binding.
            owner_facts = self.modules.get(owner_module)
            if owner_facts is not None:
                task = owner_facts.get("partial_tasks", {}).get(func)
                if task is not None:
                    return self.resolve_call(owner_module, task["callee"])
        return None

    def _resolve_dotted(self, module: str, dotted: str) -> Optional[str]:
        head, _, rest = dotted.partition(".")
        facts = self.modules.get(module, {})
        source = facts.get("imports", {}).get(head)
        if source is None:
            # ``Class.method`` on a class defined in this module.
            if head in facts.get("classes", {}) and "." not in rest:
                return self.method_id(f"{module}::{head}", rest)
            return None
        # ``alias.attr...`` — the alias may name a module or a class.
        parts = rest.split(".")
        candidate_module = source
        for index, part in enumerate(parts):
            remaining = parts[index:]
            if candidate_module in self.modules:
                if len(remaining) == 1:
                    found = self.function_id(candidate_module, part)
                    if found is not None:
                        return found
                    task = self.modules[candidate_module].get(
                        "partial_tasks", {}
                    ).get(part)
                    if task is not None:
                        return self.resolve_call(candidate_module, task["callee"])
                if len(remaining) == 2 and part in self.modules[
                    candidate_module
                ].get("classes", {}):
                    return self.method_id(
                        f"{candidate_module}::{part}", remaining[1]
                    )
            candidate_module = f"{candidate_module}.{part}"
        # The import may itself target a class: ``from m import C`` then
        # ``C.method``.
        owner_module, _, name = source.rpartition(".")
        if (
            owner_module in self.modules
            and name in self.modules[owner_module].get("classes", {})
            and "." not in rest
        ):
            return self.method_id(f"{owner_module}::{name}", rest)
        return None

    def _resolve_unique_method(self, name: str) -> Optional[str]:
        owners = self._method_owners.get(name, ())
        if len(owners) == 1:
            return self.method_id(owners[0], name)
        return None


# ---------------------------------------------------------------------------
# the call graph
# ---------------------------------------------------------------------------


class CallGraph:
    """Resolved call edges between qualified function ids."""

    def __init__(self, symbols: SymbolTable):
        self.symbols = symbols
        #: caller id → sorted callee ids.
        self.edges: Dict[str, List[str]] = {}
        #: function id → rel path of its defining file.
        self.file_of: Dict[str, str] = {}

    def add_function(self, function_id: str, path: str) -> None:
        self.edges.setdefault(function_id, [])
        self.file_of[function_id] = path

    def add_edge(self, caller: str, callee: str) -> None:
        bucket = self.edges.setdefault(caller, [])
        if callee not in bucket:
            bucket.append(callee)
            bucket.sort()

    def sccs(self) -> List[List[str]]:
        """Tarjan SCCs in reverse-topological (callee-first) order.

        Every component comes after the components it calls into, so
        resolving them in this order sees each callee's summary done.
        """
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        out: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            # Iterative Tarjan: (node, iterator-position) frames.
            work = [(root, 0)]
            while work:
                node, pos = work.pop()
                if pos == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                callees = self.edges.get(node, [])
                for next_pos in range(pos, len(callees)):
                    callee = callees[next_pos]
                    if callee not in self.edges:
                        continue
                    if callee not in index:
                        work.append((node, next_pos + 1))
                        work.append((callee, 0))
                        recurse = True
                        break
                    if callee in on_stack:
                        lowlink[node] = min(lowlink[node], index[callee])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    out.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for node in sorted(self.edges):
            if node not in index:
                strongconnect(node)
        return out


def build_call_graph(
    symbols: SymbolTable,
    calls_by_function: Dict[str, Tuple[str, List[str]]],
) -> CallGraph:
    """Assemble the graph from per-function call references.

    ``calls_by_function`` maps a qualified function id to
    ``(rel_path, [call refs])``; the enclosing class for ``self.``
    resolution is recovered from the id itself.
    """
    graph = CallGraph(symbols)
    for function_id, (path, _) in sorted(calls_by_function.items()):
        graph.add_function(function_id, path)
    for function_id, (path, refs) in sorted(calls_by_function.items()):
        module, _, qualname = function_id.partition("::")
        enclosing = (
            f"{module}::{qualname.rsplit('.', 1)[0]}"
            if "." in qualname
            else None
        )
        for ref in refs:
            callee = symbols.resolve_call(module, ref, enclosing)
            if callee is not None and callee in graph.edges:
                graph.add_edge(function_id, callee)
    return graph
