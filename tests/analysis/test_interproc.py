"""Interprocedural analysis tests: call graph, R8–R10, incrementality.

R8–R10 only resolve in the cross-file finalize phase, so (unlike the
R1–R7 golden fixtures) these tests build small multi-file projects in
``tmp_path`` and run :func:`repro.analysis.run_lint` over them.  Paths
inside the planted trees matter: sink scope is path-based
(``repro/discovery/codec.py`` etc.), and module names for import
resolution derive from the relative paths.
"""

import ast

import pytest

from repro.analysis import Severity, run_lint
from repro.analysis.summaries import (
    build_project_model,
    extract_interproc_facts,
)
from repro.engine.instrument import counters

CODEC = (
    "def write_keys(writer, keys):\n"
    "    for key in keys:\n"
    "        writer.string(key)\n"
    "\n"
    "\n"
    "def read_keys(reader):\n"
    "    return list(reader)\n"
)

HELPER_TAINTED = (
    "def gather_keys(record):\n"
    "    return {key for key in record}\n"
)

HELPER_CLEAN = (
    "def gather_keys(record):\n"
    "    return sorted(record)\n"
)

PIPELINE = (
    "from repro.discovery.codec import write_keys\n"
    "from repro.discovery.helpers import gather_keys\n"
    "\n"
    "\n"
    "def emit(writer, record):\n"
    "    write_keys(writer, gather_keys(record))\n"
)


def plant(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def lint(tree, **kwargs):
    kwargs.setdefault("root", str(tree))
    kwargs.setdefault("cache_path", None)
    return run_lint([str(tree / "src")], **kwargs)


def findings_for(result, rule_id):
    return [f for f in result.findings if f.rule_id == rule_id]


class TestR8DeterminismTaint:
    def test_set_two_calls_from_codec_sink_is_caught(self, tmp_path):
        # The acceptance case: a helper returning a set feeds a codec
        # writer two calls away — no single file shows the violation.
        tree = plant(tmp_path, {
            "src/repro/discovery/codec.py": CODEC,
            "src/repro/discovery/helpers.py": HELPER_TAINTED,
            "src/repro/pipeline.py": PIPELINE,
        })
        result = lint(tree)
        r8 = findings_for(result, "R8")
        assert len(r8) == 1, [f.describe() for f in result.findings]
        (finding,) = r8
        assert finding.file == "src/repro/pipeline.py"
        assert finding.line == 6
        assert finding.severity is Severity.ERROR
        assert "set-order" in finding.message
        assert "write_keys" in finding.message

    def test_sorted_sanitizes_the_whole_path(self, tmp_path):
        tree = plant(tmp_path, {
            "src/repro/discovery/codec.py": CODEC,
            "src/repro/discovery/helpers.py": HELPER_TAINTED,
            "src/repro/pipeline.py": PIPELINE.replace(
                "gather_keys(record))", "sorted(gather_keys(record)))"
            ),
        })
        assert findings_for(lint(tree), "R8") == []

    def test_sorting_inside_the_helper_also_sanitizes(self, tmp_path):
        tree = plant(tmp_path, {
            "src/repro/discovery/codec.py": CODEC,
            "src/repro/discovery/helpers.py": HELPER_CLEAN,
            "src/repro/pipeline.py": PIPELINE,
        })
        assert findings_for(lint(tree), "R8") == []

    def test_direct_sink_in_sink_scope_module(self, tmp_path):
        tree = plant(tmp_path, {
            "src/repro/schema/render.py": (
                "def render_names(schemas):\n"
                "    return ', '.join({s.name for s in schemas})\n"
            ),
        })
        r8 = findings_for(lint(tree), "R8")
        # Both sinks fire: the str.join iteration and (render* being a
        # sink-named function) the returned rendering itself.
        assert len(r8) == 2
        messages = " | ".join(f.message for f in r8)
        assert "join" in messages

    def test_pragma_waives_the_call_site(self, tmp_path):
        tree = plant(tmp_path, {
            "src/repro/discovery/codec.py": CODEC,
            "src/repro/discovery/helpers.py": HELPER_TAINTED,
            "src/repro/pipeline.py": PIPELINE.replace(
                "write_keys(writer, gather_keys(record))",
                "write_keys(writer, gather_keys(record))"
                "  # repro-lint: disable=R8",
            ),
        })
        assert findings_for(lint(tree), "R8") == []


#: Mutual recursion across two modules: the set is born in walk_b,
#: travels round the descend_a ↔ descend_b cycle, and leaves through
#: walk_a.emit into the codec writer.  descend_a sorts first in the
#: component, so its return taint only appears on the second sweep.
WALK_A_RETURN = (
    "from repro.discovery.codec import write_keys\n"
    "from repro.walk_b import descend_b\n"
    "\n"
    "\n"
    "def descend_a(record, depth):\n"
    "    return descend_b(record, depth - 1)\n"
    "\n"
    "\n"
    "def emit(writer, record):\n"
    "    write_keys(writer, descend_a(record, 3))\n"
)

WALK_B_RETURN = (
    "from repro.walk_a import descend_a\n"
    "\n"
    "\n"
    "def descend_b(record, depth):\n"
    "    if depth <= 0:\n"
    "        return {key for key in record}\n"
    "    return descend_a(record, depth)\n"
)

#: The same cycle carrying a parameter sink instead: visit_b hands its
#: argument to the codec writer, and visit_a only learns that through
#: visit_b, so the set emit passes in must be traced round the cycle.
WALK_A_PARAM = (
    "from repro.walk_b import visit_b\n"
    "\n"
    "\n"
    "def visit_a(writer, keys, depth):\n"
    "    if depth <= 0:\n"
    "        return\n"
    "    visit_b(writer, keys, depth - 1)\n"
    "\n"
    "\n"
    "def emit(writer, record):\n"
    "    visit_a(writer, {key for key in record}, 3)\n"
)

WALK_B_PARAM = (
    "from repro.discovery.codec import write_keys\n"
    "from repro.walk_a import visit_a\n"
    "\n"
    "\n"
    "def visit_b(writer, keys, depth):\n"
    "    write_keys(writer, keys)\n"
    "    visit_a(writer, keys, depth)\n"
)


class TestCrossFileRecursion:
    """A multi-member SCC spanning two files resolves to its fixpoint."""

    def planted(self, tmp_path, walk_a, walk_b):
        return plant(tmp_path, {
            "src/repro/discovery/codec.py": CODEC,
            "src/repro/walk_a.py": walk_a,
            "src/repro/walk_b.py": walk_b,
        })

    def test_cycle_spans_both_files(self):
        facts = {
            rel: extract_interproc_facts(rel, ast.parse(source))
            for rel, source in (
                ("src/repro/walk_a.py", WALK_A_RETURN),
                ("src/repro/walk_b.py", WALK_B_RETURN),
            )
        }
        components = build_project_model(facts).graph.sccs()
        assert [
            "repro.walk_a::descend_a", "repro.walk_b::descend_b"
        ] in components

    def test_set_returned_round_the_cycle_is_caught(self, tmp_path):
        tree = self.planted(tmp_path, WALK_A_RETURN, WALK_B_RETURN)
        r8 = findings_for(lint(tree), "R8")
        assert len(r8) == 1, [f.describe() for f in r8]
        assert (r8[0].file, r8[0].line) == ("src/repro/walk_a.py", 10)
        assert "set-order" in r8[0].message
        assert "write_keys" in r8[0].message

    def test_sorted_return_round_the_cycle_is_clean(self, tmp_path):
        tree = self.planted(
            tmp_path,
            WALK_A_RETURN.replace(
                "write_keys(writer, descend_a(record, 3))",
                "write_keys(writer, sorted(descend_a(record, 3)))",
            ),
            WALK_B_RETURN,
        )
        assert findings_for(lint(tree), "R8") == []

    def test_parameter_sink_round_the_cycle_is_caught(self, tmp_path):
        tree = self.planted(tmp_path, WALK_A_PARAM, WALK_B_PARAM)
        r8 = findings_for(lint(tree), "R8")
        assert len(r8) == 1, [f.describe() for f in r8]
        assert (r8[0].file, r8[0].line) == ("src/repro/walk_a.py", 11)
        assert "set-order" in r8[0].message
        assert "visit_a -> visit_b -> write_keys" in r8[0].message

    def test_sorted_argument_round_the_cycle_is_clean(self, tmp_path):
        tree = self.planted(
            tmp_path,
            WALK_A_PARAM.replace(
                "{key for key in record}", "sorted({key for key in record})"
            ),
            WALK_B_PARAM,
        )
        assert findings_for(lint(tree), "R8") == []


class TestR9SharedStateMutation:
    def test_task_mutating_module_global(self, tmp_path):
        tree = plant(tmp_path, {
            "src/proj/runner.py": (
                "SEEN = []\n"
                "\n"
                "\n"
                "def record(item):\n"
                "    SEEN.append(item)\n"
                "    return item\n"
                "\n"
                "\n"
                "def run(executor, items):\n"
                "    return executor.map_list(record, items)\n"
            ),
        })
        r9 = findings_for(lint(tree), "R9")
        assert len(r9) == 1
        assert r9[0].file == "src/proj/runner.py"
        assert "SEEN" in r9[0].message
        assert "map_list" in r9[0].message

    def test_bound_method_task_flags_shared_self(self, tmp_path):
        tree = plant(tmp_path, {
            "src/proj/collector.py": (
                "class Collector:\n"
                "    def __init__(self):\n"
                "        self.items = []\n"
                "\n"
                "    def add(self, item):\n"
                "        self.items.append(item)\n"
                "\n"
                "    def run(self, executor, items):\n"
                "        return executor.map_list(self.add, items)\n"
            ),
        })
        r9 = findings_for(lint(tree), "R9")
        assert len(r9) == 1
        assert "shared instance state (self)" in r9[0].message

    def test_counters_api_is_exempt(self, tmp_path):
        tree = plant(tmp_path, {
            "src/proj/runner.py": (
                "from repro.engine.instrument import counters\n"
                "\n"
                "\n"
                "def record(item):\n"
                "    counters.add('runner.items')\n"
                "    return item\n"
                "\n"
                "\n"
                "def run(executor, items):\n"
                "    return executor.map_list(record, items)\n"
            ),
        })
        assert findings_for(lint(tree), "R9") == []

    def test_pure_task_is_clean(self, tmp_path):
        tree = plant(tmp_path, {
            "src/proj/runner.py": (
                "def double(item):\n"
                "    out = []\n"
                "    out.append(item)\n"
                "    return out\n"
                "\n"
                "\n"
                "def run(executor, items):\n"
                "    return executor.map_list(double, items)\n"
            ),
        })
        assert findings_for(lint(tree), "R9") == []


PROTOCOL_BASE = (
    "class DiscoveryState:\n"
    "    def empty(self):\n"
    "        raise NotImplementedError\n"
    "\n"
    "    def absorb(self, value):\n"
    "        raise NotImplementedError\n"
    "\n"
    "    def merge(self, other):\n"
    "        raise NotImplementedError\n"
    "\n"
    "    def to_bytes(self):\n"
    "        raise NotImplementedError\n"
    "\n"
    "    def from_bytes(self, payload):\n"
    "        raise NotImplementedError\n"
)

GOOD_STATE = (
    "\n"
    "\n"
    "class GoodState(DiscoveryState):\n"
    "    def empty(self):\n"
    "        return GoodState()\n"
    "\n"
    "    def absorb(self, value):\n"
    "        return self\n"
    "\n"
    "    def merge(self, other):\n"
    "        return self\n"
    "\n"
    "    def to_bytes(self):\n"
    "        return b''\n"
    "\n"
    "    def from_bytes(self, payload):\n"
    "        return GoodState()\n"
)

BROKEN_STATE = (
    "\n"
    "\n"
    "class BrokenState(DiscoveryState):\n"
    "    def empty(self):\n"
    "        return BrokenState()\n"
    "\n"
    "    def absorb(self, value):\n"
    "        return self\n"
    "\n"
    "    def merge(self, other):\n"
    "        return self\n"
    "\n"
    "    def to_bytes(self):\n"
    "        return b''\n"
)


class TestR10MonoidProtocol:
    def test_missing_surface_method_flagged_on_leaf(self, tmp_path):
        tree = plant(tmp_path, {
            "src/proj/states.py": PROTOCOL_BASE + GOOD_STATE + BROKEN_STATE,
        })
        r10 = findings_for(lint(tree), "R10")
        assert len(r10) == 1
        assert "BrokenState" in r10[0].message
        assert "from_bytes" in r10[0].message

    def test_abstract_intermediates_are_not_leaves(self, tmp_path):
        # BrokenState grows a subclass that completes the surface: the
        # law binds the leaf, not the intermediate.
        tree = plant(tmp_path, {
            "src/proj/states.py": (
                PROTOCOL_BASE
                + BROKEN_STATE
                + "\n"
                "\n"
                "class FixedState(BrokenState):\n"
                "    def from_bytes(self, payload):\n"
                "        return FixedState()\n"
            ),
        })
        assert findings_for(lint(tree), "R10") == []

    def test_codec_pair_arity_mismatch(self, tmp_path):
        tree = plant(tmp_path, {
            "src/repro/discovery/codec.py": (
                "def write_block(writer, items):\n"
                "    return None\n"
                "\n"
                "\n"
                "def read_block(reader, extra, flags):\n"
                "    return None\n"
            ),
        })
        r10 = findings_for(lint(tree), "R10")
        assert len(r10) == 1
        assert "write_block()/read_block()" in r10[0].message
        assert "arity" in r10[0].message

    def test_matching_arity_is_clean(self, tmp_path):
        tree = plant(tmp_path, {
            "src/repro/discovery/codec.py": CODEC,
        })
        assert findings_for(lint(tree), "R10") == []


class TestCallGraphIdioms:
    """S3: the builder resolves the repo's real dispatch idioms."""

    SOURCES = {
        "src/proj/worker.py": (
            "from functools import partial\n"
            "\n"
            "\n"
            "def _impl(bound, item):\n"
            "    return bound + item\n"
            "\n"
            "\n"
            "task = partial(_impl, 3)\n"
        ),
        "src/proj/registry.py": (
            "_REGISTRY = {}\n"
            "\n"
            "\n"
            "def state_for_algorithm(name):\n"
            "    return _REGISTRY[name]()\n"
        ),
        "src/proj/driver.py": (
            "from proj.registry import state_for_algorithm\n"
            "from proj.worker import task\n"
            "\n"
            "\n"
            "class Driver:\n"
            "    def __getstate__(self):\n"
            "        state = dict(self.__dict__)\n"
            "        state.pop('cache', None)\n"
            "        return state\n"
            "\n"
            "    def helper(self):\n"
            "        return 1\n"
            "\n"
            "    def run(self, items):\n"
            "        task(2)\n"
            "        state_for_algorithm('x')\n"
            "        return self.helper()\n"
            "\n"
            "\n"
            "class Uniq:\n"
            "    def merge_shard(self, other):\n"
            "        return other\n"
            "\n"
            "\n"
            "def poke(factory):\n"
            "    return factory().merge_shard(1)\n"
        ),
    }

    @pytest.fixture
    def model(self):
        facts = {
            path: extract_interproc_facts(path, ast.parse(source))
            for path, source in self.SOURCES.items()
        }
        return build_project_model(facts)

    def test_pinned_edges(self, model):
        edges = model.graph.edges
        # Imported module-level partial task: the edge lands on the
        # underlying implementation, not the binding name.
        assert "proj.worker::_impl" in edges["proj.driver::Driver.run"]
        # Registry dispatch through a from-import.
        assert (
            "proj.registry::state_for_algorithm"
            in edges["proj.driver::Driver.run"]
        )
        # self.helper() resolves through the enclosing class.
        assert (
            "proj.driver::Driver.helper"
            in edges["proj.driver::Driver.run"]
        )
        # An attribute call on an opaque receiver resolves because
        # exactly one project class defines the method.
        assert edges["proj.driver::poke"] == ["proj.driver::Uniq.merge_shard"]

    def test_dunder_methods_are_graph_nodes(self, model):
        assert "proj.driver::Driver.__getstate__" in model.graph.edges
        assert (
            model.graph.file_of["proj.driver::Driver.__getstate__"]
            == "src/proj/driver.py"
        )


class TestIncrementalFinalize:
    """Warm-cache runs: cross-file verdicts follow every edit, and only
    an untouched tree replays the finalize phase."""

    def planted(self, tmp_path, helper):
        return plant(tmp_path, {
            "src/repro/discovery/codec.py": CODEC,
            "src/repro/discovery/helpers.py": helper,
            "src/repro/pipeline.py": PIPELINE,
        })

    def test_editing_one_file_updates_cross_file_verdict(self, tmp_path):
        # The PR-6 staleness bug: pipeline.py is served from the
        # per-file cache, but its R8 verdict depends on helpers.py.
        tree = self.planted(tmp_path, HELPER_CLEAN)
        cache = str(tmp_path / "cache.json")
        first = lint(tree, cache_path=cache)
        assert findings_for(first, "R8") == []
        (tree / "src/repro/discovery/helpers.py").write_text(HELPER_TAINTED)
        second = lint(tree, cache_path=cache)
        r8 = findings_for(second, "R8")
        assert len(r8) == 1
        assert r8[0].file == "src/repro/pipeline.py"
        # And back: the fix clears the verdict through the same cache.
        (tree / "src/repro/discovery/helpers.py").write_text(HELPER_CLEAN)
        third = lint(tree, cache_path=cache)
        assert findings_for(third, "R8") == []

    def test_unchanged_rerun_replays_finalize_from_cache(self, tmp_path):
        tree = self.planted(tmp_path, HELPER_TAINTED)
        cache = str(tmp_path / "cache.json")
        first = lint(tree, cache_path=cache)
        counters.reset()
        second = lint(tree, cache_path=cache)
        assert counters.get("lint.finalize_cache_hits") == 1
        assert counters.get("lint.finalize_runs") == 0
        assert second.findings == first.findings

    def test_deleting_the_callee_still_invalidates_callers(self, tmp_path):
        # The current call graph has no edge into a deleted function;
        # invalidation must come from the previous run's dependency map.
        tree = self.planted(tmp_path, HELPER_TAINTED)
        cache = str(tmp_path / "cache.json")
        first = lint(tree, cache_path=cache)
        assert len(findings_for(first, "R8")) == 1
        (tree / "src/repro/discovery/helpers.py").write_text(
            "def unrelated():\n    return 0\n"
        )
        second = lint(tree, cache_path=cache)
        # gather_keys no longer exists: the call no longer resolves,
        # so optimistically there is nothing to report.
        assert findings_for(second, "R8") == []
