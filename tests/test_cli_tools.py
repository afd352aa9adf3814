"""Tests for the diff / docs / coref CLI subcommands."""

import json

import pytest

from repro.cli import main
from repro.io.jsonlines import write_jsonlines


def _discover_to(tmp_path, records, name):
    data = tmp_path / f"{name}.jsonl"
    write_jsonlines(data, records)
    schema = tmp_path / f"{name}.schema.json"
    assert (
        main(
            [
                "discover",
                str(data),
                "--format",
                "json",
                "--output",
                str(schema),
            ]
        )
        == 0
    )
    return schema


class TestDiffCommand:
    def test_identical(self, tmp_path, capsys):
        records = [{"a": 1, "b": "x"}] * 5
        old = _discover_to(tmp_path, records, "old")
        new = _discover_to(tmp_path, records, "new")
        assert main(["diff", str(old), str(new)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_breaking_change_exits_nonzero(self, tmp_path, capsys):
        old = _discover_to(tmp_path, [{"a": 1}] * 5, "old")
        new = _discover_to(tmp_path, [{"a": 1, "b": 2}] * 5, "new")
        assert main(["diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "$.b" in out
        assert "!" in out

    def test_breaking_only_filter(self, tmp_path, capsys):
        # Only the collection domain grows: informational, exit 0.
        old = _discover_to(
            tmp_path,
            [{"m": {f"k{i}": 1.0, f"k{i+1}": 2.0}} for i in range(0, 40, 2)],
            "old",
        )
        new = _discover_to(
            tmp_path,
            [{"m": {f"k{i}": 1.0, f"k{i+1}": 2.0}} for i in range(0, 60, 2)],
            "new",
        )
        code = main(["diff", str(old), str(new), "--breaking-only"])
        assert code == 0


class TestDocsCommand:
    def test_docs_to_stdout(self, tmp_path, capsys):
        schema = _discover_to(tmp_path, [{"id": 1, "name": "x"}] * 5, "s")
        assert main(["docs", str(schema), "--title", "My feed"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# My feed")
        assert "| `id` |" in out

    def test_docs_to_file(self, tmp_path):
        schema = _discover_to(tmp_path, [{"id": 1}] * 5, "s")
        target = tmp_path / "docs.md"
        assert main(["docs", str(schema), "--output", str(target)]) == 0
        assert target.read_text().startswith("# Discovered schema")


class TestCorefCommand:
    def test_reports_repeats(self, tmp_path, capsys):
        user = {"id": 1, "name": "x", "handle": "y"}
        records = [{"author": user, "reviewer": user, "n": i} for i in range(5)]
        schema = _discover_to(tmp_path, records, "s")
        assert main(["coref", str(schema)]) == 0
        out = capsys.readouterr().out
        assert "co-reference" in out
        assert "$.author" in out and "$.reviewer" in out

    def test_no_repeats(self, tmp_path, capsys):
        schema = _discover_to(tmp_path, [{"a": 1}] * 5, "s")
        assert main(["coref", str(schema)]) == 0
        assert "no co-references" in capsys.readouterr().out


class TestDiscoverConfigFlags:
    def test_strategy_and_threshold(self, tmp_path, capsys):
        from repro.datasets import make_dataset

        data = tmp_path / "events.jsonl"
        write_jsonlines(data, make_dataset("figure1").generate(60, seed=1))
        assert (
            main(["discover", str(data), "--strategy", "single"]) == 0
        )
        out = capsys.readouterr().out
        # SINGLE strategy: one entity with optional fields.
        assert "user?" in out and "files?" in out

    def test_no_collections_flag(self, tmp_path, capsys):
        records = [
            {"m": {f"k{i}": 1.0, f"k{i+1}": 2.0}} for i in range(0, 60, 2)
        ]
        data = tmp_path / "maps.jsonl"
        write_jsonlines(data, records)
        assert main(["discover", str(data)]) == 0
        assert "{*: number}*" in capsys.readouterr().out
        assert main(["discover", str(data), "--no-collections"]) == 0
        assert "{*: number}*" not in capsys.readouterr().out

    def test_similarity_depth_flag(self, tmp_path, capsys):
        records = [
            {
                f"P{i}": [{"snak": {"dv": {"value": "s" if i % 2 else {"q": 1}}}}],
                f"P{i + 40}": [{"snak": {"dv": {"value": "t"}}}],
            }
            for i in range(30)
        ]
        data = tmp_path / "claims.jsonl"
        write_jsonlines(data, records)
        assert main(
            ["discover", str(data), "--similarity-depth", "3"]
        ) == 0
        assert "{*:" in capsys.readouterr().out

    def test_flags_rejected_for_non_configurable(self, tmp_path, capsys):
        data = tmp_path / "x.jsonl"
        write_jsonlines(data, [{"a": 1}])
        code = main(
            ["discover", str(data), "--algorithm", "l-reduce",
             "--threshold", "2.0"]
        )
        assert code == 2
        capsys.readouterr()
        # One message, rc 2, on every route.
        for algorithm in ("l-reduce", "k-reduce"):
            errors = set()
            for route in ([], ["--ingest", "fused"], ["--shards", "2"]):
                code = main(
                    ["discover", str(data), "--algorithm", algorithm,
                     "--threshold", "2.0", *route]
                )
                assert code == 2
                errors.add(capsys.readouterr().err)
            assert errors == {
                f"error: {algorithm} takes no configuration\n"
            }


#: Schema documents that are not what ``discover --format json`` writes.
MALFORMED_SCHEMAS = {
    "not-json": b"not json",
    "not-utf8": b"\xff\xfe{}",
    "top-level-list": b"[]",
    "empty-object": b"{}",
    "anyOf-not-list": b'{"anyOf": 3}',
    "type-number": b'{"type": 5}',
    "type-list": b'{"type": ["string"]}',
    "array-without-items": b'{"type": "array"}',
    "prefixItems-not-list": b'{"type": "array", "prefixItems": {}}',
    "properties-not-object": (
        b'{"type": "object", "additionalProperties": false, '
        b'"properties": []}'
    ),
    "required-without-property": (
        b'{"type": "object", "additionalProperties": false, '
        b'"required": ["a"]}'
    ),
}


class TestMalformedSchemaDocuments:
    """Every schema-reading command fails typed: rc 2, one line."""

    @pytest.mark.parametrize(
        "command", ["validate", "entropy", "diff", "docs", "coref"]
    )
    @pytest.mark.parametrize("name", sorted(MALFORMED_SCHEMAS) + ["missing"])
    def test_rc2_and_one_error_line(self, tmp_path, capsys, command, name):
        schema = tmp_path / "schema.json"
        if name != "missing":
            schema.write_bytes(MALFORMED_SCHEMAS[name])
        records = tmp_path / "records.jsonl"
        write_jsonlines(records, [{"a": 1}])
        argv = {
            "validate": ["validate", str(schema), str(records)],
            "entropy": ["entropy", str(schema)],
            "diff": ["diff", str(schema), str(schema)],
            "docs": ["docs", str(schema)],
            "coref": ["coref", str(schema)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {schema}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
