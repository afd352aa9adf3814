"""Tests for the jxplain command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.discovery import discoverer_names, state_for_algorithm
from repro.io.jsonlines import load_jsonlines, write_jsonlines
from repro.schema import to_json_schema

#: Two yelp-merged businesses (generator seed 1) on which the recursive
#: Algorithm 4 and the state core disagree: the recursive merger splits
#: the root into two entities first and then sees one record per
#: ``hours`` object (local evidence: a tuple), while the state core
#: decides ``hours`` from both records at once (global pass ①: a
#: collection).  Found by greedy record deletion from the 296 records
#: with ``attributes`` among the benchmark's 850 KB yelp-merged cut.
LOCAL_VS_GLOBAL = os.path.join(
    os.path.dirname(__file__),
    "discovery",
    "fixtures",
    "yelp_local_vs_global.jsonl",
)


@pytest.fixture
def figure1_file(tmp_path, figure1_records):
    path = tmp_path / "fig1.jsonl"
    write_jsonlines(path, figure1_records * 10)
    return path


class TestDiscover:
    def test_text_output(self, figure1_file, capsys):
        assert main(["discover", str(figure1_file)]) == 0
        out = capsys.readouterr().out
        assert "ts: number" in out

    def test_json_output_to_file(self, figure1_file, tmp_path):
        target = tmp_path / "schema.json"
        code = main(
            [
                "discover",
                str(figure1_file),
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        document = json.loads(target.read_text())
        assert "$schema" in document

    def test_algorithm_selection(self, figure1_file, capsys):
        assert main(
            ["discover", str(figure1_file), "--algorithm", "k-reduce"]
        ) == 0
        out = capsys.readouterr().out
        assert "files?" in out  # K-reduce makes files optional

    @pytest.mark.parametrize("algorithm", ["bimax-merge", "bimax-naive"])
    def test_every_route_prints_the_state_core_schema(
        self, algorithm, tmp_path, capsys
    ):
        lines = open(LOCAL_VS_GLOBAL, encoding="utf-8").readlines()
        head = tmp_path / "head.jsonl"
        tail = tmp_path / "tail.jsonl"
        head.write_text(lines[0])
        tail.write_text("".join(lines[1:]))
        ckpt = tmp_path / "head.state"
        assert main(
            ["discover", str(head), "--algorithm", algorithm,
             "--checkpoint", str(ckpt)]
        ) == 0
        capsys.readouterr()
        routes = [
            [LOCAL_VS_GLOBAL],
            [LOCAL_VS_GLOBAL, "--ingest", "fused"],
            [LOCAL_VS_GLOBAL, "--shards", "2"],
            [LOCAL_VS_GLOBAL, "--checkpoint", str(tmp_path / "c.state")],
            ["--resume", "--checkpoint", str(ckpt), "--append", str(tail)],
        ]
        printed = set()
        for route in routes:
            argv = ["discover", *route, "--format", "json"]
            if "--resume" not in route:
                argv += ["--algorithm", algorithm]
            assert main(argv) == 0
            printed.add(capsys.readouterr().out)
        assert len(printed) == 1
        state = state_for_algorithm(algorithm)
        state.absorb_many(load_jsonlines(LOCAL_VS_GLOBAL))
        expected = json.dumps(
            to_json_schema(state.synthesize()), indent=2, sort_keys=True
        )
        assert printed == {expected + "\n"}

    def test_empty_input_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["discover", str(path)]) == 2


class TestValidate:
    def test_accepts_training_data(self, figure1_file, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        main(
            [
                "discover",
                str(figure1_file),
                "--format",
                "json",
                "--output",
                str(schema_path),
            ]
        )
        code = main(["validate", str(schema_path), str(figure1_file)])
        assert code == 0
        assert "recall 1.0000" in capsys.readouterr().out

    def test_rejections_reported_and_explained(
        self, figure1_file, tmp_path, capsys
    ):
        schema_path = tmp_path / "schema.json"
        main(
            [
                "discover",
                str(figure1_file),
                "--format",
                "json",
                "--output",
                str(schema_path),
            ]
        )
        bad_path = tmp_path / "bad.jsonl"
        write_jsonlines(bad_path, [{"ts": 1, "event": "x", "weird": 1}])
        code = main(
            ["validate", str(schema_path), str(bad_path), "--explain", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "1 rejected" in out
        assert "record 0:" in out


class TestOtherCommands:
    def test_generate(self, tmp_path, capsys):
        target = tmp_path / "data.jsonl"
        code = main(
            ["generate", "figure1", str(target), "--records", "25"]
        )
        assert code == 0
        assert "wrote 25 records" in capsys.readouterr().out

    def test_entropy(self, figure1_file, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        main(
            [
                "discover",
                str(figure1_file),
                "--format",
                "json",
                "--output",
                str(schema_path),
            ]
        )
        assert main(["entropy", str(schema_path)]) == 0
        float(capsys.readouterr().out)

    def test_lists(self, capsys):
        assert main(["datasets"]) == 0
        assert "github" in capsys.readouterr().out
        assert main(["algorithms"]) == 0
        assert "bimax-merge" in capsys.readouterr().out

    def test_import_leaves_numpy_unloaded(self):
        """Only the k-means entity strategy needs numpy; the CLI must
        not pay for importing it at start-up."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        probe = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, repro.cli; print('numpy' in sys.modules)",
            ],
            env=env, capture_output=True, text=True, check=True,
        )
        assert probe.stdout.strip() == "False"


class TestDiscoverSharded:
    @pytest.fixture
    def corpus(self, tmp_path, figure1_records):
        path = tmp_path / "corpus.jsonl"
        write_jsonlines(path, figure1_records * 60)
        return path

    def test_sharded_matches_serial_state_and_schema(
        self, corpus, tmp_path
    ):
        """The route matrix: for every algorithm, both readers with and
        without ``--shards 2``, and a head checkpoint resumed with
        ``--append tail``, print identical bytes and checkpoint
        identical states."""
        lines = corpus.read_text().splitlines(keepends=True)
        head = tmp_path / "head.jsonl"
        tail = tmp_path / "tail.jsonl"
        head.write_text("".join(lines[: len(lines) // 3]))
        tail.write_text("".join(lines[len(lines) // 3:]))
        for algorithm in ("jxplain", *discoverer_names()):
            outputs = {}
            states = {}
            for ingest in ("classic", "fused"):
                for shards in ([], ["--shards", "2"]):
                    route = f"{algorithm}-{ingest}-{len(shards)}"
                    state = tmp_path / f"{route}.state"
                    out = tmp_path / f"{route}.out"
                    assert main(
                        [
                            "discover", str(corpus),
                            "--algorithm", algorithm,
                            "--ingest", ingest, *shards,
                            "--format", "json",
                            "--checkpoint", str(state),
                            "--output", str(out),
                        ]
                    ) == 0
                    outputs[route] = out.read_text()
                    states[route] = state.read_bytes()
                    # Per-shard scratch is cleaned up after the merged
                    # checkpoint.
                    assert not (tmp_path / f"{route}.state.shards").exists()
            ckpt = tmp_path / f"{algorithm}-append.state"
            out = tmp_path / f"{algorithm}-append.out"
            assert main(
                [
                    "discover", str(head), "--algorithm", algorithm,
                    "--checkpoint", str(ckpt),
                    "--output", str(tmp_path / f"{algorithm}-head.out"),
                ]
            ) == 0
            assert main(
                [
                    "discover", "--resume", "--checkpoint", str(ckpt),
                    "--append", str(tail), "--format", "json",
                    "--output", str(out),
                ]
            ) == 0
            outputs["append"] = out.read_text()
            states["append"] = ckpt.read_bytes()
            assert len(set(outputs.values())) == 1, (algorithm, outputs)
            assert len(set(states.values())) == 1, algorithm

    def test_sharded_resume_append(self, corpus, tmp_path, figure1_records):
        extra = tmp_path / "extra.jsonl"
        write_jsonlines(extra, figure1_records * 15)
        ckpt = tmp_path / "inc.state"
        assert main(
            [
                "discover", str(corpus), "--shards", "auto",
                "--checkpoint", str(ckpt),
                "--output", str(tmp_path / "first.out"),
            ]
        ) == 0
        assert main(
            [
                "discover", "--resume", "--shards", "auto",
                "--append", str(extra),
                "--checkpoint", str(ckpt),
                "--output", str(tmp_path / "second.out"),
            ]
        ) == 0
        # Equivalent one-shot run over both files, unsharded.
        ref = tmp_path / "ref.state"
        assert main(
            [
                "discover", str(corpus), "--append", str(extra),
                "--ingest", "fused", "--algorithm", "bimax-merge",
                "--checkpoint", str(ref),
                "--output", str(tmp_path / "ref.out"),
            ]
        ) == 0
        assert ckpt.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "damaged", ["manifest.json", "shard-00000.report.json"]
    )
    def test_damaged_shard_checkpoint_exits_2(
        self, corpus, tmp_path, capsys, damaged
    ):
        """A killed ``--shards --checkpoint`` run leaves per-shard files
        under ``CHECKPOINT.shards/``; a rerun over a damaged one fails
        with one ``error:`` line and rc 2."""
        from repro.engine.sharding import fold_files, shard_checkpoint_dir

        ckpt = tmp_path / "run.state"
        # The shard checkpoints the CLI's own run leaves before commit.
        fold_files(
            state_for_algorithm("bimax-merge"), [str(corpus)],
            ingest="classic", on_bad_record="raise", shards=2,
            checkpoint=str(ckpt),
        )
        shard_dir = shard_checkpoint_dir(str(ckpt), str(corpus))
        with open(os.path.join(shard_dir, damaged), "wb") as handle:
            handle.write(b"\xff not json")
        capsys.readouterr()
        assert main(
            [
                "discover", str(corpus), "--shards", "2", "--workers", "2",
                "--checkpoint", str(ckpt),
            ]
        ) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and damaged in err[0]

    def test_workers_without_shards_errors(self, corpus, capsys):
        assert main(["discover", str(corpus), "--workers", "2"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_bad_shard_count_errors(self, corpus, capsys):
        with pytest.raises(SystemExit):
            main(["discover", str(corpus), "--shards", "zero"])
        assert "--shards" in capsys.readouterr().err
