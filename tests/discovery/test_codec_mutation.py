"""Damaged state payloads fail typed.

``DiscoveryState.from_bytes`` decodes inside one boundary
(:meth:`~repro.discovery.codec.Decoder.boundary`): whatever a damaged
payload makes a reader or a constructor raise leaves as a
:class:`~repro.errors.StateCodecError`, and ``discover --resume`` on a
damaged checkpoint exits 2 with one ``error:`` line.  The mutation
sweep is derandomized, so a failure reproduces from the log alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.discovery.sketches import EnrichmentOptions
from repro.discovery.state import DiscoveryState, state_for_algorithm
from repro.errors import StateCodecError
from repro.io.jsonlines import write_jsonlines

ALGORITHMS = ("l-reduce", "k-reduce", "jxplain")
ENRICHMENTS = (None, "sketches,unions")


def _records():
    records = []
    for index in range(24):
        records.append(
            {
                "id": index,
                "kind": "push" if index % 3 else "watch",
                "repo": {"name": f"repo-{index % 5}", "stars": index * 7},
                "tags": [f"t{j}" for j in range(index % 4)],
                "counts": {f"k{(index * 5 + j) % 13}": j for j in range(4)},
                "when": "2021-06-0%dT12:00:00Z" % (1 + index % 9),
            }
        )
    return records


def _blob(algorithm, enrich):
    state = state_for_algorithm(algorithm, enrich=enrich)
    state.absorb_many(_records())
    return state.to_bytes()


BLOBS = {
    (algorithm, enrich): _blob(algorithm, enrich)
    for algorithm in ALGORITHMS
    for enrich in ENRICHMENTS
}

#: 1-4 byte overwrites at arbitrary positions (taken modulo the size).
edits = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


def _mutate(blob: bytes, changes) -> bytes:
    mutated = bytearray(blob)
    for position, value in changes:
        mutated[position % len(mutated)] = value
    return bytes(mutated)


@pytest.mark.parametrize("enrich", ENRICHMENTS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@given(changes=edits)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_every_decode_failure_is_typed(algorithm, enrich, changes):
    payload = _mutate(BLOBS[(algorithm, enrich)], changes)
    try:
        DiscoveryState.from_bytes(payload)
    except StateCodecError:
        pass


def _corrupt_key(blob: bytes) -> bytes:
    """Overwrite the first byte of a key string with invalid UTF-8."""
    at = blob.index(b"repo")
    return blob[:at] + b"\xff" + blob[at + 1:]


def test_failure_names_the_byte_offset():
    blob = BLOBS[("jxplain", None)]
    with pytest.raises(StateCodecError, match=r"at byte \d+") as caught:
        DiscoveryState.from_bytes(_corrupt_key(blob))
    assert isinstance(caught.value.__cause__, UnicodeDecodeError)


def test_subclass_decoding_shares_the_boundary():
    from repro.discovery.state import JxplainState

    with pytest.raises(StateCodecError):
        JxplainState.from_bytes(_corrupt_key(BLOBS[("jxplain", None)]))


class TestResumeOnDamagedCheckpoint:
    def test_exits_2_with_one_error_line(self, tmp_path, capsys):
        corpus = tmp_path / "head.jsonl"
        write_jsonlines(corpus, _records())
        checkpoint = tmp_path / "head.state"
        assert main(
            [
                "discover", str(corpus), "--checkpoint", str(checkpoint),
                "--output", str(tmp_path / "schema.json"),
            ]
        ) == 0
        checkpoint.write_bytes(_corrupt_key(checkpoint.read_bytes()))
        capsys.readouterr()
        assert main(
            [
                "discover", "--resume", "--checkpoint", str(checkpoint),
                "--append", str(corpus),
            ]
        ) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "Traceback" not in captured.err


def _forge_geometry(blob: bytes, **geometry) -> bytes:
    """Re-encode a sketched state with one path bundle's sketch
    geometry overwritten (``hashes``/``size`` on the Bloom filter,
    ``precision`` on the HLL)."""
    state = DiscoveryState.from_bytes(blob)
    bundle = next(iter(state.enrichment.paths.values()))
    for name, value in geometry.items():
        target = bundle.cardinality if name == "precision" else bundle.members
        setattr(target, name, value)
    return state.to_bytes()


class TestForgedSketchGeometry:
    """A checkpoint may not declare sketch geometry its own options
    do not: every later absorb pays ``hashes`` probes per value."""

    @pytest.mark.parametrize(
        "geometry",
        [
            {"hashes": 4_000_000},
            {"hashes": 2**40},
            {"hashes": 5},
            {"precision": 9},
        ],
        ids=["hashes-4M", "hashes-2^40", "hashes-5", "hll-precision"],
    )
    def test_decode_rejects_bundle_geometry(self, geometry):
        blob = _forge_geometry(BLOBS[("jxplain", "sketches,unions")], **geometry)
        with pytest.raises(StateCodecError):
            DiscoveryState.from_bytes(blob)

    @pytest.mark.parametrize(
        "options",
        [
            {"bloom_hashes": 1025},
            {"bloom_bits": 1 << 24},
            {"bloom_bits": 1 << 16, "bloom_hashes": 1 << 16},
        ],
        ids=["hashes-above-bits", "bits-above-ceiling", "hashes-above-ceiling"],
    )
    def test_options_have_upper_bounds(self, options):
        with pytest.raises(ValueError):
            EnrichmentOptions(**options).validate()

    def test_decode_rejects_forged_options_block(self):
        """Options and bundles that agree on 65,536 hashes (each absorb
        ~5,000x the default cost) still fail to decode."""
        state = state_for_algorithm("jxplain", enrich="sketches")
        state.enrichment.options = EnrichmentOptions(
            bloom_bits=1 << 16, bloom_hashes=1 << 16
        )
        with pytest.raises(StateCodecError):
            DiscoveryState.from_bytes(state.to_bytes())

    def test_resume_append_exits_2_with_one_error_line(
        self, tmp_path, capsys
    ):
        corpus = tmp_path / "head.jsonl"
        write_jsonlines(corpus, _records())
        checkpoint = tmp_path / "head.state"
        assert main(
            [
                "discover", str(corpus), "--enrich", "sketches",
                "--checkpoint", str(checkpoint),
                "--output", str(tmp_path / "schema.json"),
            ]
        ) == 0
        checkpoint.write_bytes(
            _forge_geometry(checkpoint.read_bytes(), hashes=4_000_000)
        )
        capsys.readouterr()
        assert main(
            [
                "discover", "--resume", "--checkpoint", str(checkpoint),
                "--append", str(corpus),
            ]
        ) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "Traceback" not in captured.err
