"""The staged three-pass JXPLAIN pipeline (Section 4.2, Figure 3).

Pass ① folds a :class:`~repro.discovery.stat_tree.StatTree` over the
records and derives collection/tuple designations per path.  Pass ②
collects the distinct key-sets (objects) and lengths (arrays) at every
tuple-designated path and compiles them — via the configured Bimax
strategy — into deterministic :class:`EntityPartitioner`\\ s.  Pass ③
synthesizes the schema; with the heuristic answers fixed it is an
associative fold (:mod:`repro.discovery.fold`).

Both entry points are thin layers over the state core
(:class:`~repro.discovery.state.JxplainState`): :meth:`JxplainPipeline.run`
types in-memory records into a :class:`~repro.jsontypes.bag.CountedBag`
and :meth:`JxplainPipeline.run_file` reads files through the same
kernel as the CLI (:func:`repro.engine.sharding.fold_files`); both then
run the three passes with
:meth:`~repro.discovery.state.JxplainState.synthesize_result`, each
pass timed (:class:`~repro.engine.StageTimer`) under its Figure 3
stage name, which is what the Table 5 runtime bench measures.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union as TUnion

from repro.discovery.base import Discoverer, register_discoverer
from repro.discovery.config import FeatureMode, JxplainConfig, RobustnessConfig
from repro.discovery.jxplain import cluster_key_sets
from repro.discovery.stat_tree import CollectionDecisions
from repro.engine.executor import resolve_executor
from repro.engine.instrument import StageTimer, counters
from repro.entities.partitioner import EntityPartitioner
from repro.errors import EmptyInputError
from repro.heuristics.collection import Designation
from repro.jsontypes.kinds import Kind
from repro.jsontypes.paths import Path, ROOT, STAR
from repro.jsontypes.types import (
    ArrayType,
    JsonType,
    JsonValue,
    ObjectType,
    PrimitiveType,
    type_of,
)
from repro.schema.nodes import Schema


class FeatureExtractor:
    """Computes record feature vectors under global pass-① decisions.

    In ``PATHS`` mode a record's features are all of its paths, pruned
    beneath paths the decisions designate as collections (the §6.4
    optimisation); in ``KEYS`` mode, just the top-level key set.
    Relative collection-path sets are cached per base path.
    """

    def __init__(
        self, decisions: CollectionDecisions, config: JxplainConfig
    ):
        self._decisions = decisions
        self._config = config
        self._cache: Dict[Path, frozenset] = {}

    def relative_collections(self, base: Path) -> frozenset:
        """Collection paths beneath ``base``, relative to it."""
        cached = self._cache.get(base)
        if cached is None:
            offset = len(base)
            cached = frozenset(
                path[offset:]
                for (path, _kind), designation in self._decisions.items()
                if designation is Designation.COLLECTION
                and len(path) > offset
                and path[:offset] == base
            )
            self._cache[base] = cached
        return cached

    def features(self, tau: ObjectType, base: Path) -> frozenset:
        if self._config.feature_mode is FeatureMode.KEYS:
            return tau.key_set()
        from repro.entities.features import type_paths

        return type_paths(
            tau,
            collection_paths=self.relative_collections(base),
            prune_nested=True,
        )


def _deterministic_feature_order(feature_sets: Set[frozenset]) -> List[frozenset]:
    """Stable ordering of feature sets (sets iterate hash-ordered)."""
    return sorted(
        feature_sets,
        key=lambda fs: (len(fs), tuple(sorted(repr(f) for f in fs))),
    )


@dataclass
class TupleShapes:
    """Pass ②'s accumulator: observed shapes at tuple-designated paths.

    Only set unions, so a repeated (type, path) adds nothing.
    """

    object_features: Dict[Path, Set[frozenset]] = field(default_factory=dict)
    array_lengths: Dict[Path, Set[int]] = field(default_factory=dict)

    def add(
        self,
        tau: JsonType,
        decisions: CollectionDecisions,
        extractor: FeatureExtractor,
    ) -> None:
        self.add_all((tau,), decisions, extractor)

    def add_all(
        self,
        types: Iterable[JsonType],
        decisions: CollectionDecisions,
        extractor: FeatureExtractor,
        features: Optional[Dict[tuple, frozenset]] = None,
    ) -> None:
        """Fold a bag's types in, visiting each (type, path) once.

        The accumulator only takes set unions, so a repeated (type,
        path) adds nothing.  ``features``, when given, receives the
        features of every tuple-designated object keyed by ``(type,
        path)``, for pass ③ to reuse.
        """
        seen: Set[tuple] = set()
        if features is None:
            features = {}
        for tau in types:
            self._walk(tau, ROOT, decisions, extractor, seen, features)

    def _walk(
        self,
        tau: JsonType,
        path: Path,
        decisions: CollectionDecisions,
        extractor: FeatureExtractor,
        seen: Set[tuple],
        features: Dict[tuple, frozenset],
    ) -> None:
        if isinstance(tau, PrimitiveType):
            return
        key = (tau, path)
        if key in seen:
            return
        seen.add(key)
        if isinstance(tau, ObjectType):
            designation = decisions.get((path, Kind.OBJECT))
            if designation is Designation.COLLECTION:
                child_path = path + (STAR,)
                for _, value in tau.items():
                    self._walk(
                        value, child_path, decisions, extractor, seen, features
                    )
            else:
                object_features = features.get(key)
                if object_features is None:
                    object_features = features[key] = extractor.features(
                        tau, path
                    )
                self.object_features.setdefault(path, set()).add(
                    object_features
                )
                for name, value in tau.items():
                    self._walk(
                        value, path + (name,), decisions, extractor, seen,
                        features,
                    )
        elif isinstance(tau, ArrayType):
            designation = decisions.get((path, Kind.ARRAY))
            if designation is Designation.TUPLE:
                self.array_lengths.setdefault(path, set()).add(len(tau))
                for index, value in enumerate(tau.elements):
                    self._walk(
                        value, path + (index,), decisions, extractor, seen,
                        features,
                    )
            else:
                child_path = path + (STAR,)
                for value in tau.elements:
                    self._walk(
                        value, child_path, decisions, extractor, seen, features
                    )


def _compile_partitioner(task):
    """Cluster one path's key-sets into an :class:`EntityPartitioner`.

    Module-level (and fed fully picklable tasks) so the process
    executor backend can ship it to workers.
    """
    path, key_sets, config = task
    return path, EntityPartitioner(cluster_key_sets(key_sets, config))


def build_partitioners(
    shapes: TupleShapes, config: JxplainConfig, executor=None
) -> "tuple[Dict[Path, EntityPartitioner], Dict[Path, EntityPartitioner]]":
    """Compile pass ②'s shapes into per-path entity partitioners.

    Each tuple-designated path clusters independently — this is the
    embarrassingly parallel core of entity discovery — so the per-path
    Bimax/GreedyMerge runs fan out over ``executor`` (an
    :class:`~repro.engine.executor.Executor` or spec string) when one
    is given.  Results keep path order, so the output is identical to
    the serial loop.
    """
    object_tasks = [
        (path, _deterministic_feature_order(feature_sets), config)
        for path, feature_sets in shapes.object_features.items()
    ]
    array_tasks = [
        (
            path,
            [
                frozenset(str(i) for i in range(length))
                for length in sorted(lengths)
            ],
            config,
        )
        for path, lengths in shapes.array_lengths.items()
    ]
    tasks = object_tasks + array_tasks
    backend = resolve_executor(executor) if executor is not None else None
    if backend is None or len(tasks) <= 1:
        compiled = [_compile_partitioner(task) for task in tasks]
    else:
        counters.add("pipeline.partitioner_fanouts")
        compiled = backend.map_list(_compile_partitioner, tasks)
    object_partitioners = dict(compiled[: len(object_tasks)])
    array_partitioners = dict(compiled[len(object_tasks):])
    return object_partitioners, array_partitioners


@dataclass
class PipelineResult:
    """Everything the staged pipeline produced."""

    schema: Schema
    decisions: CollectionDecisions
    object_partitioners: Dict[Path, EntityPartitioner]
    array_partitioners: Dict[Path, EntityPartitioner]
    timer: StageTimer
    record_count: int
    #: Per-file ingestion account when the run came from
    #: :meth:`JxplainPipeline.run_file`; None for in-memory input.
    ingest_report: Optional[object] = None
    #: The checkpointable :class:`~repro.discovery.state.JxplainState`
    #: a :meth:`JxplainPipeline.run_file` folded; None for :meth:`run`.
    state: Optional[object] = None

    @property
    def collection_paths(self) -> frozenset:
        return frozenset(
            path
            for (path, _), designation in self.decisions.items()
            if designation is Designation.COLLECTION
        )


class JxplainPipeline(Discoverer):
    """The distributable JXPLAIN of Section 4.2 (Figure 3), as a thin
    layer over :class:`~repro.discovery.state.JxplainState`."""

    name = "jxplain-pipeline"

    def __init__(
        self,
        config: Optional[JxplainConfig] = None,
        *,
        num_partitions: int = 4,
        heuristic_sample: Optional[float] = None,
        sample_seed: int = 0,
        executor=None,
        robustness: Optional[RobustnessConfig] = None,
        ingest: str = "classic",
        shards=None,
        merge_fanin: Optional[int] = None,
        enrich=None,
    ):
        """``heuristic_sample`` enables §4.2's sampling mitigation:
        passes ① and ② run on a Bernoulli sample of that fraction,
        while pass ③ still synthesizes over the full data.  Paths that
        only occur outside the sample fall back to the
        data-independent defaults (objects tuple, arrays collection).
        The sample is :func:`~repro.io.sampling.partitioned_bernoulli_sample`
        over ``num_partitions`` round-robin slices seeded by
        ``sample_seed``; ``num_partitions`` affects nothing else.

        ``executor`` selects the engine backend (an
        :class:`~repro.engine.Executor` or a spec string like
        ``"threads:4"``): :meth:`run` fans pass ②'s per-path entity
        clustering out over it, and a sharded :meth:`run_file` its
        shard tasks.

        ``robustness`` installs the DESIGN.md §8 failure model: its
        retry policy supervises every task fanned out over that
        executor, and its ``on_bad_record`` policy governs
        :meth:`run_file` ingestion.

        ``ingest``, ``shards``, ``merge_fanin`` and ``enrich`` only
        affect :meth:`run_file`.  ``ingest`` picks its reader:
        ``"classic"`` parses values, ``"fused"`` streams interned
        record types via :mod:`repro.io.fastpath`; the bytes are the
        same.  ``shards`` fans each file out over newline-aligned byte
        ranges (:mod:`repro.engine.sharding`): ``"auto"`` sizes the
        shard count adaptively, an integer fixes it, and ``None``
        (default) folds in process; workers ship serialized state
        partials, merged with fan-in ``merge_fanin``, byte-identical
        to an unsharded run.  ``enrich`` (an ``--enrich`` spec string
        or :class:`~repro.discovery.sketches.EnrichmentOptions`) makes
        :meth:`run_file` collect the value-domain sidecar alongside
        the structural statistics, which it leaves unchanged.  On
        resume, the checkpoint's own enrichment (or its absence)
        governs, like its config.
        """
        from repro.discovery.sketches import parse_enrich_spec
        from repro.io.jsonlines import _check_ingest_mode

        self.config = config or JxplainConfig()
        self.config.validate()
        _check_ingest_mode(ingest)
        self.ingest = ingest
        self.enrich = parse_enrich_spec(enrich)
        if shards is not None and shards != "auto":
            if not isinstance(shards, int) or shards < 1:
                raise ValueError(
                    "shards must be None, 'auto', or a positive int"
                )
        self.shards = shards
        self.merge_fanin = merge_fanin
        if num_partitions < 1:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        if heuristic_sample is not None and not 0.0 < heuristic_sample <= 1.0:
            raise ValueError("heuristic_sample must be in (0, 1]")
        self.heuristic_sample = heuristic_sample
        self.sample_seed = sample_seed
        self.executor = executor
        if robustness is not None:
            robustness.validate()
        self.robustness = robustness

    # -- the three passes ------------------------------------------------------

    @contextmanager
    def _backend(self):
        """The executor :meth:`run` and :meth:`run_file` hand out: the
        configured backend under the robustness retry policy.  One
        built here (from a spec string, or to install the policy) is
        closed afterwards."""
        executor = resolve_executor(self.executor)
        owned = isinstance(self.executor, str)
        policy = (
            self.robustness.retry_policy()
            if self.robustness is not None
            else None
        )
        if policy is not None:
            executor = executor.with_retry(policy)
            owned = True
        try:
            yield executor
        finally:
            if owned:
                executor.close()

    def run(
        self, values: Iterable[TUnion[JsonType, JsonValue]]
    ) -> PipelineResult:
        """Run all three passes and return schema + diagnostics.

        ``values`` are JSON values or already-typed records.  They are
        typed into a :class:`~repro.jsontypes.bag.CountedBag`, folded
        into a :class:`~repro.discovery.state.JxplainState`, and
        synthesized by its
        :meth:`~repro.discovery.state.JxplainState.synthesize_result`.
        """
        from repro.discovery.state import JxplainState
        from repro.io.sampling import partitioned_bernoulli_sample
        from repro.jsontypes.bag import CountedBag

        timer = StageTimer()
        with timer.stage("parse"):
            types = [self._ensure_type(value) for value in values]
            bag = CountedBag.from_types(types)
        if not bag:
            raise EmptyInputError("pipeline: no input records")
        sample = []
        if self.heuristic_sample is not None and self.heuristic_sample < 1.0:
            sample = partitioned_bernoulli_sample(
                types, self.heuristic_sample, self.sample_seed,
                self.num_partitions,
            )
        with timer.stage("pass1-collections"):
            if sample:
                heuristics = JxplainState.from_bag(
                    CountedBag.from_types(sample), self.config
                )
                # Passes ①–② read the sample's statistics; pass ③ only
                # the full bag, so the full stat tree is never built.
                state = JxplainState(self.config)
                state.bag = bag
            else:
                # No sample, or an empty one: the heuristics see it all.
                heuristics = None
                state = JxplainState.from_bag(bag, self.config)
        with self._backend() as executor:
            (
                schema,
                decisions,
                object_partitioners,
                array_partitioners,
            ) = state.synthesize_result(
                heuristics, timer=timer, executor=executor
            )
        return PipelineResult(
            schema=schema,
            decisions=decisions,
            object_partitioners=object_partitioners,
            array_partitioners=array_partitioners,
            timer=timer,
            record_count=state.record_count,
        )

    def run_file(
        self,
        path=None,
        *,
        checkpoint=None,
        resume: bool = False,
        append: Sequence = (),
    ) -> PipelineResult:
        """Discover the schema of ``.jsonl`` input through the state core.

        ``path`` and then the ``append`` files are folded, in order,
        into a :class:`~repro.discovery.state.JxplainState` by
        :func:`~repro.engine.sharding.fold_files` — in process, or
        sharded when ``shards`` is set — read under the robustness
        config's ``on_bad_record`` policy (``raise`` when no config is
        set).  Passes ①–③ then run over the state's statistics
        (byte-identical to :meth:`run` over the same records).  The
        :class:`~repro.io.jsonlines.IngestReport` (a list for several
        files) and the state ride along on the :class:`PipelineResult`.

        ``checkpoint`` names a state file: after the run, the state is
        saved there (atomically).  With ``resume=True`` the run starts
        *from* that checkpoint instead of from scratch, and its
        configuration and enrichment govern.  Resume-then-append is
        equivalent to one-shot discovery over the concatenated input
        (property-tested), which is what makes checkpoints safe to
        chain.

        ``heuristic_sample`` only applies to :meth:`run`: the state
        core's pass ① sees every record, so a sampled ``run_file``
        raises :class:`ValueError`.
        """
        from repro.discovery.state import (
            JxplainState,
            load_state,
            state_for_algorithm,
        )
        from repro.engine.sharding import commit_checkpoint, fold_files

        if self.heuristic_sample is not None and self.heuristic_sample < 1.0:
            raise ValueError(
                "heuristic_sample applies to run() only; run_file folds "
                "every record into the state"
            )
        policy = (
            self.robustness.on_bad_record
            if self.robustness is not None
            else "raise"
        )
        sources = ([path] if path is not None else []) + list(append)
        if resume:
            if checkpoint is None:
                raise ValueError("resume=True requires a checkpoint path")
            state = load_state(checkpoint)
            if not isinstance(state, JxplainState):
                from repro.errors import CheckpointError

                raise CheckpointError(
                    f"checkpoint holds a {state.algorithm!r} state; "
                    "the pipeline resumes jxplain states only"
                )
            # The checkpoint's configuration is part of the meaning of
            # the accumulated evidence.
            self.config = state.config
        elif not sources:
            raise ValueError("run_file needs an input path (or resume=True)")
        else:
            state = state_for_algorithm(
                "jxplain", self.config, enrich=self.enrich
            )
        timer = StageTimer()
        with self._backend() as executor:
            state, reports = fold_files(
                state,
                sources,
                ingest=self.ingest,
                on_bad_record=policy,
                shards=self.shards,
                executor=executor,
                merge_fanin=self.merge_fanin,
                checkpoint=checkpoint,
                timer=timer,
            )
        with timer.stage("synthesis"):
            (
                schema,
                decisions,
                object_partitioners,
                array_partitioners,
            ) = state.synthesize_result()
        if checkpoint is not None:
            commit_checkpoint(state, checkpoint, sources)
        return PipelineResult(
            schema=schema,
            decisions=decisions,
            object_partitioners=object_partitioners,
            array_partitioners=array_partitioners,
            timer=timer,
            record_count=state.record_count,
            ingest_report=(
                reports[0] if len(reports) == 1 else (reports or None)
            ),
            state=state,
        )

    @staticmethod
    def _ensure_type(record: TUnion[JsonType, JsonValue]) -> JsonType:
        if isinstance(record, JsonType):
            return record
        return type_of(record)

    # -- Discoverer interface ------------------------------------------------------

    def merge_types(self, types: Iterable[JsonType]) -> Schema:
        return self.run(types).schema

    def discover(self, values: Iterable[JsonValue]) -> Schema:
        return self.run(values).schema


# The partitioned pipeline is a first-class discoverer: registering it
# here lets any registry sweep instantiate it by name.
register_discoverer(JxplainPipeline.name, JxplainPipeline)
