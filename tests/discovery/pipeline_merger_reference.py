"""Reference forms of the staged pipeline (Figure 3), kept as test oracles.

The product (:meth:`repro.discovery.state.JxplainState.synthesize_result`,
behind :class:`~repro.discovery.pipeline.JxplainPipeline`) runs the
three passes once per distinct (type, path) over one counted bag.  This
module keeps the two forms it replaced, so the suite can check that
the state core changes nothing:

* :class:`PipelineMerger` — pass ③ as Algorithm 4's recursive merger
  with its heuristics replaced by the pass ①/② answers; the oracle of
  the associative fold;
* :func:`partitioned_pipeline` — the three passes as per-record
  aggregations over :class:`~tests.engine.dataset_reference.LocalDataset`
  partitions, the Spark-shaped form of the paper, sampled per partition
  for §4.2's heuristic sample.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.discovery.config import JxplainConfig
from repro.discovery.fold import DecidedFolder, FoldNode
from repro.discovery.jxplain import JxplainMerger
from repro.discovery.pipeline import (
    FeatureExtractor,
    TupleShapes,
    build_partitioners,
)
from repro.discovery.stat_tree import (
    CollectionDecisions,
    StatTree,
    decide_collections,
)
from repro.entities.partitioner import EntityPartitioner
from repro.errors import EmptyInputError
from repro.heuristics.collection import CollectionEvidence, Designation
from repro.jsontypes.kinds import Kind
from repro.jsontypes.paths import Path
from repro.jsontypes.types import ArrayType, JsonType, ObjectType, type_of
from tests.engine.dataset_reference import DEFAULT_PARTITIONS, LocalDataset


class PipelineMerger(JxplainMerger):
    """Algorithm 4 with the heuristics replaced by pass ①/② lookups.

    Unseen paths fall back to the local heuristics.
    """

    def __init__(
        self,
        config: JxplainConfig,
        decisions: CollectionDecisions,
        object_partitioners: Dict[Path, EntityPartitioner],
        array_partitioners: Dict[Path, EntityPartitioner],
        extractor: Optional[FeatureExtractor] = None,
    ):
        super().__init__(config)
        self._decisions = decisions
        self._object_partitioners = object_partitioners
        self._array_partitioners = array_partitioners
        self._extractor = extractor or FeatureExtractor(decisions, config)

    def is_collection(
        self, kind: Kind, evidence: CollectionEvidence, path: Path
    ) -> bool:
        designation = self._decisions.get((path, kind))
        if designation is None:
            return super().is_collection(kind, evidence, path)
        return designation is Designation.COLLECTION

    def partition_objects(
        self,
        objects: Sequence[ObjectType],
        path: Path,
        counts: Optional[Sequence[int]] = None,
    ) -> List[List[ObjectType]]:
        partitioner = self._object_partitioners.get(path)
        if partitioner is None:
            return super().partition_objects(objects, path, counts=counts)
        features = [
            self._extractor.features(tau, path) for tau in objects
        ]
        return partitioner.non_empty_groups(list(objects), features)

    def partition_arrays(
        self,
        arrays: Sequence[ArrayType],
        path: Path,
        counts: Optional[Sequence[int]] = None,
    ) -> List[List[ArrayType]]:
        partitioner = self._array_partitioners.get(path)
        if partitioner is None:
            return super().partition_arrays(arrays, path, counts=counts)
        key_sets = [
            frozenset(str(i) for i in range(len(tau))) for tau in arrays
        ]
        return partitioner.non_empty_groups(list(arrays), key_sets)


# Module-level task bodies, so the process backend ships them.

def _ensure_type(record) -> JsonType:
    return record if isinstance(record, JsonType) else type_of(record)


def _stat_add(tree: StatTree, tau: JsonType) -> StatTree:
    tree.add(tau)
    return tree


def _shape_add(shapes: TupleShapes, tau: JsonType, decisions, extractor):
    shapes.add(tau, decisions, extractor)
    return shapes


def merge_shapes(left: TupleShapes, right: TupleShapes) -> TupleShapes:
    """Pass ②'s combine: per-path set unions (associative)."""
    merged = TupleShapes()
    for source in (left, right):
        for path, feature_sets in source.object_features.items():
            merged.object_features.setdefault(path, set()).update(
                feature_sets
            )
        for path, lengths in source.array_lengths.items():
            merged.array_lengths.setdefault(path, set()).update(lengths)
    return merged


def _fold_add(node: FoldNode, tau: JsonType, folder: DecidedFolder):
    return folder.combine(node, folder.lift(tau))


def partitioned_pipeline(
    data,
    config: Optional[JxplainConfig] = None,
    *,
    num_partitions: int = DEFAULT_PARTITIONS,
    heuristic_sample: Optional[float] = None,
    sample_seed: int = 0,
    executor=None,
    merger: bool = False,
):
    """Passes ①–③ as per-record aggregations over dataset partitions.

    ``data`` is a :class:`LocalDataset` (which keeps its own layout and
    backend) or records, dealt round-robin into ``num_partitions``.
    Passes ①–② read a per-partition Bernoulli sample when
    ``heuristic_sample`` is below 1 (the full data when the sample is
    empty); pass ③ folds every record, through the associative fold or,
    with ``merger=True``, through :class:`PipelineMerger`.  Four
    scans unsampled: the typing map and one aggregation per pass.

    Returns ``(schema, decisions)``.
    """
    config = config or JxplainConfig()
    if isinstance(data, LocalDataset):
        dataset = data
    else:
        dataset = LocalDataset.from_records(
            list(data), num_partitions, executor=executor
        )
    if dataset.is_empty():
        raise EmptyInputError("pipeline: no input records")
    # Interning touches the module-level hash-cons table by design:
    # writes are idempotent canonical values and the stats counters
    # tolerate lost increments under threads.
    types = dataset.map(_ensure_type)  # repro-lint: disable=R9
    heuristic_types = types
    if heuristic_sample is not None and heuristic_sample < 1.0:
        sampled = types.sample(heuristic_sample, seed=sample_seed)
        if not sampled.is_empty():
            heuristic_types = sampled
    tree = heuristic_types.tree_aggregate(
        partial(StatTree, similarity_depth=config.similarity_depth),
        _stat_add,
        StatTree.merge,
    )
    decisions = decide_collections(tree, config)
    extractor = FeatureExtractor(decisions, config)
    shapes = heuristic_types.tree_aggregate(
        TupleShapes,
        partial(_shape_add, decisions=decisions, extractor=extractor),
        merge_shapes,
    )
    object_partitioners, array_partitioners = build_partitioners(
        shapes, config, executor=dataset.executor
    )
    if not merger:
        folder = DecidedFolder(
            decisions,
            object_partitioners,
            array_partitioners,
            config,
            extractor=extractor,
        )
        node = types.tree_aggregate(
            FoldNode, partial(_fold_add, folder=folder), folder.combine
        )
        return folder.schema(node), decisions
    merger = PipelineMerger(
        config,
        decisions,
        object_partitioners,
        array_partitioners,
        extractor=extractor,
    )
    return merger.merge(types.collect()), decisions
