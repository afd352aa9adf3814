"""Per-path statistics for JXPLAIN's pass ① (Section 4.2, Figure 3).

The simplified Algorithm 4 gathers collection-detection evidence at
every path *during* the recursive merge, which requires the whole bag
of types at each path and defeats distribution.  The staged pipeline
instead accumulates a :class:`StatTree` — one
:class:`~repro.heuristics.collection.CollectionEvidence` per path plus
per-child sub-trees — in a **single pass**.  Stat trees form a
commutative monoid under :meth:`StatTree.merge`, so a partitioned
dataset can build one per partition and fan them in.

Collection decisions are then derived **top-down** by
:func:`decide_collections`: when a path is ruled a collection, the
statistics of all of its children are merged into a single ``*`` child
(evidence merges associatively, which is why this is sound) before
recursing.  The result maps ``(path, kind)`` to a
:class:`~repro.heuristics.collection.Designation`.

The same walk powers the Figure 4 experiment: :func:`entropy_profile`
reports the key-space entropy of every complex-kinded path whose
nested elements pass the similarity constraint.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.discovery.config import JxplainConfig
from repro.heuristics.collection import (
    CollectionEvidence,
    Designation,
    decide_designation,
    sum_counters,
)
from repro.jsontypes.kinds import Kind
from repro.jsontypes.paths import Path, ROOT, STAR
from repro.jsontypes.types import ArrayType, JsonType, ObjectType, PrimitiveType

#: A collection decision key: the (generalized) path plus which of the
#: path's complex kinds the decision is about.
DecisionKey = Tuple[Path, Kind]

#: The decisions produced by pass ①.
CollectionDecisions = Dict[DecisionKey, Designation]


@dataclass
class StatTree:
    """Mergeable per-path statistics over a bag of record types.

    ``similarity_depth`` bounds the §5.2 similarity checks accumulated
    in the evidence (None = the paper's literal rule); it must match
    across merged trees.
    """

    primitive_kinds: Counter = field(default_factory=Counter)
    object_evidence: Optional[CollectionEvidence] = None
    array_evidence: Optional[CollectionEvidence] = None
    children: Dict[object, "StatTree"] = field(default_factory=dict)
    similarity_depth: Optional[int] = None

    def add(self, tau: JsonType, count: int = 1) -> None:
        """Fold one type (and its whole subtree) into the statistics.

        ``count`` folds ``count`` identical instances at once — the
        weighted form used by the counted-bag fast path; equivalent to
        ``count`` sequential ``add`` calls.
        """
        if isinstance(tau, PrimitiveType):
            self.primitive_kinds[tau.kind] += count
            return
        if isinstance(tau, ObjectType):
            if self.object_evidence is None:
                self.object_evidence = CollectionEvidence.with_depth(
                    Kind.OBJECT, self.similarity_depth
                )
            self.object_evidence.add(tau, count)
            for key, value in tau.items():
                child = self.children.get(key)
                if child is None:
                    child = self.children[key] = StatTree(
                        similarity_depth=self.similarity_depth
                    )
                child.add(value, count)
            return
        if isinstance(tau, ArrayType):
            if self.array_evidence is None:
                self.array_evidence = CollectionEvidence.with_depth(
                    Kind.ARRAY, self.similarity_depth
                )
            self.array_evidence.add(tau, count)
            for index, value in enumerate(tau.elements):
                child = self.children.get(index)
                if child is None:
                    child = self.children[index] = StatTree(
                        similarity_depth=self.similarity_depth
                    )
                child.add(value, count)
            return
        raise TypeError(f"not a JSON type: {tau!r}")

    def merge(self, other: "StatTree") -> "StatTree":
        """Combine two stat trees (associative, commutative)."""
        return merge_stat_trees([self, other])

    @classmethod
    def from_types(
        cls,
        types: Iterable[JsonType],
        similarity_depth: Optional[int] = None,
        counts: Optional[Iterable[int]] = None,
    ) -> "StatTree":
        """Build a tree from types, optionally weighted by ``counts``
        (aligned multiplicities, as produced by a counted bag)."""
        tree = cls(similarity_depth=similarity_depth)
        if counts is None:
            for tau in types:
                tree.add(tau)
        else:
            for tau, count in zip(types, counts):
                tree.add(tau, count)
        return tree

    def _object_children(self) -> Dict[str, "StatTree"]:
        return {
            step: child
            for step, child in self.children.items()
            if isinstance(step, str)
        }

    def _array_children(self) -> Dict[int, "StatTree"]:
        return {
            step: child
            for step, child in self.children.items()
            if isinstance(step, int)
        }


def merge_stat_trees(trees: Sequence[StatTree]) -> StatTree:
    """Merge one or more stat trees in one pass.

    Equal to the left fold ``trees[0].merge(trees[1]).merge(...)``:
    children are grouped by step across all inputs, a subtree only one
    input has is shared rather than copied, and evidence is summed in
    input order, so entropies and similarity checks see the fold's
    order.  A single tree is returned as is.
    """
    if len(trees) == 1:
        return trees[0]
    merged = StatTree(similarity_depth=trees[0].similarity_depth)
    merged.primitive_kinds = sum_counters(
        [tree.primitive_kinds for tree in trees]
    )
    merged.object_evidence = _merge_evidence(
        [tree.object_evidence for tree in trees]
    )
    merged.array_evidence = _merge_evidence(
        [tree.array_evidence for tree in trees]
    )
    groups: Dict[object, List[StatTree]] = {}
    for tree in trees:
        for step, child in tree.children.items():
            group = groups.get(step)
            if group is None:
                groups[step] = [child]
            else:
                group.append(child)
    merged.children = {
        step: merge_stat_trees(group) for step, group in groups.items()
    }
    return merged


def _merge_evidence(
    evidences: List[Optional[CollectionEvidence]],
) -> Optional[CollectionEvidence]:
    present = [evidence for evidence in evidences if evidence is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return CollectionEvidence.merge_all(present)


def decide_collections(
    tree: StatTree, config: Optional[JxplainConfig] = None
) -> CollectionDecisions:
    """Pass ①'s output: a Collection/Tuple designation per path.

    Decisions respect the configuration's detection toggles, so a
    pipeline configured like K-reduce designates every object a tuple
    and every array a collection.
    """
    config = config or JxplainConfig()
    decisions: CollectionDecisions = {}
    _decide_at(tree, ROOT, config, decisions)
    return decisions


def _designate(
    evidence: CollectionEvidence, kind: Kind, config: JxplainConfig
) -> Designation:
    if kind == Kind.OBJECT and not config.detect_object_collections:
        return Designation.TUPLE
    if kind == Kind.ARRAY and not config.detect_array_tuples:
        return Designation.COLLECTION
    return decide_designation(evidence, config.entropy_threshold)


def _decide_at(
    node: StatTree,
    path: Path,
    config: JxplainConfig,
    decisions: CollectionDecisions,
) -> None:
    star_children: List[StatTree] = []
    if node.object_evidence is not None:
        designation = _designate(node.object_evidence, Kind.OBJECT, config)
        decisions[(path, Kind.OBJECT)] = designation
        object_children = node._object_children()
        if designation is Designation.COLLECTION:
            star_children.extend(object_children.values())
        else:
            for key, child in object_children.items():
                _decide_at(child, path + (key,), config, decisions)
    if node.array_evidence is not None:
        designation = _designate(node.array_evidence, Kind.ARRAY, config)
        decisions[(path, Kind.ARRAY)] = designation
        array_children = node._array_children()
        if designation is Designation.COLLECTION:
            star_children.extend(array_children.values())
        else:
            for index, child in array_children.items():
                _decide_at(child, path + (index,), config, decisions)
    if star_children:
        merged = merge_stat_trees(star_children)
        _decide_at(merged, path + (STAR,), config, decisions)


def collection_paths(decisions: CollectionDecisions) -> frozenset:
    """The set of paths designated Collection for either kind."""
    return frozenset(
        path
        for (path, _kind), designation in decisions.items()
        if designation is Designation.COLLECTION
    )


@dataclass
class PathEntropy:
    """One point of Figure 4: a complex path and its key-space entropy."""

    path: Path
    kind: Kind
    entropy: float
    instances: int
    distinct_keys: int
    elements_similar: bool


def entropy_profile(
    tree: StatTree, *, similar_only: bool = True
) -> List[PathEntropy]:
    """Key-space entropies of every complex path (Figure 4).

    ``similar_only`` keeps only paths whose nested elements pass the
    similarity constraint, matching the figure's caption ("each point
    is one complex-kinded path with self-similar nested elements").
    """
    points: List[PathEntropy] = []

    def walk(node: StatTree, path: Path) -> None:
        for kind, evidence in (
            (Kind.OBJECT, node.object_evidence),
            (Kind.ARRAY, node.array_evidence),
        ):
            if evidence is None:
                continue
            if similar_only and not evidence.elements_similar:
                continue
            points.append(
                PathEntropy(
                    path=path,
                    kind=kind,
                    entropy=evidence.entropy,
                    instances=evidence.record_count,
                    distinct_keys=evidence.distinct_keys,
                    elements_similar=evidence.elements_similar,
                )
            )
        for step, child in node.children.items():
            walk(child, path + (step,))

    walk(tree, ROOT)
    return points
