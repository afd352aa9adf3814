"""The partitioned dataflow substrate, kept as a test oracle.

The paper implements both extractors on Apache Spark.  What the
algorithms need from Spark is narrow: partitioned record storage with
``map`` / ``filter`` / sampling, associative fan-in aggregation
(``aggregate`` / ``treeAggregate``), and a way to count passes over
the data, since JXPLAIN's overhead story (Table 5) is "it takes extra
passes".  :class:`LocalDataset` is that surface over in-memory
partitions.  Every full traversal ticks ``scans`` in the driver, so
pass counts are exact under any executor backend.

The product no longer runs on it: ``JxplainPipeline.run`` folds one
counted bag into the state core, whose aggregate is the same
init/absorb/merge/synthesize monoid.  It stays here as the reference
that the pipeline's §4.2 sample
(:func:`repro.io.sampling.partitioned_bernoulli_sample`) and its
Figure 3 passes (``tests.discovery.pipeline_merger_reference``) are
checked against.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Generic, Iterable, Iterator, List, Optional, TypeVar

from repro.engine.executor import Executor, resolve_executor
from repro.errors import EngineError

T = TypeVar("T")
U = TypeVar("U")

#: Default number of partitions for new datasets.
DEFAULT_PARTITIONS = 4


# -- per-partition task bodies ------------------------------------------------
#
# Module-level so the process backend can pickle them (the wrapped user
# function still has to be picklable itself).

def _map_task(fn, partition):
    return [fn(item) for item in partition]


def _filter_task(predicate, partition):
    return [item for item in partition if predicate(item)]


def _flat_map_task(fn, partition):
    return [out for item in partition for out in fn(item)]


def _map_partitions_task(fn, partition):
    return fn(list(partition))


def _sample_task(fraction, seed, indexed_partition):
    index, partition = indexed_partition
    # One RNG per (seed, partition): sampling is a pure function of the
    # partition's identity, so the result is identical no matter which
    # worker runs it, or in what order.  (Knuth-style mix; Random()
    # itself only accepts scalar seeds.)
    rng = random.Random(seed * 2654435761 + index)
    return [item for item in partition if rng.random() < fraction]


def _fold_task(zero, seq_op, partition):
    acc = zero()
    for item in partition:
        acc = seq_op(acc, item)
    return acc


class LocalDataset(Generic[T]):
    """An immutable, partitioned, in-memory dataset."""

    def __init__(
        self,
        partitions: List[List[T]],
        *,
        executor: Optional[Executor] = None,
        _scan_counter: Optional[List[int]] = None,
    ):
        if not partitions:
            partitions = [[]]
        self._partitions = partitions
        self._executor = resolve_executor(executor)
        # The scan counter is shared across derived datasets so that a
        # whole pipeline's pass count accumulates in one place.
        self._scan_counter = _scan_counter if _scan_counter is not None else [0]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[T],
        num_partitions: int = DEFAULT_PARTITIONS,
        *,
        executor: Optional[Executor] = None,
    ) -> "LocalDataset[T]":
        """Round-robin the records into ``num_partitions`` partitions."""
        if num_partitions <= 0:
            raise EngineError("num_partitions must be positive")
        partitions: List[List[T]] = [[] for _ in range(num_partitions)]
        for index, record in enumerate(records):
            partitions[index % num_partitions].append(record)
        return cls(partitions, executor=executor)

    def _derive(self, partitions: List[List[U]]) -> "LocalDataset[U]":
        return LocalDataset(
            partitions,
            executor=self._executor,
            _scan_counter=self._scan_counter,
        )

    @property
    def executor(self) -> Executor:
        """The backend this dataset's lineage runs on."""
        return self._executor

    def with_executor(self, executor) -> "LocalDataset[T]":
        """The same dataset (partitions, scan counter) on a new backend.

        ``executor`` may be an :class:`Executor` or a spec string such
        as ``"threads:4"``.
        """
        return LocalDataset(
            self._partitions,
            executor=resolve_executor(executor),
            _scan_counter=self._scan_counter,
        )

    def with_retry(self, retry) -> "LocalDataset[T]":
        """The same dataset on this backend with a
        :class:`~repro.engine.executor.RetryPolicy` installed (``None``
        removes supervision)."""
        return self.with_executor(self._executor.with_retry(retry))

    # -- introspection -------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    @property
    def scans(self) -> int:
        """Number of full passes made over this dataset's lineage."""
        return self._scan_counter[0]

    def count(self) -> int:
        self._note_scan()
        return sum(len(partition) for partition in self._partitions)

    def collect(self) -> List[T]:
        self._note_scan()
        out: List[T] = []
        for partition in self._partitions:
            out.extend(partition)
        return out

    def is_empty(self) -> bool:
        return all(not partition for partition in self._partitions)

    def _note_scan(self) -> None:
        self._scan_counter[0] += 1

    def __iter__(self) -> Iterator[T]:
        for partition in self._partitions:
            yield from partition

    # -- transformations (eager, scan-counted) --------------------------------

    def map(self, fn: Callable[[T], U]) -> "LocalDataset[U]":
        self._note_scan()
        return self._derive(
            self._executor.map_list(partial(_map_task, fn), self._partitions)
        )

    def filter(self, predicate: Callable[[T], bool]) -> "LocalDataset[T]":
        self._note_scan()
        return self._derive(
            self._executor.map_list(
                partial(_filter_task, predicate), self._partitions
            )
        )

    def flat_map(self, fn: Callable[[T], Iterable[U]]) -> "LocalDataset[U]":
        self._note_scan()
        return self._derive(
            self._executor.map_list(
                partial(_flat_map_task, fn), self._partitions
            )
        )

    def map_partitions(
        self, fn: Callable[[List[T]], List[U]]
    ) -> "LocalDataset[U]":
        self._note_scan()
        return self._derive(
            self._executor.map_list(
                partial(_map_partitions_task, fn), self._partitions
            )
        )

    def union(self, other: "LocalDataset[T]") -> "LocalDataset[T]":
        # Partition lists are immutable by convention, so the union can
        # share them instead of deep-copying every partition.
        return self._derive(list(self._partitions) + list(other._partitions))

    def sample(self, fraction: float, seed: int = 0) -> "LocalDataset[T]":
        """Uniform Bernoulli sample, deterministic under ``seed``.

        Each partition derives its own RNG from ``(seed, partition
        index)``, so the sample is a pure function of the data layout —
        independent of the order (or parallelism) in which partitions
        are traversed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise EngineError("fraction must be within [0, 1]")
        self._note_scan()
        return self._derive(
            self._executor.map_list(
                partial(_sample_task, fraction, seed),
                list(enumerate(self._partitions)),
            )
        )

    def repartition(self, num_partitions: int) -> "LocalDataset[T]":
        return LocalDataset.from_records(
            self.collect(), num_partitions, executor=self._executor
        )

    # -- aggregation -----------------------------------------------------------

    def _partials(
        self,
        zero: Callable[[], U],
        seq_op: Callable[[U, T], U],
    ) -> List[U]:
        """Fold every partition with ``seq_op``, fanned out over the
        executor."""
        return self._executor.map_list(
            partial(_fold_task, zero, seq_op), self._partitions
        )

    def aggregate(
        self,
        zero: Callable[[], U],
        seq_op: Callable[[U, T], U],
        comb_op: Callable[[U, U], U],
    ) -> U:
        """Fold each partition with ``seq_op``, combine with ``comb_op``.

        ``zero`` is a factory so mutable accumulators are safe.
        """
        self._note_scan()
        partials = self._partials(zero, seq_op)
        result = zero()
        for partial_result in partials:
            result = comb_op(result, partial_result)
        return result

    def tree_aggregate(
        self,
        zero: Callable[[], U],
        seq_op: Callable[[U, T], U],
        comb_op: Callable[[U, U], U],
    ) -> U:
        """Like :meth:`aggregate` but with pairwise (fan-in) combining.

        Exercises associativity the way a distributed reduction would:
        partial results are combined in a balanced binary tree rather
        than a left fold.
        """
        self._note_scan()
        partials = self._partials(zero, seq_op)
        if not partials:
            return zero()
        while len(partials) > 1:
            combined: List[U] = []
            for index in range(0, len(partials) - 1, 2):
                combined.append(comb_op(partials[index], partials[index + 1]))
            if len(partials) % 2:
                combined.append(partials[-1])
            partials = combined
        return partials[0]

    def reduce(self, comb_op: Callable[[T, T], T]) -> T:
        """Pairwise reduction of a non-empty dataset."""
        items = self.collect()
        if not items:
            raise EngineError("cannot reduce an empty dataset")
        result = items[0]
        for item in items[1:]:
            result = comb_op(result, item)
        return result
