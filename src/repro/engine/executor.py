"""Pluggable execution backends for the engine.

The paper runs both extractors on Spark, where per-partition work fans
out across a cluster.  :class:`Executor` is the local analogue of that
scheduling layer: it maps a function over a list of partitions and
returns the per-partition results *in partition order*.  Three
backends are provided:

* :class:`SerialExecutor` — the seed behaviour: a plain loop in the
  driver.  Zero overhead, always available.
* :class:`ThreadExecutor` — a ``ThreadPoolExecutor``.  Per-partition
  folds release the GIL only around I/O, but this backend still
  exercises every ordering hazard a real cluster has (partitions
  complete out of order) and wins when partition work is
  C-level-heavy.
* :class:`ProcessExecutor` — a ``ProcessPoolExecutor``.  True
  parallelism; requires picklable tasks.  Unpicklable closures (the
  engine is often driven with lambdas) degrade gracefully to in-driver
  serial execution, counted in
  ``repro.engine.instrument.counters`` under
  ``executor.process_fallbacks`` with the original pickling error
  preserved on the executor (``last_fallback_error``) and in its
  ``repr`` so degraded runs are visible.

Backends are value objects: the shard coordinator fans shard tasks
out over one, and the staged pipeline its per-path entity clustering.
``resolve_executor`` turns a spec string (``"serial"``, ``"threads"``,
``"threads:8"``, ``"processes:4"``) into an executor; the process-wide
default comes from the ``REPRO_EXECUTOR`` environment variable and
:func:`set_default_executor`.

Failure semantics
-----------------

A cluster loses workers; the local analogue must not lose runs.  An
executor built with a :class:`RetryPolicy` (or wrapped via
:meth:`Executor.with_retry`) runs every task through a supervision
loop: per-attempt deadline (pooled backends), exponential backoff with
deterministic seeded jitter between attempts, and — once retries are
exhausted — an ``on_failure`` escalation chain of
``retry → serial-fallback → skip``:

* ``"raise"`` — re-raise the last error after the retries;
* ``"serial"`` (default) — after retries, run the task once more in
  the driver (rescues pool-level failures: broken pools, unpicklable
  results); raise only if that also fails;
* ``"skip"`` — like ``"serial"``, but a task that still fails yields
  ``None`` in the result list instead of raising.

Every decision ticks a thread-safe counter
(``executor.retries`` / ``executor.timeouts`` /
``executor.task_failures`` / ``executor.serial_rescues`` /
``executor.skipped_tasks`` / ``executor.corrupt_results``), which is
how the chaos suite asserts a fault plan was actually exercised.  The
supervision loop is also where :mod:`repro.engine.faults` injects
crashes, delays, and corrupt results — matching happens in the driver,
execution in the worker.
"""

from __future__ import annotations

import atexit
import os
import pickle
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.engine import faults
from repro.errors import EngineError

T = TypeVar("T")
U = TypeVar("U")

#: Legal ``RetryPolicy.on_failure`` values, in escalation order.
ON_FAILURE_MODES = ("raise", "serial", "skip")


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision policy for every task an executor runs."""

    #: Extra attempts after the first (``0`` disables retries).
    max_retries: int = 2
    #: Per-attempt deadline in seconds for pooled backends.  ``None``
    #: waits forever.  The serial backend cannot preempt a running
    #: task, so it ignores the deadline (documented limitation).
    task_timeout: Optional[float] = None
    #: First backoff delay, in seconds.
    backoff_base: float = 0.01
    #: Growth factor per attempt.
    backoff_multiplier: float = 2.0
    #: Jitter fraction: each delay is stretched by up to this fraction,
    #: deterministically per ``(seed, task, attempt)``.
    jitter: float = 0.1
    #: Seed for the jitter stream.
    seed: int = 0
    #: Escalation after retries: ``raise`` / ``serial`` / ``skip``.
    on_failure: str = "serial"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise EngineError("max_retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise EngineError("task_timeout must be positive when set")
        if self.backoff_base < 0 or self.backoff_multiplier < 1.0:
            raise EngineError("backoff must be non-negative and non-shrinking")
        if not 0.0 <= self.jitter <= 1.0:
            raise EngineError("jitter must be within [0, 1]")
        if self.on_failure not in ON_FAILURE_MODES:
            known = ", ".join(ON_FAILURE_MODES)
            raise EngineError(
                f"unknown on_failure {self.on_failure!r}; known: {known}"
            )

    @property
    def attempts(self) -> int:
        """Total attempts per task (first run + retries)."""
        return 1 + self.max_retries

    def with_(self, **overrides) -> "RetryPolicy":
        return replace(self, **overrides)


def retry_delay(policy: RetryPolicy, task_index: int, attempt: int) -> float:
    """Backoff before retry number ``attempt`` (1-based) of a task.

    Pure and deterministic: exponential in the attempt number, with a
    jitter factor drawn from an RNG seeded by ``(policy.seed,
    task_index, attempt)``.  Tuple-of-int hashing is stable across
    processes, so a chaos run's sleep schedule is reproducible.
    """
    base = policy.backoff_base * (policy.backoff_multiplier ** (attempt - 1))
    if policy.jitter == 0.0:
        return base
    rng = random.Random(hash((policy.seed, task_index, attempt)))
    return base * (1.0 + policy.jitter * rng.random())


def _counters():
    from repro.engine.instrument import counters

    return counters


class Executor:
    """Maps a callable over partitions; results keep partition order."""

    #: Registry / spec name of the backend.
    name: str = "abstract"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        if max_workers is not None and max_workers <= 0:
            raise EngineError("max_workers must be positive")
        self._max_workers = max_workers
        self._retry = retry

    @property
    def workers(self) -> int:
        """Number of workers this backend fans out to."""
        return 1

    @property
    def retry(self) -> Optional[RetryPolicy]:
        """The supervision policy, if one is installed."""
        return self._retry

    def with_retry(self, retry: Optional[RetryPolicy]) -> "Executor":
        """A same-backend executor with ``retry`` installed."""
        return type(self)(max_workers=self._max_workers, retry=retry)

    # -- public mapping -------------------------------------------------------

    def map_list(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        plan = faults.active_fault_plan()
        stage = faults.current_stage()
        if plan is not None and not plan.targets_stage(stage):
            plan = None
        if self._retry is None and plan is None:
            return self._map_plain(fn, items)
        return self._map_supervised(fn, items, plan, stage)

    # -- backend hooks --------------------------------------------------------

    def _map_plain(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        """The fast path: no supervision, no faults (subclass hook)."""
        raise NotImplementedError

    def _submit_attempt(self, fn, item, spec):
        """Start one task attempt; returns a backend-specific handle."""
        raise NotImplementedError

    def _wait(self, handle, timeout: Optional[float]):
        """Resolve a handle from :meth:`_submit_attempt` to a result."""
        raise NotImplementedError

    # -- the supervision loop -------------------------------------------------

    def _map_supervised(
        self,
        fn: Callable[[T], U],
        items: Sequence[T],
        plan: Optional[faults.FaultPlan],
        stage: Optional[str],
    ) -> List[U]:
        # First attempts all launch before any result is awaited, so
        # pooled backends keep their fan-out even under supervision.
        handles = [
            self._submit_attempt(fn, item, self._select_fault(plan, stage, i, 0))
            for i, item in enumerate(items)
        ]
        return [
            self._settle(fn, item, index, handles[index], plan, stage)
            for index, item in enumerate(items)
        ]

    def _select_fault(self, plan, stage, task_index, attempt):
        if plan is None:
            return None
        spec = plan.match(stage, task_index, attempt)
        if spec is not None:
            _counters().add(f"faults.injected_{spec.kind}")
        return spec

    def _settle(self, fn, item, index, handle, plan, stage):
        from concurrent.futures import TimeoutError as FutureTimeout

        policy = self._retry
        attempts = policy.attempts if policy is not None else 1
        timeout = policy.task_timeout if policy is not None else None
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt > 0:
                _counters().add("executor.retries")
                delay = retry_delay(policy, index, attempt)
                if delay > 0:
                    time.sleep(delay)
                handle = self._submit_attempt(
                    fn, item, self._select_fault(plan, stage, index, attempt)
                )
            try:
                result = self._wait(handle, timeout)
            except FutureTimeout as exc:
                _counters().add("executor.timeouts")
                last_error = EngineError(
                    f"task {index} exceeded its {timeout}s deadline"
                )
                last_error.__cause__ = exc
                continue
            except Exception as exc:
                _counters().add("executor.task_failures")
                last_error = exc
                continue
            if isinstance(result, faults.CorruptResult):
                _counters().add("executor.corrupt_results")
                last_error = EngineError(
                    f"task {index} returned a corrupt result"
                )
                continue
            return result
        # Retries exhausted: escalate per the policy.
        mode = policy.on_failure if policy is not None else "raise"
        if mode in ("serial", "skip"):
            _counters().add("executor.serial_rescues")
            try:
                return fn(item)
            except Exception as exc:
                _counters().add("executor.task_failures")
                last_error = exc
        if mode == "skip":
            _counters().add("executor.skipped_tasks")
            return None
        raise last_error  # type: ignore[misc]

    def close(self) -> None:
        """Release any pooled workers (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialExecutor(Executor):
    """In-driver loop; the seed semantics and the safe default."""

    name = "serial"

    def _map_plain(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        return [fn(item) for item in items]

    def _submit_attempt(self, fn, item, spec):
        # Lazy: the supervision loop triggers execution at wait time,
        # which is what lets retries re-run the task.
        return lambda: faults.run_with_fault(fn, item, spec)

    def _wait(self, handle, timeout: Optional[float]):
        # A single-threaded backend cannot preempt a running task, so
        # the deadline is unenforceable here and ignored.
        return handle()


def _default_workers(max_workers: Optional[int]) -> int:
    if max_workers is not None:
        return max_workers
    return max(2, os.cpu_count() or 1)


class _PooledExecutor(Executor):
    """Shared pool plumbing for the thread and process backends."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(max_workers, retry)
        self._pool = None

    @property
    def workers(self) -> int:
        return _default_workers(self._max_workers)

    def _make_pool(self):
        raise NotImplementedError

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _submit_attempt(self, fn, item, spec):
        return self._ensure_pool().submit(faults.run_with_fault, fn, item, spec)

    def _wait(self, handle, timeout: Optional[float]):
        return handle.result(timeout)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadExecutor(_PooledExecutor):
    """Thread-pool backend; partitions complete in arbitrary order."""

    name = "threads"

    def _make_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(max_workers=self.workers)

    def _map_plain(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))


def _warm_worker() -> None:
    """Pool initializer: pre-import the hot modules in each worker.

    The first task a fresh worker runs otherwise pays the full import
    of the type system and the discovery codec *inside* the measured
    region — on small inputs that import tax is most of the wall time
    (the BENCH_PR1 processes-vs-serial regression at 4k records).
    Importing here also re-creates each worker's intern pool and
    primitive singletons before any task needs them.
    """
    import repro.discovery.codec  # noqa: F401
    import repro.discovery.state  # noqa: F401
    import repro.jsontypes.types  # noqa: F401


class ProcessExecutor(_PooledExecutor):
    """Process-pool backend with graceful serial fallback.

    Tasks are pickled to the workers, so the function (and everything
    it closes over) must be picklable; when it is not, the work runs
    serially in the driver and ``executor.process_fallbacks`` is
    incremented — semantics never change, only the fan-out.  The
    triggering error is kept (:attr:`last_fallback_error`, also shown
    in ``repr``) so a silently degraded run can be diagnosed.
    """

    name = "processes"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(max_workers, retry)
        self._last_fallback_error: Optional[str] = None

    @property
    def last_fallback_error(self) -> Optional[str]:
        """The most recent error that forced a serial fallback."""
        return self._last_fallback_error

    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_warm_worker
        )

    def _note_fallback(self, error: BaseException) -> None:
        self._last_fallback_error = f"{type(error).__name__}: {error}"
        _counters().add("executor.process_fallbacks")

    def _fallback(self, fn, items, error: BaseException):
        self._note_fallback(error)
        return [fn(item) for item in items]

    def _unpicklable(self, fn) -> Optional[BaseException]:
        try:
            pickle.dumps(fn)
        except Exception as exc:
            return exc
        return None

    def _map_plain(self, fn: Callable[[T], U], items: Sequence[T]) -> List[U]:
        if len(items) <= 1:
            return [fn(item) for item in items]
        pickling_error = self._unpicklable(fn)
        if pickling_error is not None:
            return self._fallback(fn, items, pickling_error)
        try:
            return list(self._ensure_pool().map(fn, items))
        except Exception as exc:
            # A task that failed to round-trip (unpicklable argument or
            # result, broken pool) must not poison the next call.
            self.close()
            return self._fallback(fn, items, exc)

    def _map_supervised(self, fn, items, plan, stage):
        # Unpicklable work cannot reach the pool at all: degrade to the
        # serial backend's supervision (same retry/fault semantics,
        # in-driver execution) and record why.
        pickling_error = self._unpicklable(fn)
        if pickling_error is not None:
            self._note_fallback(pickling_error)
            rescue = SerialExecutor(retry=self._retry)
            return rescue._map_supervised(fn, items, plan, stage)
        return super()._map_supervised(fn, items, plan, stage)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        degraded = (
            f" degraded={self._last_fallback_error!r}"
            if self._last_fallback_error
            else ""
        )
        return f"<{type(self).__name__} workers={self.workers}{degraded}>"


_BACKENDS = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}

#: Singular spellings accepted in specs (``REPRO_EXECUTOR=process``)
#: but not advertised by :func:`executor_names`.
_BACKEND_ALIASES = {
    "thread": ThreadExecutor.name,
    "process": ProcessExecutor.name,
}

#: Environment variable consulted for the process-wide default backend.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

_default_executor: Optional[Executor] = None


def executor_names() -> List[str]:
    """The registered backend names, in definition order."""
    return list(_BACKENDS)


def resolve_executor(spec) -> Executor:
    """Turn a spec into an :class:`Executor`.

    Accepts an existing executor (returned as-is), ``None`` (the
    process default), or a string ``"<name>"`` / ``"<name>:<workers>"``.
    """
    if spec is None:
        return default_executor()
    if isinstance(spec, Executor):
        return spec
    if not isinstance(spec, str):
        raise EngineError(f"not an executor spec: {spec!r}")
    name, _, workers = spec.partition(":")
    name = name.strip()
    backend = _BACKENDS.get(_BACKEND_ALIASES.get(name, name))
    if backend is None:
        known = ", ".join(executor_names())
        raise EngineError(f"unknown executor {name!r}; known: {known}")
    if workers:
        try:
            count = int(workers)
        except ValueError:
            raise EngineError(f"bad worker count in executor spec {spec!r}")
        return backend(max_workers=count)
    return backend()


def default_executor() -> Executor:
    """The process-wide default backend (``REPRO_EXECUTOR`` or serial)."""
    global _default_executor
    if _default_executor is None:
        spec = os.environ.get(EXECUTOR_ENV_VAR, SerialExecutor.name)
        _default_executor = resolve_executor(spec)
    return _default_executor


def set_default_executor(spec) -> Executor:
    """Install the default backend for callers that name none."""
    global _default_executor
    _default_executor = resolve_executor(spec)
    return _default_executor


@atexit.register
def _close_default_executor() -> None:
    # Pool-backed defaults (e.g. REPRO_EXECUTOR=process) must shut
    # down before the interpreter tears down module globals, or the
    # pool's management thread dies noisily mid-cleanup.
    global _default_executor
    if _default_executor is not None:
        _default_executor.close()
        _default_executor = None
