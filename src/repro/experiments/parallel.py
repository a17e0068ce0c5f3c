"""Parallel experiment fan-out.

The evaluation is a grid of independent runs — figure grid cells, bench
suite entries, sweep points, load-test rate probes — each fully
determined by a handful of plain parameters (workload family, request
count, seed, system, engine, arrival pattern).  This module schedules
such runs across a :class:`~concurrent.futures.ProcessPoolExecutor`:

* a :class:`RunSpec` describes one run *declaratively* (no lambdas, no
  live objects), so specs pickle to worker processes;
* workers return :meth:`RunResult.to_payload` dicts (plain data, no
  tracer/registry state) plus the run's host wall time;
* results are collected **by submission index**, never by completion
  order, so the output is bit-identical to serial execution for any
  job count;
* a broken or timed-out pool degrades to in-process serial execution
  of whatever is still missing — parallelism is a go-faster switch,
  never a correctness risk.

Every run builds a fresh workload and system from the spec's seed, so
runs are independent and deterministic whether they execute in this
process, a worker, or a retry after a worker crash.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, field, replace as dc_replace
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.runner import RunResult, run_benchmark

try:
    from multiprocessing import shared_memory as _shared_memory
    _SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - shm is stdlib on 3.8+
    _shared_memory = None
    _SHM_AVAILABLE = False

#: Per-run wall-time ceiling before the pool is declared wedged and the
#: remaining runs fall back to serial execution.  Generous: the largest
#: committed suites run in seconds; only a hung worker ever hits this.
DEFAULT_TIMEOUT_S = 900.0


class DatasetArena:
    """Named shared-memory segments holding finished workload datasets.

    The parent process publishes each dataset matrix once; workers
    attach **by name** (the task envelope carries ``{dataset_key:
    (segment_name, shape)}``) instead of rebuilding — or unpickling —
    the content.  Lifetime contract: the *publishing* process owns every
    segment and is the only one that unlinks, via :meth:`release`
    (called from :func:`shutdown_parallel`, the ``parallel_session``
    context manager, and an ``atexit`` hook).  Workers share the
    publisher's ``multiprocessing`` resource tracker (started before
    the pool, see :func:`_ensure_pool`) and only ever open existing
    segments read-only, leaving the publisher's registration in place:
    a worker that dies — even ``SIGKILL`` — cannot take a segment down
    with it, and if the publisher itself is killed the tracker unlinks
    every segment it still holds.
    """

    def __init__(self) -> None:
        self._segments: Dict[object, Tuple[object, Tuple[int, ...]]] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._segments)

    def publish(self, key, array: np.ndarray) -> Tuple[str, Tuple[int, ...]]:
        """Copy ``array`` into a named segment (idempotent per key)."""
        existing = self._segments.get(key)
        if existing is not None:
            shm, shape = existing
            return shm.name, shape
        name = f"repro-arena-{os.getpid()}-{self._seq}"
        self._seq += 1
        shm = _shared_memory.SharedMemory(
            name=name, create=True, size=array.nbytes)
        np.ndarray(array.shape, dtype=np.uint8, buffer=shm.buf)[:] = array
        shape = tuple(array.shape)
        self._segments[key] = (shm, shape)
        return name, shape

    def refs(self) -> Dict[object, Tuple[str, Tuple[int, ...]]]:
        """Picklable ``key -> (segment_name, shape)`` attach directory."""
        return {key: (shm.name, shape)
                for key, (shm, shape) in self._segments.items()}

    def release(self) -> None:
        """Close and unlink every segment (idempotent)."""
        for shm, _shape in self._segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - views still alive
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    def __enter__(self) -> "DatasetArena":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_arena: Optional[DatasetArena] = None


def _get_arena() -> DatasetArena:
    global _arena
    if _arena is None:
        _arena = DatasetArena()
    return _arena


def _ensure_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent executor, grown (never shrunk) to ``jobs`` workers.

    Reused across waves — ``figure``/``sweep``/``bench``/``loadtest``
    issue many :func:`run_specs` calls, and pool-per-call paid the full
    worker spawn each time.  Forked workers also keep their per-process
    memoisation (signature LRU, dataset cache) warm between waves.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers < jobs:
        _discard_pool(wait=True)
    if _pool is None:
        # Workers inherit the tracker running at pool start, so segments
        # they attach stay registered to the publisher (DatasetArena).
        resource_tracker.ensure_running()
        _pool = ProcessPoolExecutor(max_workers=jobs)
        _pool_workers = jobs
    return _pool


def _discard_pool(wait: bool = False) -> None:
    global _pool, _pool_workers
    if _pool is not None:
        try:
            _pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    _pool = None
    _pool_workers = 0


def shutdown_parallel() -> None:
    """Tear down the persistent pool and unlink every arena segment.

    Safe to call any number of times; registered with ``atexit`` so a
    Ctrl-C'd or crashed driver still releases its ``/dev/shm`` space.
    """
    global _arena
    _discard_pool(wait=False)
    if _arena is not None:
        _arena.release()
        _arena = None


atexit.register(shutdown_parallel)


@contextmanager
def parallel_session():
    """Scope the persistent pool + arena to a ``with`` block."""
    try:
        yield
    finally:
        shutdown_parallel()


@dataclass(frozen=True)
class RunSpec:
    """One independent benchmark run, described in picklable terms.

    ``load`` selects the arrival model for ``engine="event"`` runs:
    ``None`` (the workload's default closed loop),
    ``("open", rate_rps, distribution, seed)`` or
    ``("closed", clients, think_s)``.

    ``config_overrides`` builds an I-CASH controller from the workload's
    standard configuration with fields replaced — the sweep primitive.

    ``n_vms > 0`` wraps the workload family in a
    :class:`~repro.workloads.multivm.MultiVMWorkload` (``n_requests``
    then counts per VM).
    """

    workload: str
    system: str = "icash"
    engine: str = "legacy"
    n_requests: int = 10000
    seed: int = 2011
    scale: Optional[float] = None
    n_vms: int = 0
    vm_scale: float = 0.25
    warmup_fraction: float = 0.25
    preload: bool = True
    flush_at_end: bool = True
    profile: bool = False
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    load: Optional[Tuple] = None

    def build_workload(self):
        from repro.workloads import ALL_WORKLOADS, MultiVMWorkload

        registry = {cls.name: cls for cls in ALL_WORKLOADS}
        cls = registry[self.workload]
        if self.n_vms > 0:
            return MultiVMWorkload(cls, n_vms=self.n_vms,
                                   scale=self.vm_scale,
                                   n_requests_per_vm=self.n_requests,
                                   seed=self.seed)
        kwargs: Dict[str, object] = {"n_requests": self.n_requests,
                                     "seed": self.seed}
        if self.scale is not None:
            kwargs["scale"] = self.scale
        return cls(**kwargs)

    def build_system(self, workload):
        from repro.experiments.systems import (make_icash_config,
                                               make_system)

        if not self.config_overrides:
            return make_system(self.system, workload)
        if self.system != "icash":
            raise ValueError("config_overrides require system='icash', "
                             f"got {self.system!r}")
        from repro.core import ICASHController

        config = dc_replace(make_icash_config(workload),
                            **dict(self.config_overrides))
        return ICASHController(workload.build_dataset(), config)

    def build_load(self):
        if self.load is None:
            return None
        from repro.sim.load import ClosedLoopLoad, OpenLoopLoad

        kind = self.load[0]
        if kind == "open":
            _, rate_rps, distribution, seed = self.load
            return OpenLoopLoad(rate_rps, distribution=distribution,
                                seed=seed)
        if kind == "closed":
            _, clients, think_s = self.load
            return ClosedLoopLoad(clients=clients, think_s=think_s)
        raise ValueError(f"unknown load kind {kind!r}")


@dataclass
class SpecOutcome:
    """One completed run: the (virtual-clock) result plus the host wall
    seconds the run cost wherever it executed."""

    result: RunResult
    host_wall_s: float
    #: True when this run executed in a worker process.
    parallel: bool = field(default=False)


def run_spec(spec: RunSpec) -> RunResult:
    """Execute one spec in this process."""
    workload = spec.build_workload()
    system = spec.build_system(workload)
    profiler = None
    if spec.profile:
        from repro.sim.profile import Profiler
        profiler = Profiler()
    return run_benchmark(workload, system, engine=spec.engine,
                         warmup_fraction=spec.warmup_fraction,
                         preload=spec.preload,
                         flush_at_end=spec.flush_at_end,
                         load=spec.build_load(),
                         profiler=profiler)


def execute_spec(spec: RunSpec) -> Dict[str, object]:
    """Worker entry point: run one spec, return a plain-data envelope.

    Module-level (not a closure) so the function itself pickles to the
    pool.  The returned dict carries only payload data, never live
    simulator objects.
    """
    start = time.perf_counter()
    result = run_spec(spec)
    return {"payload": result.to_payload(),
            "host_wall_s": time.perf_counter() - start}


def execute_spec_shared(task: Tuple[RunSpec, Dict]) -> Dict[str, object]:
    """Worker entry point for the arena path: ``(spec, dataset_refs)``.

    Registers the parent's shared-memory dataset directory before the
    workload is built, so ``ContentModel.build_dataset`` attaches by
    name instead of re-running the build loop.  Attach failures fall
    back to a local rebuild — bit-identical by construction.
    """
    spec, refs = task
    if refs:
        from repro.workloads import content as content_model
        content_model.register_shared_datasets(refs)
    return execute_spec(spec)


def _serial_outcome(spec: RunSpec) -> SpecOutcome:
    envelope = execute_spec(spec)
    return SpecOutcome(
        result=RunResult.from_payload(envelope["payload"]),
        host_wall_s=envelope["host_wall_s"], parallel=False)


def _publish_for_specs(specs: Sequence[RunSpec]
                       ) -> Dict[object, Tuple[str, Tuple[int, ...]]]:
    """Build each unique workload once in the parent and publish its
    dataset into the arena; returns the attach directory for workers.

    Workload request streams are lazy, so a parent-side build costs one
    dataset construction — exactly the work it saves *per worker* that
    would otherwise rebuild the same content.  Any failure (exotic
    spec, shm exhausted) degrades to publishing nothing.
    """
    if not _SHM_AVAILABLE:
        return {}
    from repro.workloads import content as content_model
    try:
        seen = set()
        for spec in specs:
            identity = (spec.workload, spec.n_vms, spec.vm_scale,
                        spec.scale, spec.seed)
            if identity in seen:
                continue
            seen.add(identity)
            spec.build_workload()  # warms the parent's dataset cache
        arena = _get_arena()
        for key, dataset in content_model.cached_datasets().items():
            arena.publish(key, dataset)
        return arena.refs()
    except Exception as err:  # pragma: no cover - degraded mode
        print(f"parallel: dataset arena unavailable ({err!r}); "
              f"workers will rebuild content locally", file=sys.stderr)
        return {}


def run_specs(specs: Sequence[RunSpec], jobs: int = 1,
              timeout_s: float = DEFAULT_TIMEOUT_S,
              progress: Optional[Callable[[RunSpec], None]] = None,
              ) -> List[SpecOutcome]:
    """Run every spec; return outcomes in input order.

    ``jobs <= 1`` (or a single spec) runs serially in-process.  With a
    pool, results are still collected in submission order, so metric
    output is byte-identical to serial execution regardless of which
    worker finishes first.  The pool is *persistent* — reused and grown
    across calls (see :func:`_ensure_pool`) until
    :func:`shutdown_parallel` or process exit — and each task carries
    the arena directory of parent-published datasets.

    A crashed (``BrokenExecutor``/``OSError``) or wedged (per-run
    ``timeout_s``) pool is abandoned and the *missing* runs — and only
    those — re-execute serially; exceptions a run itself raises (bad
    spec, failed verification) propagate exactly as they would
    serially.
    """
    specs = list(specs)
    outcomes: List[Optional[SpecOutcome]] = [None] * len(specs)
    if jobs <= 1 or len(specs) <= 1:
        for index, spec in enumerate(specs):
            if progress is not None:
                progress(spec)
            outcomes[index] = _serial_outcome(spec)
        return outcomes  # type: ignore[return-value]

    refs = _publish_for_specs(specs)
    pool_failed = False
    try:
        pool = _ensure_pool(jobs)
        futures = [pool.submit(execute_spec_shared, (spec, refs))
                   for spec in specs]
        for index, future in enumerate(futures):
            if progress is not None:
                progress(specs[index])
            try:
                envelope = future.result(timeout=timeout_s)
            except (BrokenExecutor, FutureTimeoutError, OSError) as err:
                print(f"parallel: worker pool failed ({err!r}); "
                      f"falling back to serial execution",
                      file=sys.stderr)
                pool_failed = True
                for pending in futures[index:]:
                    pending.cancel()
                _discard_pool(wait=False)
                break
            outcomes[index] = SpecOutcome(
                result=RunResult.from_payload(envelope["payload"]),
                host_wall_s=envelope["host_wall_s"], parallel=True)
    except (BrokenExecutor, OSError) as err:  # pool setup/teardown died
        print(f"parallel: executor unavailable ({err!r}); "
              f"falling back to serial execution", file=sys.stderr)
        pool_failed = True
        _discard_pool(wait=False)

    if pool_failed:
        for index, spec in enumerate(specs):
            if outcomes[index] is None:
                outcomes[index] = _serial_outcome(spec)
    return outcomes  # type: ignore[return-value]
