"""In-memory span recorder that wraps the simulator's public functions.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
selected public functions and methods of each layer with thin wrappers
that record one span per call: ``(name, start_ns, end_ns, parent)``,
timed with :func:`time.perf_counter_ns`.  Spans stay in memory until the
run ends.  A span's *self time* is its duration minus the time its child
spans cover; every span belongs to one layer (the part of its name
before the first dot), so the layers' self times plus the root span's
self time (``other``) add up exactly to the root span's duration.

Pool workers forked after :func:`install` inherit the wrappers; each
task's spans are shipped back through a file (see :func:`_worker_task`).
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter_ns

#: Name (and layer) of the root span; its self time is the ``other``
#: residual that makes the layers add up to the traced wall time.
ROOT = "other"


class Recorder:
    """Flat span arrays plus the stack of open spans."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = [-1]
        #: Work units counted at a span boundary (blocks, bytes), by name.
        self.counts = {}

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` timed as span ``name`` (a string, or a callable of the
        call's arguments returning one).  ``count``, a callable of the
        arguments, adds the call's work units to ``counts[name]``."""
        opener, closer = self.open, self.close

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if count is not None:
                self.counts[label] = self.counts.get(label, 0) \
                    + count(*args, **kwargs)
            index = opener(label)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, name: str, iterator):
        """An iterator whose every ``next`` is one span."""
        recorder = self

        class _Timed:
            def __iter__(self):
                return self

            def __next__(self):
                index = recorder.open(name)
                try:
                    return next(iterator)
                finally:
                    recorder.close(index)

        return _Timed()

    # -- derived views ---------------------------------------------------

    def self_ns(self):
        """Per-span self time: duration minus the children's durations."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def summary(self, durations_for=()):
        """Plain-data totals: per-layer self time, per-name inclusive
        and self time and call count, and the inclusive durations of
        the names in ``durations_for``."""
        own = self.self_ns()
        layer_self = {}
        by_name = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            layer = layer_of(name)
            layer_self[layer] = layer_self.get(layer, 0) + own[index]
            entry = by_name.setdefault(name, {"count": 0, "incl_ns": 0,
                                              "self_ns": 0,
                                              "durations": []})
            entry["count"] += 1
            entry["incl_ns"] += duration
            entry["self_ns"] += own[index]
            if name in durations_for:
                entry["durations"].append(duration)
        wall = 0
        for index, parent in enumerate(self.parents):
            if parent < 0:
                wall += self.ends[index] - self.starts[index]
        return {"wall_ns": wall, "layer_self_ns": layer_self,
                "by_name": by_name, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        """Write every span as ``[name, start_ns, end_ns, parent]``."""
        with open(path, "w") as handle:
            json.dump({"spans": [list(row) for row in zip(
                self.names, self.starts, self.ends, self.parents)]},
                handle, separators=(",", ":"))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


RECORDER = Recorder()


def _replace_everywhere(original, replacement) -> None:
    """Rebind a module-level function in every loaded ``repro`` module
    that imported it by name (``from x import f`` copies the binding)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module, attr: str, name, count=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, RECORDER.wrap(name, original, count))


def _wrap_method(cls, attr: str, name, count=None) -> None:
    setattr(cls, attr, RECORDER.wrap(name, cls.__dict__[attr], count))


def _first_len(_first, *_, **__) -> int:
    return len(_first)


def _capacity(system, *_, **__) -> int:
    return system.capacity_blocks


def _system_layer(system) -> str:
    return "controller" if system.name == "icash" else "baselines"


def install(out_dir: str, durations_for=()) -> None:
    """Wrap every traced entry point of every layer.  Call once per
    process, before any pool is started.  Worker tasks write their span
    summaries (with the durations of ``durations_for``) to ``out_dir``."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.core.batch as batch
    import repro.core.signatures as signatures
    import repro.delta.encoder as encoder
    import repro.experiments.figures as figures
    import repro.experiments.parallel as parallel
    import repro.experiments.runner as runner
    from repro.baselines import (DedupCacheStorage, LRUCacheStorage,
                                 PureSSD, RAID0Storage, StorageSystem)
    from repro.core.controller import ICASHController
    from repro.core.similarity import SignatureIndex, SimilarityScanner
    from repro.delta.packer import DeltaBlockPacker
    from repro.devices.dram import DRAMBuffer
    from repro.devices.hdd import HardDiskDrive
    from repro.devices.raid import RAID0Array
    from repro.devices.ssd import FlashSSD
    from repro.sim.engine import EventEngine
    from repro.sim.profile import Profiler
    from repro.workloads.base import SyntheticWorkload
    from repro.workloads.content import ContentModel

    _WORKER.update(out_dir=out_dir, durations_for=tuple(durations_for),
                   parent_pid=os.getpid())

    # workloads
    _wrap_method(ContentModel, "build_dataset", "workloads.dataset")
    requests = SyntheticWorkload.requests

    def timed_requests(self):
        index = RECORDER.open("workloads.requests")
        try:
            stream = requests(self)
        finally:
            RECORDER.close(index)
        return RECORDER.timed_iter("workloads.next", stream)

    SyntheticWorkload.requests = timed_requests

    # controller / baselines: the request path, ingest and flush
    _wrap_method(StorageSystem, "process_read",
                 lambda system, *_, **__: _system_layer(system) + ".process")
    _wrap_method(StorageSystem, "process_write",
                 lambda system, *_, **__: _system_layer(system) + ".process")
    for cls in (StorageSystem, ICASHController, DedupCacheStorage,
                LRUCacheStorage, PureSSD, RAID0Storage):
        for attr in ("ingest", "flush"):
            if attr in cls.__dict__:
                _wrap_method(cls, attr,
                             lambda system, *_, _attr=attr, **__:
                             f"{_system_layer(system)}.{_attr}",
                             _capacity if attr == "ingest" else None)

    # similarity scanner, signatures, batch kernels, delta codec
    _wrap_method(SimilarityScanner, "scan", "similarity.scan")
    _wrap_method(SignatureIndex, "match_batch", "similarity.match_batch")
    _wrap_function(signatures, "block_signatures", "signatures.block")
    n_blocks = _first_len
    _wrap_function(batch, "block_signatures_batch", "batch.signatures",
                   n_blocks)
    _wrap_function(batch, "block_signatures_many", "batch.signatures_many",
                   n_blocks)
    _wrap_function(batch, "encode_delta_batch", "batch.encode", n_blocks)
    _wrap_function(batch, "apply_delta_batch", "batch.apply")
    _wrap_function(encoder, "encode_delta", "delta.encode")
    _wrap_function(encoder, "apply_delta", "delta.apply")
    _wrap_method(DeltaBlockPacker, "pack_with_records", "delta.pack")

    # device models
    for cls, label in ((FlashSSD, "ssd"), (HardDiskDrive, "hdd"),
                       (RAID0Array, "raid")):
        for attr in ("read", "write", "read_followup"):
            if attr in cls.__dict__:
                _wrap_method(cls, attr, f"devices.{label}")
    _wrap_method(DRAMBuffer, "access", "devices.dram")

    # event engine, profiler, runner, parallel fan-out, figures
    _wrap_method(EventEngine, "run", "engine.run")
    _wrap_method(Profiler, "record_request", "profile.record")
    _wrap_function(
        runner, "run_benchmark",
        lambda *args, **kwargs: ("runner" if kwargs.get("engine", "legacy")
                                 == "legacy" else "engine")
        + ".run_benchmark")
    _wrap_function(parallel, "run_specs", "parallel.run_specs")
    _wrap_method(parallel.DatasetArena, "publish", "parallel.publish",
                 lambda _arena, _key, array: array.nbytes)
    _wrap_method(ProcessPoolExecutor, "__init__", "parallel.pool_init")
    _wrap_method(ProcessPoolExecutor, "submit", "parallel.submit")
    _wrap_function(figures, "grid_requirements", "figures.requirements")
    parallel.execute_spec = _worker_task(parallel.execute_spec)


#: Where and what a forked worker reports; set by :func:`install`.
_WORKER = {"out_dir": None, "durations_for": (), "parent_pid": None,
           "tasks": 0}


def cache_stats():
    """Every memo's counters in this process, as one flat dict."""
    from repro.core.signatures import signature_cache_stats
    from repro.workloads.base import stream_cache_stats
    from repro.workloads.content import dataset_cache_stats

    stats = {}
    for prefix, values in (("stream", stream_cache_stats()),
                           ("dataset", dataset_cache_stats()),
                           ("signature", signature_cache_stats())):
        for key, value in values.items():
            stats[f"{prefix}.{key}"] = value
    return stats


def peak_rss_kb(pid="self") -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _worker_task(execute_spec):
    """Wrap the pool's per-spec entry point so a worker records its own
    spans and cache deltas for the task and writes them to a file."""

    def traced_execute_spec(spec):
        if os.getpid() == _WORKER["parent_pid"]:
            # The pool fell back to serial runs in the parent process, whose
            # own spans already cover them.
            return execute_spec(spec)
        RECORDER.reset()
        before = cache_stats()
        root = RECORDER.open(ROOT)
        try:
            return execute_spec(spec)
        finally:
            RECORDER.close(root)
            after = cache_stats()
            _WORKER["tasks"] += 1
            name = f"worker-{os.getpid()}-{_WORKER['tasks']}.json"
            summary = RECORDER.summary(_WORKER["durations_for"])
            RECORDER.dump(os.path.join(_WORKER["out_dir"], "spans-" + name))
            with open(os.path.join(_WORKER["out_dir"], name), "w") as handle:
                json.dump({"summary": summary,
                           "cache": {key: after[key] - before.get(key, 0)
                                     for key in after}}, handle)
            RECORDER.reset()

    traced_execute_spec.__wrapped__ = execute_spec
    return traced_execute_spec
