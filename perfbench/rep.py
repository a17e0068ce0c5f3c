"""One measured repetition of one benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload oltp --seed 2011 [--trace]

Builds the workload from the seed, runs it through the simulator's
public entry points and prints one JSON line: host timings, peak
resident set, the simulated metrics and a digest of the simulated
result.  ``--trace`` wraps every layer's public functions
(:mod:`spans`) and adds the per-layer metrics (:mod:`layers`).
``run.py`` starts this script once per repetition.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import spans  # noqa: E402

#: The benchmark's workloads: requests per run (per cell for the grid)
#: and either RunSpec fields or the figure whose grid cells to run.
WORKLOADS = {
    # SysBench on I-CASH, event engine with the workload's default
    # closed loop of 16 clients and the profiler attached.  4096 blocks
    # fit the 4096-entry signature LRU; host time goes to the engine,
    # the controller request path, delta apply and the profiler.
    "oltp": {"n_requests": 10000,
             "spec": {"workload": "sysbench", "system": "icash",
                      "engine": "event", "scale": 0.5, "profile": True}},
    # SPEC-sfs on I-CASH: 92% writes over 16384 blocks (4x the
    # signature LRU); host time goes to the similarity scanner, batched
    # ingest, the delta encoder and log packing.
    "fileserver": {"n_requests": 1000,
                   "spec": {"workload": "specsfs", "system": "icash",
                            "engine": "event", "scale": 1.0}},
    # RUBiS over all five architectures on the legacy engine, fanned
    # out over the persistent pool with its shared-memory arena;
    # exercises the baselines and the memoised delta-read path.
    "fig14-grid": {"figure": "figure14", "n_requests": 10000},
}

#: Spans whose every duration the traced run keeps.
DURATIONS = layers.CALL_SPANS + ("parallel.submit",)

#: Distinct inputs a run cycles through: variant 0 is the seed itself,
#: the others are derived from it.
VARIANTS = 3


def variant_seed(seed: int, variant: int) -> int:
    if variant == 0:
        return seed
    return (seed * 1000003 + variant * 7919) % (2 ** 31 - 1)


def _plain(value):
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def payload_digest(payloads) -> str:
    """SHA-256 of the simulated results' canonical JSON.  Payloads hold
    only simulated quantities; host timings live outside them."""
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def _now() -> int:
    return time.monotonic_ns()


def _sim(result) -> dict:
    return {"tx_per_s": result.transactions_per_s,
            "read_p99_us": result.read_p99_us,
            "write_p99_us": result.write_p99_us,
            "ssd_write_blocks": result.ssd_write_blocks}


def run_single(config: dict, seed: int, n_requests: int) -> dict:
    """Build, ingest and replay one I-CASH run with read verification."""
    from repro.experiments import runner
    from repro.experiments.parallel import RunSpec
    from repro.sim.profile import Profiler

    spec = RunSpec(seed=seed, n_requests=n_requests, **config["spec"])
    workload = spec.build_workload()
    system = spec.build_system(workload)
    system.ingest()
    profiler = Profiler() if spec.profile else None
    setup_end = _now()
    verify_error = None
    try:
        result = runner.run_benchmark(
            workload, system, verify_reads=True, preload=False,
            warmup_fraction=spec.warmup_fraction,
            flush_at_end=spec.flush_at_end, engine=spec.engine,
            load=spec.build_load(), profiler=profiler)
    except AssertionError as err:  # a read returned wrong bytes
        verify_error = str(err)
        result = None
    end = _now()
    out = {"setup_end_ns": setup_end, "end_ns": end,
           "requests": spec.n_requests,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "verify_error": verify_error, "result": result}
    if result is not None:
        out["digest"] = payload_digest(result.to_payload())
        out["verified_reads"] = result.verified_reads
        out["sim"] = dict(_sim(result), shape_score=0.0)
    return out


def _join_children(timeout_s: float = 30.0) -> None:
    """Wait for every pool worker to exit; kill any that will not."""
    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()


def run_grid(config: dict, seed: int, n_requests: int) -> dict:
    """Figure 14's grid through the figures module and the parallel
    fan-out, one worker per CPU."""
    from repro.experiments import figures, paperdata, parallel

    jobs = len(os.sched_getaffinity(0))
    cells = figures.grid_requirements([config["figure"]], n_requests,
                                      seed)
    specs = [spec for _key, _system, spec in cells]
    first_submitted = []

    def progress(_spec):
        if not first_submitted:
            first_submitted.append(_now())

    try:
        outcomes = parallel.run_specs(specs, jobs=jobs, progress=progress)
        end = _now()
        worker_rss_kb = sum(spans.peak_rss_kb(child.pid)
                            for child in multiprocessing.active_children())
    finally:
        parallel.shutdown_parallel()
        _join_children()
    results = {spec.system: outcome.result
               for spec, outcome in zip(specs, outcomes)}
    shape = figures.FigureResult(
        "Figure 14", "RUBiS request rate", "req/s", "higher",
        {system: run.requests_per_s for system, run in results.items()},
        paperdata.FIG14_RUBIS_RPS).shape_score()
    icash = results["icash"]
    out = {"setup_end_ns": first_submitted[0], "end_ns": end,
           "requests": sum(run.n_requests for run in results.values()),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           + worker_rss_kb) / 1024.0,
           "verify_error": None, "result": icash,
           "digest": payload_digest(
               [[spec.system, outcome.result.to_payload()]
                for spec, outcome in zip(specs, outcomes)] + [shape]),
           "verified_reads": 0,
           "sim": dict(_sim(icash), shape_score=shape),
           "grid": {"jobs": jobs,
                    "wall_s": (end - first_submitted[0]) / 1e9,
                    "cells": [[spec.system, outcome.host_wall_s,
                               outcome.parallel]
                              for spec, outcome in zip(specs, outcomes)]}}
    return out


def repetition(workload: str, seed: int, traced: bool, start_ns: int,
               requests: int = 0) -> dict:
    """Run one repetition; returns the JSON-ready report.  ``requests``
    shortens the run (the benchmark's own tests use it)."""
    config = WORKLOADS[workload]
    out_dir = os.path.join(HERE, "out", workload)
    if traced:
        os.makedirs(out_dir, exist_ok=True)
        for stale in glob.glob(os.path.join(out_dir, "*worker-*.json")):
            os.remove(stale)
        spans.install(out_dir, DURATIONS)
        root = spans.RECORDER.open(spans.ROOT)
    run = run_grid if "figure" in config else run_single
    out = run(config, seed, requests or config["n_requests"])
    if traced:
        spans.RECORDER.close(root)
    result = out.pop("result")
    report = {"workload": workload, "seed": seed, "traced": traced,
              "setup_s": (out.pop("setup_end_ns") - start_ns) / 1e9,
              "total_s": (out.pop("end_ns") - start_ns) / 1e9, **out}
    report["replay_s"] = report["total_s"] - report["setup_s"]
    if traced and result is not None:
        accounts = [spans.RECORDER.summary(DURATIONS)]
        cache = spans.cache_stats()
        for path in sorted(glob.glob(os.path.join(out_dir,
                                                  "worker-*.json"))):
            with open(path) as handle:
                worker = json.load(handle)
            accounts.append(worker["summary"])
            for key, value in worker["cache"].items():
                cache[key] = cache.get(key, 0) + value
        report["layers"] = layers.compute(
            accounts, cache, result, report["requests"],
            grid=out.get("grid"), shape=report["sim"]["shape_score"])
        report["accounts"] = [
            {"wall_ns": account["wall_ns"],
             "layer_self_ns": account["layer_self_ns"]}
            for account in accounts]
        spans.RECORDER.dump(os.path.join(out_dir, f"spans-{seed}.json"))
    return report


def main(argv=None) -> int:
    start_ns = _now()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--start-ns", type=int, default=None,
                        help="CLOCK_MONOTONIC time the process was "
                             "launched at (set by run.py)")
    parser.add_argument("--requests", type=int, default=0,
                        help="shorter run for tests (default: the "
                             "workload's own length)")
    args = parser.parse_args(argv)
    report = repetition(args.workload, args.seed, args.trace,
                        args.start_ns if args.start_ns else start_ns,
                        args.requests)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
