"""Benchmark entry point: runs one workload for a fixed time and reports.

    python3 perfbench/run.py --workload oltp --seed 2011 --seconds 30 \
        --trace 0

Each repetition runs in a fresh process (``rep.py``), so every one pays
imports, dataset build and ingest cold, and no memo outlives it.
Repetitions cycle through ``rep.VARIANTS`` inputs derived from the seed
and continue until ``--seconds`` is used up (at least ``MIN_REPS``).
``setup_s`` and ``peak_rss_mb`` are medians over the repetitions;
``req_per_host_s`` is all their requests over all their replay time.

Checks: every read is verified against the workload's shadow copy, the
simulated result's digest must match ``golden.json`` when one is stored
for the seed, and repetitions of the same input must agree on it.  A
repetition that fails a check counts its requests as failed.

``--trace 1`` alternates untraced and traced repetitions of the same
input and reports the per-layer metrics of the median traced one, with
the tracing overhead against the untraced ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A line before it
carries the digests, the simulated metrics and the host-speed probe.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import rep as rep_module  # noqa: E402

#: Untraced repetitions per run, at least: one per input variant.  A
#: run long enough for more repeats an input and checks that the rerun
#: gives the identical simulated result.
MIN_REPS = rep_module.VARIANTS
#: Traced mode runs (untraced, traced) pairs; at least this many.
MIN_PAIRS = 1
#: Never start a repetition that could end past this many seconds.
HARD_LIMIT_S = 150.0

END_TO_END = (("setup_s", "s"), ("req_per_host_s", "1/s"),
              ("peak_rss_mb", "MB"))


class RepFailed(RuntimeError):
    """A repetition process crashed or timed out."""


def probe():
    """Host-speed probe, diagnostic only: milliseconds for one
    cache-resident pure-Python kernel and one memory-bound numpy copy."""
    import numpy as np

    data = list(range(2000))
    start = time.perf_counter()
    total = 0
    for _ in range(100):
        for value in data:
            total += value * value
    python_ms = (time.perf_counter() - start) * 1e3
    source = np.ones(4 * 1024 * 1024)  # 32 MiB of float64
    target = np.empty_like(source)
    start = time.perf_counter()
    for _ in range(4):
        np.copyto(target, source)
    numpy_ms = (time.perf_counter() - start) * 1e3
    return python_ms, numpy_ms


def _reap_group(pgid, grace_s=5.0):
    """Wait until no process of a repetition's process group is left.

    The shared-memory resource tracker of the grid's pool outlives the
    repetition by a moment; anything still there after ``grace_s`` is
    killed."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                return
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            killed, deadline = True, time.monotonic() + grace_s
        time.sleep(0.01)


def run_rep(workload, seed, traced, deadline):
    """One repetition in a fresh process (and process group)."""
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--start-ns", str(time.monotonic_ns())]
    if traced:
        command.append("--trace")
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RepFailed(f"{workload} seed {seed} timed out") from err
    finally:
        _reap_group(child.pid)
    if child.returncode != 0:
        raise RepFailed(f"{workload} seed {seed} exited with "
                        f"{child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def load_golden():
    with open(os.path.join(HERE, "golden.json")) as handle:
        return json.load(handle)


def check(rep, variant, golden, seen):
    """Failure reasons of one repetition (empty when it passed)."""
    problems = []
    if rep["verify_error"]:
        problems.append(f"read verification: {rep['verify_error']}")
        return problems
    expected = golden.get(str(rep["base_seed"]))
    if expected is not None:
        if rep["digest"] != expected["digests"][variant]:
            problems.append(f"variant {variant} digest differs from golden")
        if rep["sim"]["shape_score"] != expected["shape_score"][variant]:
            problems.append(f"variant {variant} shape score differs from "
                            f"golden")
    first = seen.setdefault(variant, rep["digest"])
    if rep["digest"] != first:
        problems.append(f"variant {variant} digest changed on a rerun")
    return problems


def measure(workload, seed, seconds, traced):
    """Run repetitions until the time is used up; returns the report."""
    golden = load_golden().get(workload, {})
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S + 25.0
    untraced, traced_reps, durations, probes = [], [], [], []
    seen, problems = {}, []
    attempted = failed = 0
    index = 0
    while True:
        elapsed = time.monotonic() - start
        estimate = statistics.median(durations) if durations else 0.0
        enough = (len(traced_reps) >= MIN_PAIRS if traced
                  else len(untraced) >= MIN_REPS)
        # Start another repetition when it would end, on average, no
        # later than half a repetition past the time asked for.
        if enough and elapsed + estimate / 2 > seconds:
            break
        if durations and elapsed + estimate > HARD_LIMIT_S:
            break
        variant = index % rep_module.VARIANTS
        run_seed = rep_module.variant_seed(seed, variant)
        probes.append(probe())
        began = time.monotonic()
        modes = (False, True) if traced else (False,)
        for mode in modes:
            rep = run_rep(workload, run_seed, mode, deadline)
            rep["base_seed"] = seed
            rep["variant"] = variant
            attempted += rep["requests"]
            reasons = check(rep, variant, golden, seen)
            if reasons:
                failed += rep["requests"]
                problems.extend(reasons)
            (traced_reps if mode else untraced).append(rep)
        durations.append(time.monotonic() - began)
        probes.append(probe())
        index += 1

    if traced:
        complete = sorted((r for r in traced_reps if "layers" in r),
                          key=lambda r: r["total_s"])
        if not complete:
            raise RepFailed(f"{workload}: no traced repetition passed "
                            f"read verification")
        metrics = dict(complete[(len(complete) - 1) // 2]["layers"])
        metrics["trace.overhead"] = (
            statistics.median(r["total_s"] for r in traced_reps)
            / statistics.median(r["total_s"] for r in untraced) - 1.0)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "req_per_host_s": sum(r["requests"] for r in untraced)
            / sum(r["replay_s"] for r in untraced),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in untraced)}
        units = dict(END_TO_END)
    first = untraced[0]
    diagnostics = {
        "workload": workload, "seed": seed,
        "repetitions": len(untraced) + len(traced_reps),
        "digests": {str(v): d for v, d in sorted(seen.items())},
        "sim": first.get("sim"), "verified_reads": first.get("verified_reads"),
        "reps": [[r["variant"], r["traced"], round(r["setup_s"], 4),
                  round(r["replay_s"], 4)] for r in untraced + traced_reps],
        "probe_python_ms": [p[0] for p in probes],
        "probe_numpy_ms": [p[1] for p in probes],
        "problems": problems}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return diagnostics, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=rep_module.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"run.py: no simulator source under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        diagnostics, result = measure(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except RepFailed as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    print(json.dumps(diagnostics))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
