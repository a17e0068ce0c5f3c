"""Tests of the benchmark itself (not part of the simulator's suite).

    python3 -m pytest perfbench -q

Runs shortened repetitions at a held-out seed that no golden digest
covers, so a claim made with the benchmark can be confirmed on inputs
it was not written against.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402

HELD_OUT_SEED = 7
#: Shortened lengths (requests; per cell for the grid).
SHORT = {"oltp": 2000, "fileserver": 300, "fig14-grid": 2000}

#: Per-layer metrics that must read 0 because the workload bypasses the
#: layer, and ones that must not because it works there.
BYPASSED = {
    "oltp": ["runner.self_s", "parallel.self_s", "parallel.busy_s",
             "parallel.pool_start_s", "parallel.arena_publish_s",
             "baselines.self_s", "baselines.fusion-io.host_s",
             "baselines.icash.host_s", "devices.raid_calls",
             "figures.shape_score"],
    "fig14-grid": ["engine.self_s", "similarity.comparisons",
                   "profile.record_calls", "profile.self_s",
                   "engine.queue_wait_mean_us", "devices.hdd.util"],
}
WORKING = {
    "oltp": ["engine.self_s", "profile.record_calls",
             "controller.process_calls", "controller.ingest_s",
             "devices.ssd_calls", "delta.apply_calls", "devices.hdd.util"],
    "fig14-grid": ["runner.self_s", "parallel.busy_s",
                   "parallel.pool_start_s", "parallel.arena_mb",
                   "baselines.fusion-io.host_s", "baselines.raid0.host_s",
                   "devices.raid_calls", "controller.process_calls",
                   "figures.shape_score"],
}


def repetition(workload, seed=HELD_OUT_SEED, trace=False):
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--requests", str(SHORT[workload])]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=300)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(rep.WORKLOADS))
def test_held_out_seed_verifies_and_repeats_exactly(workload):
    first = repetition(workload)
    second = repetition(workload)
    assert first["verify_error"] is None
    if workload != "fig14-grid":
        assert first["verified_reads"] > 0
    assert first["digest"] == second["digest"]
    assert first["sim"] == second["sim"]


@pytest.mark.parametrize("workload", ["oltp", "fig14-grid"])
def test_layers_sum_to_traced_time(workload):
    traced = repetition(workload, trace=True)
    untraced = repetition(workload)
    assert traced["digest"] == untraced["digest"]
    for account in traced["accounts"]:
        assert set(account["layer_self_ns"]) <= set(layers.LAYERS) | {
            "other"}
        assert sum(account["layer_self_ns"].values()) == account["wall_ns"]
    metrics = traced["layers"]
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert total + metrics["trace.other_s"] == pytest.approx(
        metrics["trace.host_s"], abs=1e-6)
    for name in BYPASSED[workload]:
        assert metrics[name] == 0, name
    for name in WORKING[workload]:
        assert metrics[name] > 0, name


def test_grid_shape_score_matches_figure14():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.experiments import figures

    figures.clear_cache()
    expected = figures.figure14(SHORT["fig14-grid"],
                                HELD_OUT_SEED).shape_score()
    assert repetition("fig14-grid")["sim"]["shape_score"] == expected


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(rep.WORKLOADS)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
        check=False)
    assert done.returncode != 0
    assert done.stdout == ""
