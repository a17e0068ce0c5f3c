"""End-to-end integration tests.

These drive the full pipeline — workload generator, the five storage
architectures, the experiment runner — with content verification on, and
assert the qualitative findings the reproduction is built around.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.recovery import recover
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import SYSTEM_NAMES, make_system
from repro.workloads import SysBenchWorkload


def verified_grid(base, systems):
    """Run ``base`` on each system with every read checked against the
    workload's shadow copy."""
    results = {}
    for name in systems:
        spec = replace(base, system=name)
        workload = spec.build_workload()
        results[name] = run_benchmark(
            workload, spec.build_system(workload), verify_reads=True,
            warmup_fraction=spec.warmup_fraction)
    return results


@pytest.fixture(scope="module")
def sysbench_grid():
    """One verified grid shared by this module's assertions."""
    return verified_grid(
        RunSpec(workload="sysbench", scale=0.25, n_requests=3000,
                warmup_fraction=0.4),
        SYSTEM_NAMES)


class TestAllSystemsServeCorrectContent:
    def test_grid_verifies(self, sysbench_grid):
        for name, result in sysbench_grid.items():
            assert result.verified_reads > 0, name


class TestQualitativeFindings:
    """The paper's core claims, asserted against live runs."""

    def test_icash_reduces_ssd_writes_drastically(self, sysbench_grid):
        """Table 6's point: I-CASH writes the SSD far less than either
        cache baseline and less than pure SSD."""
        icash = sysbench_grid["icash"].ssd_write_ops
        assert icash < sysbench_grid["fusion-io"].ssd_write_ops / 2
        assert icash < sysbench_grid["lru"].ssd_write_ops / 2
        assert icash < sysbench_grid["dedup"].ssd_write_ops / 2

    def test_icash_write_latency_order_of_magnitude_better(
            self, sysbench_grid):
        """Figure 7's point: delta writes are RAM-speed."""
        assert sysbench_grid["icash"].write_mean_us * 5 \
            < sysbench_grid["fusion-io"].write_mean_us

    def test_icash_beats_raid_overall(self, sysbench_grid):
        assert sysbench_grid["icash"].transactions_per_s \
            > 1.5 * sysbench_grid["raid0"].transactions_per_s

    def test_icash_competitive_with_pure_ssd(self, sysbench_grid):
        """Using one tenth of the SSD, within reach of (or better than)
        a full-size pure-SSD system."""
        assert sysbench_grid["icash"].transactions_per_s \
            > 0.85 * sysbench_grid["fusion-io"].transactions_per_s

    def test_cpu_overhead_is_bounded(self, sysbench_grid):
        """Figure 6(b)'s point: the I-CASH computation is affordable."""
        icash = sysbench_grid["icash"].cpu_utilization
        fusion = sysbench_grid["fusion-io"].cpu_utilization
        assert icash - fusion < 0.15

    def test_block_population_structure(self):
        """Section 5.1: a small reference set covers most blocks."""
        workload = SysBenchWorkload(scale=0.25, n_requests=2000)
        system = make_system("icash", workload)
        run_benchmark(workload, system)
        counts = system.block_kind_counts()
        total = sum(counts.values())
        assert counts["reference"] / total < 0.25
        assert counts["associate"] / total > 0.5


class TestMultiVMIntegration:
    def test_five_vm_grid_verifies_and_icash_wins(self):
        results = verified_grid(
            RunSpec(workload="tpcc", n_vms=3, vm_scale=0.1,
                    n_requests=600),
            ("fusion-io", "icash"))
        assert results["icash"].verified_reads > 0
        # Cross-VM image similarity makes I-CASH at least competitive.
        assert results["icash"].transactions_per_s \
            > 0.9 * results["fusion-io"].transactions_per_s


class TestRecoveryAfterRealWorkload:
    def test_crash_after_flush_recovers_benchmark_state(self):
        workload = SysBenchWorkload(scale=0.1, n_requests=1200)
        system = make_system("icash", workload)
        run_benchmark(workload, system, flush_at_end=True)
        image = recover(system)
        shadow = workload.shadow
        mismatches = sum(
            1 for lba in range(workload.n_blocks)
            if not np.array_equal(image.read(lba), shadow[lba]))
        assert mismatches == 0
