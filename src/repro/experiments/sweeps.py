"""Generic parameter-sweep utility for I-CASH experiments.

The ablation benches each sweep one knob by hand; this module offers the
same capability as a reusable API, so downstream users can explore the
configuration space without writing runner plumbing.

Example::

    from repro.experiments.parallel import RunSpec
    from repro.experiments.sweeps import sweep_config

    points = sweep_config(RunSpec(workload="sysbench", n_requests=6000),
                          "scan_interval", [250, 500, 1000, 2000])
    for point in points:
        print(point.value, point.result.transactions_per_s)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.experiments import parallel
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import RunResult


@dataclass
class SweepPoint:
    """One (parameter value, run outcome) pair of a sweep."""

    parameter: str
    value: object
    result: RunResult

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SweepPoint({self.parameter}={self.value!r}, "
                f"tx/s={self.result.transactions_per_s:.1f})")


def sweep_config(base: RunSpec, parameter: str, values: Sequence[object],
                 warmup_fraction: float = 0.4,
                 preload: bool = True,
                 jobs: int = 1,
                 ledger=None) -> List[SweepPoint]:
    """Run I-CASH once per value of one :class:`ICASHConfig` field.

    ``base`` describes the workload; each point runs it (same seed →
    same trace) against a fresh controller built from the workload's
    standard configuration with ``parameter`` overridden.  Points are
    independent runs, fanned out across ``jobs`` worker processes.

    ``ledger`` (a :class:`repro.ledger.LedgerWriter`) records every
    point under ``command="sweep"`` — always in value order, in this
    process, so the store is identical at any job count.
    """
    values = list(values)
    specs = [replace(base, system="icash",
                     warmup_fraction=warmup_fraction, preload=preload,
                     config_overrides=((parameter, value),))
             for value in values]
    outcomes = parallel.run_specs(specs, jobs=jobs)
    if ledger is not None and getattr(ledger, "enabled", False):
        for spec, value, outcome in zip(specs, values, outcomes):
            ledger.record(outcome.result, command="sweep", spec=spec,
                          extra={"parameter": parameter, "value": value},
                          host_wall_s=outcome.host_wall_s)
    return [SweepPoint(parameter, value, outcome.result)
            for value, outcome in zip(values, outcomes)]


def render_sweep(points: Sequence[SweepPoint],
                 metrics: Sequence[str] = ("transactions_per_s",
                                           "read_mean_us",
                                           "write_mean_us")) -> str:
    """Aligned text table of a sweep's outcome."""
    if not points:
        return "(empty sweep)"
    header = f"{points[0].parameter:>16} " + " ".join(
        f"{metric:>18}" for metric in metrics)
    lines = [header, "-" * len(header)]
    for point in points:
        cells = " ".join(
            f"{getattr(point.result, metric):>18.2f}" for metric in metrics)
        lines.append(f"{str(point.value):>16} {cells}")
    return "\n".join(lines)
