"""Regenerate ``golden.json``: the simulated-result digests at the
default seed, one per input variant of every workload.

    python3 perfbench/make_golden.py

Run it only when a change is meant to alter simulated results, and say
so with the change.  For the grid it also stores the shape score that
``figures.figure14`` computes on its own (serial, in-process) for each
variant's seed; every run at the default seed must reproduce it.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import rep  # noqa: E402
import run  # noqa: E402

DEFAULT_SEED = 2011


def figure_shape(config, seed):
    from repro.experiments import figures

    figures.clear_cache()
    figure = getattr(figures, config["figure"])
    return figure(config["n_requests"], seed).shape_score()


def main() -> int:
    golden = {}
    for workload, config in rep.WORKLOADS.items():
        digests, shapes = [], []
        for variant in range(rep.VARIANTS):
            seed = rep.variant_seed(DEFAULT_SEED, variant)
            report = run.run_rep(workload, seed, False,
                                 deadline=time.monotonic() + 600.0)
            if report["verify_error"]:
                raise SystemExit(f"{workload}: {report['verify_error']}")
            digests.append(report["digest"])
            shapes.append(figure_shape(config, seed)
                          if "figure" in config else 0.0)
            print(workload, variant, report["digest"], shapes[-1])
        golden[workload] = {str(DEFAULT_SEED): {"digests": digests,
                                                "shape_score": shapes}}
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
