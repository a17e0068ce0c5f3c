"""Per-layer metrics of a traced repetition.

Every layer is named after its module.  The ``<layer>.self_s`` metrics
of :data:`LAYERS` plus ``trace.other_s`` add up to ``trace.host_s``: the
parent process's traced wall time plus, for the fan-out grid, the
summed wall time of the worker tasks (workers run concurrently, so
their time is counted once per worker, not against the parent's clock).

A metric of a layer that a workload bypasses reads 0.
"""

from __future__ import annotations

#: Layers whose self times, plus ``trace.other_s``, sum to
#: ``trace.host_s``.
LAYERS = ("workloads", "controller", "baselines", "similarity",
          "signatures", "batch", "delta", "devices", "engine", "profile",
          "runner", "parallel", "figures")

#: Call-level spans reported with count, median and tail duration.
CALL_SPANS = ("controller.process", "baselines.process", "similarity.scan",
              "delta.encode", "delta.apply", "profile.record",
              "workloads.next")

#: Grid cells, in the order the figures module runs them.
SYSTEMS = ("fusion-io", "raid0", "dedup", "lru", "icash")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.other_s", "s", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.host_s", "s", "lower"),
       ("trace.overhead", "ratio", "lower"),
       ("workloads.dataset_s", "s", "lower"),
       ("workloads.gen_s", "s", "lower"),
       ("workloads.stream_memo_hit_ratio", "ratio", "higher"),
       ("workloads.dataset_memo_hit_ratio", "ratio", "higher"),
       ("workloads.stream_memo_mb", "MB", "lower"),
       ("controller.ingest_s", "s", "lower"),
       ("controller.ingest_blocks", "count", "lower"),
       ("controller.process_calls", "count", "lower"),
       ("controller.process_self_s", "s", "lower"),
       ("controller.flush_calls", "count", "lower"),
       ("controller.flush_s", "s", "lower"),
       ("controller.recon_memo_hit_ratio", "ratio", "higher"),
       ("controller.ram_delta_hit_ratio", "ratio", "higher"),
       ("similarity.scan_calls", "count", "lower"),
       ("similarity.scan_s", "s", "lower"),
       ("similarity.comparisons", "count", "lower"),
       ("signatures.cache_hit_ratio", "ratio", "higher"),
       ("signatures.cache_mb", "MB", "lower"),
       ("batch.signature_blocks", "count", "higher"),
       ("batch.encode_blocks", "count", "higher"),
       ("batch.s", "s", "lower"),
       ("delta.encode_calls", "count", "lower"),
       ("delta.encode_s", "s", "lower"),
       ("delta.apply_calls", "count", "lower"),
       ("delta.apply_s", "s", "lower"),
       ("delta.pack_s", "s", "lower")]
    + [(f"devices.{kind}_{what}", unit, "lower")
       for kind in ("ssd", "hdd", "dram", "raid")
       for what, unit in (("calls", "count"), ("s", "s"))]
    + [(f"devices.{station}.util", "ratio", "lower")
       for station in ("ssd", "hdd", "dram")]
    + [("engine.self_us_per_req", "us", "lower"),
       ("engine.queue_wait_mean_us", "us", "lower"),
       ("profile.record_calls", "count", "lower"),
       ("parallel.pool_start_s", "s", "lower"),
       ("parallel.arena_publish_s", "s", "lower"),
       ("parallel.arena_mb", "MB", "lower"),
       ("parallel.busy_s", "s", "lower"),
       ("parallel.efficiency", "ratio", "higher"),
       ("parallel.critical_cell_s", "s", "lower"),
       ("parallel.fallback_cells", "count", "lower")]
    + [(f"baselines.{system}.host_s", "s", "lower") for system in SYSTEMS]
    + [(f"{span}.{what}", unit, "lower")
       for span in CALL_SPANS
       for what, unit in (("count", "count"), ("p50_us", "us"),
                          ("tail_us", "us"), ("tail_pct", "pct"))]
    + [("sim.tx_per_s", "1/s", "higher"),
       ("sim.read_p99_us", "us", "lower"),
       ("sim.write_p99_us", "us", "lower"),
       ("sim.ssd_write_blocks", "blocks", "lower"),
       ("figures.shape_score", "ratio", "higher")])

#: Percentiles tried for a span's tail, highest first.
_TAILS = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail(durations_ns):
    """``(count, p50_us, tail_us, tail_pct)``: the median and the highest
    percentile with at least ten samples beyond it (0 when none has)."""
    count = len(durations_ns)
    if not count:
        return 0, 0.0, 0.0, 0.0
    ordered = sorted(durations_ns)

    def rank(pct):
        return ordered[min(count - 1, int(pct / 100.0 * count))] / 1e3

    for pct in _TAILS:
        if count * (1.0 - pct / 100.0) >= 10:
            return count, rank(50.0), rank(pct), pct
    return count, rank(50.0), 0.0, 0.0


def _ratio(hits, total):
    return hits / total if total else 0.0


def compute(accounts, cache, icash, requests, grid=None, shape=0.0):
    """The per-layer metric values (without ``trace.overhead``).

    ``accounts`` are span summaries (the parent process's first, then
    one per worker task); ``cache`` the summed memo counters of every
    process;
    ``icash`` the I-CASH run's result; ``grid`` for the fan-out grid:
    ``{"jobs", "wall_s", "cells": [(system, host_wall_s, parallel)]}``.
    """
    by_name, counts, layer_ns = {}, {}, {}
    for account in accounts:
        for layer, ns in account["layer_self_ns"].items():
            layer_ns[layer] = layer_ns.get(layer, 0) + ns
        for key, value in account["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for name, entry in account["by_name"].items():
            merged = by_name.setdefault(name, {"count": 0, "incl_ns": 0,
                                               "self_ns": 0,
                                               "durations": []})
            merged["count"] += entry["count"]
            merged["incl_ns"] += entry["incl_ns"]
            merged["self_ns"] += entry["self_ns"]
            merged["durations"].extend(entry["durations"])

    def incl(*names):
        return sum(by_name.get(n, {}).get("incl_ns", 0) for n in names) / 1e9

    def self_s(*names):
        return sum(by_name.get(n, {}).get("self_ns", 0) for n in names) / 1e9

    def calls(name):
        return by_name.get(name, {}).get("count", 0)

    host_ns = sum(account["wall_ns"] for account in accounts)
    m = {f"{layer}.self_s": layer_ns.get(layer, 0) / 1e9 for layer in LAYERS}
    m["trace.other_s"] = layer_ns.get("other", 0) / 1e9
    m["trace.wall_s"] = accounts[0]["wall_ns"] / 1e9
    m["trace.host_s"] = host_ns / 1e9
    m["trace.overhead"] = 0.0

    m["workloads.dataset_s"] = incl("workloads.dataset")
    m["workloads.gen_s"] = self_s("workloads.next", "workloads.requests")
    m["workloads.stream_memo_hit_ratio"] = _ratio(
        cache["stream.hits"], cache["stream.hits"] + cache["stream.misses"])
    m["workloads.dataset_memo_hit_ratio"] = _ratio(
        cache["dataset.hits"] + cache["dataset.attached"],
        cache["dataset.hits"] + cache["dataset.attached"]
        + cache["dataset.misses"])
    m["workloads.stream_memo_mb"] = cache["stream.bytes"] / 1e6

    counters = icash.counters
    m["controller.ingest_s"] = incl("controller.ingest")
    m["controller.ingest_blocks"] = counts.get("controller.ingest", 0)
    m["controller.process_calls"] = calls("controller.process")
    m["controller.process_self_s"] = self_s("controller.process")
    m["controller.flush_calls"] = calls("controller.flush")
    m["controller.flush_s"] = incl("controller.flush")
    m["controller.recon_memo_hit_ratio"] = _ratio(
        counters.get("recon_cache_hits", 0),
        counters.get("delta_reconstructions", 0))
    ram_hits = counters.get("ram_delta_hits", 0)
    m["controller.ram_delta_hit_ratio"] = _ratio(
        ram_hits, ram_hits + counters.get("log_delta_fetches", 0))

    m["similarity.scan_calls"] = calls("similarity.scan")
    m["similarity.scan_s"] = incl("similarity.scan")
    m["similarity.comparisons"] = counters.get("scan_comparisons", 0)

    m["signatures.cache_hit_ratio"] = _ratio(
        cache["signature.hits"],
        cache["signature.hits"] + cache["signature.misses"])
    m["signatures.cache_mb"] = cache["signature.size_bytes"] / 1e6
    m["batch.signature_blocks"] = counts.get("batch.signatures", 0) \
        + counts.get("batch.signatures_many", 0)
    m["batch.encode_blocks"] = counts.get("batch.encode", 0)
    m["batch.s"] = incl("batch.signatures", "batch.signatures_many",
                        "batch.encode", "batch.apply")

    m["delta.encode_calls"] = calls("delta.encode")
    m["delta.encode_s"] = incl("delta.encode")
    m["delta.apply_calls"] = calls("delta.apply")
    m["delta.apply_s"] = incl("delta.apply")
    m["delta.pack_s"] = incl("delta.pack")

    for kind in ("ssd", "hdd", "dram", "raid"):
        m[f"devices.{kind}_calls"] = calls(f"devices.{kind}")
        m[f"devices.{kind}_s"] = incl(f"devices.{kind}")
    stations = icash.queueing.stations if icash.queueing is not None else {}
    for station in ("ssd", "hdd", "dram"):
        m[f"devices.{station}.util"] = (
            stations[station].utilization if station in stations else 0.0)

    m["engine.self_us_per_req"] = m["engine.self_s"] / requests * 1e6
    m["engine.queue_wait_mean_us"] = (icash.queueing.wait_mean_us
                                      if icash.queueing is not None else 0.0)
    m["profile.record_calls"] = calls("profile.record")

    submits = by_name.get("parallel.submit", {}).get("durations", [])
    m["parallel.pool_start_s"] = incl("parallel.pool_init") \
        + (submits[0] / 1e9 if submits else 0.0)
    m["parallel.arena_publish_s"] = incl("parallel.publish")
    m["parallel.arena_mb"] = counts.get("parallel.publish", 0) / 1e6
    cells = grid["cells"] if grid else []
    busy = sum(host for _, host, _ in cells)
    m["parallel.busy_s"] = busy
    m["parallel.efficiency"] = (busy / (grid["jobs"] * grid["wall_s"])
                                if grid else 0.0)
    m["parallel.critical_cell_s"] = max((host for _, host, _ in cells),
                                        default=0.0)
    m["parallel.fallback_cells"] = sum(
        1 for _, _, parallel in cells if not parallel) \
        if grid and grid["jobs"] > 1 else 0
    host_of = {system: host for system, host, _ in cells}
    for system in SYSTEMS:
        m[f"baselines.{system}.host_s"] = host_of.get(system, 0.0)

    for span in CALL_SPANS:
        count, p50, tail_us, pct = tail(
            by_name.get(span, {}).get("durations", []))
        m[f"{span}.count"] = count
        m[f"{span}.p50_us"] = p50
        m[f"{span}.tail_us"] = tail_us
        m[f"{span}.tail_pct"] = pct

    m["sim.tx_per_s"] = icash.transactions_per_s
    m["sim.read_p99_us"] = icash.read_p99_us
    m["sim.write_p99_us"] = icash.write_p99_us
    m["sim.ssd_write_blocks"] = icash.ssd_write_blocks
    m["figures.shape_score"] = shape
    assert set(m) == {name for name, _, _ in PER_LAYER}
    return m
