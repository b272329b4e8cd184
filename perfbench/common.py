"""Paths and statistics shared by the benchmark's workloads."""

from __future__ import annotations

import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def end_to_end(setups, walls, latencies_ms, op_wall_s, peak_rss_mb) -> tuple:
    """The end-to-end metrics shared by every workload, and their details."""
    tail_ms, pct = tail(latencies_ms)
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "ops_per_s": (len(latencies_ms) / op_wall_s, "1/s"),
        "op_p50_ms": (median(latencies_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"setups_s": setups, "walls_s": walls, "ops": len(latencies_ms),
              "op_tail_ms": {"percentile": pct, "samples": len(latencies_ms)}}
    return metrics, detail
