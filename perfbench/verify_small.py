"""verify-small: ``qrframes verify --group builtin:<g> --suite all --seed <seed>``
for g = z8 and then q8, one CLI child at a time.

Every invocation gets a fresh interpreter.  ``suites._EXHAUSTIVENESS_MEMO``
is keyed on ``id(group)`` and lives as long as the process: repeating in one
process would hide the context builds from later repetitions and could hand
one group another group's contexts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from common import HERE, OUT_DIR, ROOT, SRC, end_to_end, median
from tracer import per_layer, load_spans

GROUPS = ("z8", "q8")
CHILD = os.path.join(HERE, "verify_child.py")
MIN_REPETITIONS = 2  # the report-stability gate compares repetitions


def _strip_times(report: dict) -> dict:
    return {**report, "checks": [{k: v for k, v in c.items() if k != "runtime_ms"}
                                 for c in report["checks"]]}


def run_child(group: str, seed: int, spans_path: str, deadline: float) -> dict:
    """Run one invocation; returns its wall and setup times, report and
    resource figures.  A child that crashes, times out or prints no report
    comes back with ``report`` None."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, SRC, group, str(seed), spans_path],
                              capture_output=True, text=True,
                              timeout=max(5.0, deadline - start))
        stdout, rc = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired:
        stdout, rc = "", None
    wall = time.monotonic() - start
    lines = []
    for line in stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:  # a child cut off mid-line printed no result
            pass
    first = lines[0] if lines else {}
    last = lines[1] if len(lines) > 1 else {}
    return {
        "group": group,
        "wall_s": wall,
        "setup_s": first["setup_end"] - start if "setup_end" in first else None,
        "planned": first.get("checks"),
        "rc": last.get("rc", rc),
        "report": last.get("report"),
        "worker_threads": last.get("worker_threads"),
        "peak_rss_mb": last.get("peak_rss_mb", 0.0),
    }


def _gate(children: list) -> tuple:
    """(attempted, failed) over all invocations: a child that exits non-zero
    counts all of its checks as failed, as does one whose report differs
    from the first report of its group apart from ``runtime_ms``."""
    attempted = failed = 0
    planned = {c["group"]: c["planned"] for c in children if c["planned"]}
    first = {}
    for c in children:
        n = c["planned"] or planned.get(c["group"]) or 1
        attempted += n
        report = c["report"]
        if c["rc"] != 0 or report is None:
            failed += n
            continue
        stripped = _strip_times(report)
        reference = first.setdefault(c["group"], stripped)
        if stripped != reference:
            failed += n
            continue
        failed += sum(1 for check in report["checks"] if not check["pass"])
        failed += max(0, n - len(report["checks"]))
    return attempted, failed


def _span_paths(tag: str) -> list:
    return [os.path.join(OUT_DIR, f"spans-verify-small-{tag}-{g}.json") for g in GROUPS]


def _repetition(seed: int, deadline: float, trace_tag=None) -> list:
    spans = ["-"] * len(GROUPS) if trace_tag is None else _span_paths(trace_tag)
    return [run_child(g, seed, path, deadline) for g, path in zip(GROUPS, spans)]


def run(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    start = time.monotonic()
    if trace:
        return _traced(seed, deadline)
    reps = []
    while len(reps) < MIN_REPETITIONS or (
            time.monotonic() - start < seconds
            and time.monotonic() + sum(c["wall_s"] for c in reps[-1]) < deadline):
        reps.append(_repetition(seed, deadline))
    children = [c for rep in reps for c in rep]
    attempted, failed = _gate(children)
    walls = [sum(c["wall_s"] for c in rep) for rep in reps]
    # An operation is one CLI invocation, timed from spawn to exit.
    metrics, detail = end_to_end(
        setups=[c["setup_s"] for c in children if c["setup_s"] is not None],
        walls=walls, latencies_ms=[c["wall_s"] * 1e3 for c in children],
        op_wall_s=sum(walls),
        # The peak of one repetition depends on which checks the worker
        # threads happen to run together; the median over repetitions
        # steadies it.
        peak_rss_mb=median([max(c["peak_rss_mb"] for c in rep) for rep in reps]))
    detail["children"] = [{k: c[k] for k in ("group", "wall_s", "setup_s", "rc")}
                          for c in children]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail,
            "env": {"runner_worker_threads": max((c["worker_threads"] or 0)
                                                 for c in children)}}


def _traced(seed: int, deadline: float) -> dict:
    """One untraced repetition for reference, then one traced repetition."""
    plain = _repetition(seed, deadline)
    tag = f"seed{seed}"
    for path in _span_paths(tag):
        if os.path.exists(path):
            os.remove(path)
    traced = _repetition(seed, deadline, trace_tag=tag)
    attempted, failed = _gate(plain + traced)
    plain_wall = sum(c["wall_s"] for c in plain)
    traced_wall = sum(c["wall_s"] for c in traced)
    span_sets, paths = [], []
    for path in _span_paths(tag):
        if os.path.exists(path):
            span_sets.append(load_spans(path))
            paths.append(path)
    reports = [c["report"] for c in traced if c["report"]]
    suite_stats = {
        "checks": sum(len(r["checks"]) for r in reports),
        "failed": sum(r["summary"]["failed"] for r in reports),
        "check_time_sum_s": sum(ch["runtime_ms"] for r in reports for ch in r["checks"]) / 1e3,
    }
    metrics = per_layer(span_sets, suite_stats, (traced_wall - plain_wall) / plain_wall)
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans": [os.path.relpath(p, ROOT) for p in paths]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail,
            "env": {"runner_worker_threads": max((c["worker_threads"] or 0)
                                                 for c in plain + traced)}}
