"""Span tracer for the benchmark's traced pass.

``Tracer.install`` wraps the public functions and methods of every
``qrframes`` module from the outside; no library file changes.  Each call
becomes one span ``(id, parent, label, phase, start, end, extra)`` held in
memory; ``dump`` writes them out once the pass ends, and ``per_layer``
derives the per-layer table from them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import types
from collections import defaultdict

MODULES = ("groups", "builtins", "io", "operators", "quantum", "opequiv",
           "relativize", "framechange", "measurement", "suites", "cli")

# Callables reported under a metric label of their own, keyed by
# "<module>.<qualname>".  Every other public function or method is traced as
# "<module>.<qualname>" and counts only toward its module's self time.
LABELS = {
    "operators.kron": "operators.kron",
    "operators.contract_factor": "operators.contract_factor",
    "operators.permute_factors": "operators.permute_factors",
    "operators.op_norm": "operators.op_norm",
    "operators.is_positive": "operators.positivity",
    "operators.is_effect": "operators.positivity",
    "operators.is_density": "operators.positivity",
    "operators.pair_trace": "operators.pair_trace",
    "operators.HermitianBasis.to_coords": "operators.hermitian_coords",
    "operators.HermitianBasis.from_coords": "operators.hermitian_coords",
    "quantum.UnitaryRep.__init__": "quantum.rep_init",
    "quantum.POVM.__init__": "quantum.povm_init",
    "quantum.classify_frame": "quantum.classify",
    "quantum.UnitaryRep.act_op": "quantum.act",
    "quantum.UnitaryRep.act_state": "quantum.act",
    "quantum.born": "quantum.born",
    "opequiv.EffectContext.__init__": "opequiv.context_init",
    "opequiv.EffectContext.project": "opequiv.project",
    "opequiv.EffectContext.project_coords": "opequiv.project",
    "opequiv.intersect": "opequiv.intersect",
    "opequiv.g_twirl": "opequiv.twirl",
    "opequiv.g_twirl_predual": "opequiv.twirl",
    "opequiv.average_over": "opequiv.twirl",
    "opequiv.EffectContext.kernel_coords": "opequiv.kernel",
    "relativize.YenMap.apply": "relativize.apply",
    "relativize.HomogeneousYenMap.apply": "relativize.apply",
    "relativize.YenMap.predual": "relativize.predual",
    "relativize.YenMap.conditioned": "relativize.conditioned",
    "relativize.relative_orientation": "relativize.orientation",
    "framechange.MultiFrameScenario.yen_total": "framechange.yen_total",
    "framechange.MultiFrameScenario.yen_predual_total": "framechange.yen_predual_total",
    "framechange.MultiFrameScenario.framing_context": "framechange.framing_context",
    "framechange.frame_change": "framechange.frame_change",
    "framechange.FramedRelativeState.class_deviation": "framechange.class_deviation",
    "framechange.triangular_reconstruction": "framechange.triangular",
    "builtins.standard_system_rep": "builtins.system_rep",
}
FUNCTIONS = tuple(dict.fromkeys(LABELS.values()))

# Metrics that attribute set-up time; the rest describe the timed phase.
SETUP_LABELS = ("quantum.povm_init", "quantum.classify", "operators.positivity",
                "relativize.orientation", "opequiv.context_init",
                "framechange.framing_context")

CONTEXT_INIT = "opequiv.context_init"
FRAMING_CONTEXT = "framechange.framing_context"


class Tracer:
    """Records one span per wrapped call.

    The parent stack is thread-local because ``verify`` runs checks on worker
    threads; a span opened on a thread whose stack is empty takes the open
    span of the installing thread as its parent, so the suite runner's wait
    on its pool is covered by the checks it is waiting for.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn):
        counts_generators = label == CONTEXT_INIT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else 0)
            sid = next(self._ids)
            phase = self.phase
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                # EffectContext.__init__ keeps its generators on the instance
                # (none when it raised).
                extra = (len(getattr(args[0], "generators", ()))
                         if counts_generators else None)
                self.spans.append((sid, parent, label, phase, start, end, extra))

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the qrframes modules and
        rebind each module-level name that refers to one of them."""
        package = importlib.import_module("qrframes")
        mods = {m: importlib.import_module(f"qrframes.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(self._label(short, obj), obj)
                elif isinstance(obj, type):
                    for name, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and (
                                name == "__init__" or not name.startswith("_")):
                            setattr(obj, name, self.wrap(self._label(short, fn), fn))
        # ``from .operators import kron`` binds kron again in each importing
        # module, so every binding is replaced, not only the defining one.
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        # The suite runner looks its checks up in this table, not by name.
        checks = mods["suites"].CHECKS
        for name, (claim, fn) in list(checks.items()):
            checks[name] = (claim, wrapped.get(fn, fn))

    @staticmethod
    def _label(module: str, fn) -> str:
        key = f"{module}.{fn.__qualname__}"
        return LABELS.get(key, key)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)]


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _empty() -> dict:
    return {"calls": defaultdict(int), "self_s": defaultdict(float),
            "extra": defaultdict(int), "entries": defaultdict(int), "hits": 0}


def summarize(spans: list) -> dict:
    """Per-phase totals: calls, self time and extras per label, calls into
    each module from outside it, and the framing-context hits.

    A span nested directly in a span of the same label (``is_density``
    calling ``is_positive``, ``g_twirl`` calling ``average_over``) is not
    counted as another call; its self time still counts.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    out = defaultdict(_empty)
    for sid, parent, label, phase, start, end, extra in spans:
        agg = out[phase]
        kids = children.get(sid, ())
        agg["self_s"][label] += (end - start) - _covered(
            start, end, [(k[4], k[5]) for k in kids])
        parent_label = by_id[parent][2] if parent in by_id else ""
        if parent_label != label:
            agg["calls"][label] += 1
        module = label.split(".")[0]
        if parent_label.split(".")[0] != module:
            agg["entries"][module] += 1
        if extra is not None:
            agg["extra"][label] += extra
        if label == FRAMING_CONTEXT and not _builds_context(sid, children):
            agg["hits"] += 1
    return out


def _builds_context(sid: int, children: dict) -> bool:
    pending = list(children.get(sid, ()))
    while pending:
        span = pending.pop()
        if span[2] == CONTEXT_INIT:
            return True
        pending.extend(children.get(span[0], ()))
    return False


def per_layer(span_sets: list, suite_stats: dict, overhead_frac: float) -> dict:
    """The per-layer metrics as ``{name: (value, unit)}``, in the order
    BENCHMARK.json lists them, from one or more span lists (one per traced
    process).

    ``suite_stats`` holds the report-derived suite figures: ``checks``,
    ``failed`` and ``check_time_sum_s``, all zero for workloads that do not
    run the suite runner.
    """
    run, setup = _empty(), _empty()
    runner_wall = 0.0
    for spans in span_sets:
        phases = summarize(spans)
        for phase, total in (("run", run), ("setup", setup)):
            part = phases.get(phase)
            if part is None:
                continue
            for key in ("calls", "self_s", "extra", "entries"):
                for label, v in part[key].items():
                    total[key][label] += v
            total["hits"] += part["hits"]
        runner_wall += sum(s[5] - s[4] for s in spans
                           if s[2] == "suites.run_checks" and s[3] == "run")
    metrics = {}

    def module_self(agg, module):
        return sum((v for k, v in agg["self_s"].items() if k.split(".")[0] == module), 0.0)

    for m in MODULES:
        metrics[f"{m}.self_s"] = (module_self(run, m), "s")
    for label in FUNCTIONS:
        metrics[f"{label}.calls"] = (run["calls"][label], "count")
        metrics[f"{label}.self_s"] = (run["self_s"][label], "s")
    metrics[f"{CONTEXT_INIT}.generators"] = (run["extra"][CONTEXT_INIT], "count")
    fc_calls = run["calls"][FRAMING_CONTEXT]
    metrics[f"{FRAMING_CONTEXT}.hit_ratio"] = (run["hits"] / fc_calls if fc_calls else 0.0,
                                               "ratio")
    metrics["measurement.calls"] = (run["entries"]["measurement"], "count")
    check_time = suite_stats["check_time_sum_s"]
    metrics["suites.checks.count"] = (suite_stats["checks"], "count")
    metrics["suites.checks_failed.count"] = (suite_stats["failed"], "count")
    metrics["suites.check_time_sum_s"] = (check_time, "s")
    metrics["suites.concurrency"] = (check_time / runner_wall if runner_wall else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    for m in MODULES:
        metrics[f"setup.{m}.self_s"] = (module_self(setup, m), "s")
    for label in SETUP_LABELS:
        metrics[f"setup.{label}.calls"] = (setup["calls"][label], "count")
        metrics[f"setup.{label}.self_s"] = (setup["self_s"][label], "s")
    metrics[f"setup.{CONTEXT_INIT}.generators"] = (setup["extra"][CONTEXT_INIT], "count")
    return metrics
