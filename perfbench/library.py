"""The warm library workloads, relativize-s4 and framechange-stream.

Each is a closed loop with one client: set-up builds the objects the
operations reuse, then timed passes run over a fixed, seeded list of
operations, one call at a time, for ``--seconds`` in all.  A pass
always holds the same mix of operations, so a seed changes only the operands.
Outputs are checked against formulas the benchmark computes itself, outside
the timed region.
"""

from __future__ import annotations

import gc
import os
import resource
import time

import numpy as np

from common import OUT_DIR, ROOT, end_to_end, median
from tracer import Tracer, load_spans, per_layer

SETUP_REPEATS = 3
TRACED_PASSES = 3
OPERANDS = 8        # operands per kind of operation in one pass
TOL = 1e-9


def _density(rng: np.random.Generator, dim: int, pure: bool = False) -> np.ndarray:
    cols = 1 if pure else dim
    g = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def _close(actual: np.ndarray, expected: np.ndarray) -> bool:
    scale = 1.0 + float(np.max(np.abs(expected)))
    return bool(np.max(np.abs(actual - expected)) <= TOL * scale)


# ---------------------------------------------------------------------------
# relativize-s4
# ---------------------------------------------------------------------------

class RelativizeS4:
    """``YenMap.apply``, ``YenMap.predual`` and ``triangular_reconstruction``
    on s4 against its left-regular representation (a 576-dim composite)."""

    @staticmethod
    def setup() -> dict:
        from qrframes import YenMap, canonical_frame, left_regular_rep, relative_orientation
        from qrframes.builtins import builtin_group

        group = builtin_group("s4")
        frame = canonical_frame(group)
        sys_rep = left_regular_rep(group)
        return {"group": group, "frame": frame, "sys_rep": sys_rep,
                "yen": YenMap(frame, sys_rep),
                "orientation": relative_orientation(frame, frame)}

    @staticmethod
    def operands(rng: np.random.Generator, n: int = 24) -> list:
        """One operation is a round of all three calls on its own operands.
        The three calls take about 35, 45 and 55 ms, so the median latency
        of single calls would jump between kinds from run to run; the
        round's latency has one mode."""
        ops = []
        for _ in range(OPERANDS):
            ops.append(("round", (("apply", _hermitian(rng, n)),
                                  ("predual", _density(rng, n * n), _hermitian(rng, n)),
                                  ("triangular", _density(rng, n), _density(rng, n * n)))))
        return ops

    @staticmethod
    def prepare(state: dict, ops: list) -> list:
        return ops

    @staticmethod
    def call(state: dict, op: tuple) -> list:
        return [RelativizeS4.call_one(state, sub) for sub in op[1]]

    @staticmethod
    def check(state: dict, op: tuple, out: list) -> bool:
        return all(RelativizeS4.check_one(state, sub, res) for sub, res in zip(op[1], out))

    @staticmethod
    def call_one(state: dict, op: tuple):
        from qrframes import triangular_reconstruction

        if op[0] == "apply":
            return state["yen"].apply(op[1])
        if op[0] == "predual":
            return state["yen"].predual(op[1])
        frame = state["frame"]
        return triangular_reconstruction(frame, frame, op[1], state["sys_rep"], op[2],
                                         orientation=state["orientation"])

    @staticmethod
    def check_one(state: dict, op: tuple, out) -> bool:
        """The canonical frame has E(g) = |g><g| and U(g)|h> = |gh>, both read
        off the Cayley table here rather than taken from the library."""
        table = np.asarray(state["group"].cayley)
        n = table.shape[0]
        perms = [np.eye(n)[:, table[g]] for g in range(n)]   # U(g) as matrices

        def apply(a):
            total = np.zeros((n * n, n * n), dtype=complex)
            for g in range(n):
                effect = np.zeros((n, n))
                effect[g, g] = 1.0
                total += np.kron(effect, perms[g] @ a @ perms[g].T)
            return total

        if op[0] == "apply":
            return _close(out, apply(op[1]))
        if op[0] == "predual":
            omega, a = op[1], op[2]
            lhs = np.trace(out @ a)
            rhs = np.trace(omega @ apply(a))
            return bool(abs(lhs - rhs) <= TOL * (1.0 + abs(rhs)))
        # mu(h) = tr[omega sum_g E(g) (x) U(g) E(h) U(g)^dag] = sum_g omega[(g, gh), (g, gh)]
        rho, omega = op[1], op[2]
        diag = np.real(np.diag(omega)).reshape(n, n)
        mu = np.array([sum(diag[g, table[g, h]] for g in range(n)) for h in range(n)])
        expected = sum(mu[h] * perms[h].T @ rho @ perms[h] for h in range(n))
        return _close(out, expected)


# ---------------------------------------------------------------------------
# framechange-stream
# ---------------------------------------------------------------------------

class FramechangeStream:
    """``frame_change(sc, 0, 1, state)`` plus ``class_deviation`` against the
    coherent output, on d5 with two left-right canonical frames and a
    left-right system: complement dim 100, 1000 framing generators."""

    @staticmethod
    def setup() -> dict:
        from qrframes import (MultiFrameScenario, canonical_frame,
                              coherent_frame_change_unitary, left_right_rep)
        from qrframes.builtins import builtin_group

        group = builtin_group("d5")
        frames = [canonical_frame(group, "left_right") for _ in range(2)]
        scenario = MultiFrameScenario(frames, left_right_rep(group))
        scenario.framing_context(0, (1,))
        scenario.framing_context(1, (0,))
        return {"scenario": scenario,
                "unitary": coherent_frame_change_unitary(scenario, 0, 1)}

    @staticmethod
    def operands(rng: np.random.Generator, dim: int = 100) -> list:
        return [("frame_change", _density(rng, dim, pure=k % 2 == 0))
                for k in range(OPERANDS)]

    @staticmethod
    def prepare(state: dict, ops: list) -> list:
        """Pair each input with its coherent output, outside the timed loop."""
        u = state["unitary"]
        return [(kind, rho, u @ rho @ u.conj().T) for kind, rho in ops]

    @staticmethod
    def call(state: dict, op: tuple):
        from qrframes import frame_change

        return frame_change(state["scenario"], 0, 1, op[1]).class_deviation(op[2])

    @staticmethod
    def check(state: dict, op: tuple, out) -> bool:
        return bool(out <= TOL)


WORKLOADS = {"relativize-s4": RelativizeS4, "framechange-stream": FramechangeStream}


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

def _pass(spec, state: dict, ops: list, latencies=None, outputs=None) -> int:
    """Run every operation once; returns the number that raised."""
    raised = 0
    for k, op in enumerate(ops):
        start = time.perf_counter()
        try:
            out = spec.call(state, op)
        except Exception:  # a failing operation is counted, never fatal
            out = None
            raised += 1
        if latencies is not None:
            latencies.append((time.perf_counter() - start) * 1e3)
        if outputs is not None:
            outputs[k] = out
    return raised


def _checked(spec, state: dict, ops: list, outputs: dict) -> int:
    """Failed checks among the stored outputs (an op that raised has none
    and was already counted)."""
    return sum(1 for k, out in outputs.items()
               if out is not None and not spec.check(state, ops[k], out))


def _warm_up(spec, state: dict, ops: list) -> None:
    """One operation of each kind, untimed and unchecked."""
    first = {}
    for op in ops:
        first.setdefault(op[0], op)
    _pass(spec, state, list(first.values()))


def run(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    spec = WORKLOADS[workload]
    ops = spec.operands(np.random.default_rng(seed))
    if trace:
        return _traced(workload, spec, ops, seed)
    # Set-ups and timed passes alternate, so that the passes sample the
    # machine across the whole run rather than one stretch of it.
    setups, latencies, walls, outputs = [], [], [], {}
    failed = 0
    for segment in range(SETUP_REPEATS):
        # Release the previous set-up before building the next; the
        # collection frees what reference cycles hold, so that the peak RSS
        # does not depend on when the collector last ran.
        state = None
        gc.collect()
        start = time.perf_counter()
        state = spec.setup()
        setups.append(time.perf_counter() - start)
        if segment == 0:
            ops = spec.prepare(state, ops)
        _warm_up(spec, state, ops)
        share = seconds * (segment + 1) / SETUP_REPEATS
        while not walls or (sum(walls) < share and time.monotonic() < deadline - 20.0):
            start = time.perf_counter()
            failed += _pass(spec, state, ops, latencies, outputs if not walls else None)
            walls.append(time.perf_counter() - start)
    failed += _checked(spec, state, ops, outputs)
    metrics, detail = end_to_end(
        setups=setups, walls=walls, latencies_ms=latencies, op_wall_s=sum(walls),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    detail["passes"] = len(walls)
    return {"attempted": len(latencies), "failed": failed, "metrics": metrics,
            "detail": detail}


def _traced(workload: str, spec, ops: list, seed: int) -> dict:
    """Untraced passes for reference, then a traced set-up and as many
    traced passes over the same fixed list of operations, so the counts
    repeat exactly for a fixed seed.  ``trace.overhead_frac`` compares the
    median pass walls."""
    state = spec.setup()
    ops = spec.prepare(state, ops)
    _warm_up(spec, state, ops)
    failed, plain = 0, []
    for _ in range(TRACED_PASSES):
        start = time.perf_counter()
        failed += _pass(spec, state, ops)
        plain.append(time.perf_counter() - start)

    tracer = Tracer()
    tracer.install()
    state = None
    gc.collect()
    state = spec.setup()
    tracer.phase = "run"
    traced, outputs = [], {}
    for _ in range(TRACED_PASSES):
        start = time.perf_counter()
        failed += _pass(spec, state, ops, outputs=outputs)
        traced.append(time.perf_counter() - start)
    failed += _checked(spec, state, ops, outputs)

    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    tracer.dump(path)
    no_suite = {"checks": 0, "failed": 0, "check_time_sum_s": 0.0}
    metrics = per_layer([load_spans(path)], no_suite, median(traced) / median(plain) - 1.0)
    detail = {"untraced_passes_s": plain, "traced_passes_s": traced,
              "spans": [os.path.relpath(path, ROOT)]}
    return {"attempted": 2 * TRACED_PASSES * len(ops), "failed": failed,
            "metrics": metrics, "detail": detail}
