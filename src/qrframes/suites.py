"""Verification suites: every decidable identity of the calculus, packaged as
named checks that report their worst deviation.

Each check is a pure function of (group, rng, tol, trials); the runner
executes a selection one check after another and assembles a deterministic
report ordered by check name.
"""

from __future__ import annotations

import math
import time
import zlib
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from .builtins import standard_system_rep
from .framechange import (
    MultiFrameScenario,
    coherent_frame_change_unitary,
    frame_change,
    triangular_reconstruction,
)
from .groups import FiniteGroup
from .measurement import canonical_scheme, check_prc, check_rrc, rrc_relative_orientation
from .opequiv import (
    EffectContext,
    framed_subspace,
    g_twirl,
    g_twirl_predual,
    intersect,
    invariant_subspace,
    span_residual,
)
from .operators import (
    HermitianBasis,
    dagger,
    kron,
    op_norm,
    permute_factors,
    random_density,
    random_hermitian,
    random_pure_state,
    worst_of,
)
from .quantum import (
    born,
    canonical_frame,
    classify_frame,
    covariance_deviation,
    left_regular_rep,
    left_right_rep,
    localizing_state,
    uniform_povm,
)
from .relativize import (
    YenMap,
    conditioned_yen,
    product_relative_state,
    relative_orientation,
    yen_predual,
)

SCENARIO_DIM_CAP = 1024


@dataclass
class CheckResult:
    name: str
    claim: str
    passed: bool
    max_deviation: float
    trials: int
    runtime_ms: float
    error: Optional[str] = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "claim": self.claim,
            "pass": bool(self.passed),
            "max_deviation": float(self.max_deviation),
            "trials": int(self.trials),
            "runtime_ms": round(float(self.runtime_ms), 3),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _pair_scenario(group: FiniteGroup, kind: str = "left_regular",
                   system: str = "auto") -> MultiFrameScenario:
    frames = [canonical_frame(group, kind), canonical_frame(group, kind)]
    sys_rep = None
    if system == "auto" and 2 * group.order ** 2 <= SCENARIO_DIM_CAP:
        sys_rep = standard_system_rep(group, 2)
    elif system == "regular" and group.order ** 3 <= SCENARIO_DIM_CAP:
        sys_rep = left_right_rep(group) if kind == "left_right" else left_regular_rep(group)
    return MultiFrameScenario(frames, sys_rep)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def check_covariance(group, rng, tol, trials, kind):
    frame = canonical_frame(group, kind)
    return {"max_deviation": covariance_deviation(frame.povm, frame.rep),
            "trials": group.order ** 2}


def check_classification(group, rng, tol, trials):
    frame = canonical_frame(group)
    flags_ok = frame.ideal and frame.localizable and frame.complete
    uniform = classify_frame(frame.rep, uniform_povm(frame.rep))
    uniform_ok = uniform.principal and (not uniform.localizable or group.order == 1)
    return {"max_deviation": 0.0 if (flags_ok and uniform_ok) else 1.0,
            "trials": 2}


def check_born_equivariance(group, rng, tol, trials):
    frame = canonical_frame(group)
    worst = 0.0
    for _ in range(trials):
        rho = random_density(rng, frame.dim)
        mu = born(frame.povm, rho)
        for h in group.elements():
            shifted = born(frame.povm, frame.rep.act_state(h, rho))
            expected = np.array([mu[frame.povm.act(h, x)] for x in range(frame.povm.size)])
            worst = worst_of(worst, float(np.max(np.abs(shifted - expected))))
    return {"max_deviation": worst, "trials": trials}


# ---------------------------------------------------------------------------
# relativization channel
# ---------------------------------------------------------------------------

def check_yen_invariance(group, rng, tol, trials):
    frame = canonical_frame(group)
    # regular system doubles the group dims; switch to the small catalog rep
    # once the composite would outgrow quick exhaustive norm scans
    sys_rep = left_regular_rep(group) if group.order <= 12 else standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    diag = frame.rep.tensor(sys_rep)
    worst = 0.0
    count = 0
    for b in HermitianBasis(sys_rep.dim).matrices:
        image = ym.apply(b)
        for h in group.elements():
            worst = worst_of(worst, op_norm(diag.act_op(h, image) - image))
            count += 1
    return {"max_deviation": worst, "trials": count}


def check_yen_unital(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    image = YenMap(frame, sys_rep).apply(np.eye(2, dtype=complex))
    return {"max_deviation": op_norm(image - np.eye(2 * group.order)),
            "trials": 1}


def check_yen_cp(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    worst = 0.0
    runs = 0
    for k in (2, 3):
        for _ in range(max(1, trials // 4)):
            p = random_density(rng, sys_rep.dim * k) * (sys_rep.dim * k)
            out = np.zeros((frame.dim * sys_rep.dim * k,) * 2, dtype=complex)
            for g in group.elements():
                ug = np.kron(sys_rep.mat(g), np.eye(k))
                out += kron(frame.povm.effect(g), ug @ p @ dagger(ug))
            low = float(np.min(np.linalg.eigvalsh((out + dagger(out)) / 2)))
            worst = worst_of(worst, 0.0, -low)
            runs += 1
    return {"max_deviation": worst, "trials": runs}


def check_yen_isometry(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    worst = 0.0
    mats = HermitianBasis(sys_rep.dim).matrices
    for _ in range(trials):
        mats.append(random_hermitian(rng, sys_rep.dim))
    for a in mats:
        worst = worst_of(worst, abs(op_norm(ym.apply(a)) - op_norm(a)))
    return {"max_deviation": worst, "trials": len(mats)}


def check_yen_multiplicative(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    worst = 0.0
    for _ in range(trials):
        a = random_hermitian(rng, sys_rep.dim)
        b = random_hermitian(rng, sys_rep.dim)
        worst = worst_of(worst, op_norm(ym.apply(a @ b) - ym.apply(a) @ ym.apply(b)))
    return {"max_deviation": worst, "trials": trials}


def check_yen_predual_duality(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    worst = 0.0
    for _ in range(trials):
        omega = random_hermitian(rng, ym.dim_total)
        a = random_hermitian(rng, sys_rep.dim)
        lhs = np.trace(ym.predual(omega) @ a)
        rhs = np.trace(omega @ ym.apply(a))
        worst = worst_of(worst, abs(lhs - rhs))
    return {"max_deviation": worst, "trials": trials}


# ---------------------------------------------------------------------------
# exhaustiveness of relativized effects
# ---------------------------------------------------------------------------

# Values shared by the checks of the current run_checks call, built once; a
# check called on its own builds what it needs.
_RUN_MEMO: ContextVar[Optional[dict]] = ContextVar("qrframes_run_memo", default=None)


def _exhaustiveness_contexts(group, sys_dim=2):
    def build():
        frame = canonical_frame(group)
        sys_rep = standard_system_rep(group, sys_dim)
        ym = YenMap(frame, sys_rep)
        relative = EffectContext([ym.apply(b) for b in HermitianBasis(sys_rep.dim).matrices],
                                 dim=ym.dim_total)
        framed = framed_subspace(frame, sys_rep.dim)
        invariant = invariant_subspace(frame.rep.tensor(sys_rep))
        return relative, framed, intersect(framed, invariant)

    memo = _RUN_MEMO.get()
    if memo is None:
        return build()
    key = ("exhaustiveness", sys_dim)
    if key not in memo:
        memo[key] = build()
    return memo[key]


def check_exhaustiveness_rank(group, rng, tol, trials):
    relative, _, relational = _exhaustiveness_contexts(group)
    return {"max_deviation": float(abs(relative.rank - relational.rank)), "trials": 1}


def check_exhaustiveness_residual(group, rng, tol, trials):
    relative, _, relational = _exhaustiveness_contexts(group)
    dev = worst_of(span_residual(relative, relational), span_residual(relational, relative))
    return {"max_deviation": dev, "trials": 2 * (relative.rank + relational.rank)}


def check_relative_inside_framed(group, rng, tol, trials):
    relative, framed, _ = _exhaustiveness_contexts(group)
    return {"max_deviation": span_residual(relative, framed), "trials": relative.rank}


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def check_localized_identity(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = left_regular_rep(group) if group.order <= 12 else standard_system_rep(group, 2)
    omega = localizing_state(frame, group.identity)
    worst = 0.0
    count = 0
    for b in HermitianBasis(sys_rep.dim).matrices:
        worst = worst_of(worst, op_norm(conditioned_yen(frame, sys_rep, omega, b) - b))
        count += 1
    return {"max_deviation": worst, "trials": count}


def check_invariant_state_twirl(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    worst = 0.0
    for _ in range(trials):
        omega = g_twirl_predual(frame.rep, random_density(rng, frame.dim))
        a = random_hermitian(rng, sys_rep.dim)
        worst = worst_of(worst, op_norm(
            conditioned_yen(frame, sys_rep, omega, a) - g_twirl(sys_rep, a)
        ))
    return {"max_deviation": worst, "trials": trials}


def check_distribution_dependence(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    worst = 0.0
    for _ in range(trials):
        omega = random_density(rng, frame.dim)
        dephased = np.diag(np.diag(omega))
        a = random_hermitian(rng, sys_rep.dim)
        worst = worst_of(worst, op_norm(
            conditioned_yen(frame, sys_rep, omega, a)
            - conditioned_yen(frame, sys_rep, dephased, a)
        ))
    return {"max_deviation": worst, "trials": trials}


def check_product_state_symmetry(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    worst = 0.0
    for _ in range(trials):
        omega = random_density(rng, frame.dim)
        rho = random_density(rng, sys_rep.dim)
        for h in group.elements():
            lhs = product_relative_state(frame, sys_rep, frame.rep.act_state(h, omega), rho)
            rhs = product_relative_state(
                frame, sys_rep, omega, sys_rep.act_state(group.inv(h), rho)
            )
            worst = worst_of(worst, op_norm(lhs - rhs))
    return {"max_deviation": worst, "trials": trials * group.order}


def check_invariant_system_state(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    worst = 0.0
    for _ in range(trials):
        omega = random_density(rng, frame.dim)
        rho = g_twirl_predual(sys_rep, random_density(rng, sys_rep.dim))
        worst = worst_of(worst, op_norm(product_relative_state(frame, sys_rep, omega, rho) - rho))
    return {"max_deviation": worst, "trials": trials}


def check_lift_roundtrip(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    omega = localizing_state(frame, group.identity)
    worst = 0.0
    for _ in range(trials):
        rel = random_density(rng, sys_rep.dim)
        worst = worst_of(worst, op_norm(
            yen_predual(frame, sys_rep, kron(omega, rel)) - rel
        ))
    return {"max_deviation": worst, "trials": trials}


# ---------------------------------------------------------------------------
# relative orientation
# ---------------------------------------------------------------------------

def check_orientation_delta(group, rng, tol, trials):
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    orientation = relative_orientation(f1, f2)
    omega = localizing_state(f1, group.identity)
    rho = localizing_state(f2, group.identity)
    worst = 0.0
    for h in group.elements():
        state = kron(omega, f2.rep.act_state(group.inv(h), rho))
        mu = born(orientation, state)
        expected = np.zeros(group.order)
        expected[h] = 1.0
        worst = worst_of(worst, float(np.max(np.abs(mu - expected))))
    return {"max_deviation": worst, "trials": group.order}


def check_orientation_swap(group, rng, tol, trials):
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    a = relative_orientation(f1, f2)
    b = relative_orientation(f2, f1)
    dims = (f2.dim, f1.dim)
    worst = 0.0
    for x in group.elements():
        swapped = permute_factors(b.effect(group.inv(x)), dims, [1, 0])
        worst = worst_of(worst, float(np.max(np.abs(a.effect(x) - swapped))))
    return {"max_deviation": worst, "trials": group.order}


def check_orientation_convolution(group, rng, tol, trials):
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    orientation = relative_orientation(f1, f2)
    worst = 0.0
    for _ in range(trials):
        omega = random_density(rng, f1.dim)
        rho = random_density(rng, f2.dim)
        p = born(f1.povm, omega)
        q = born(f2.povm, rho)
        mu = born(orientation, kron(omega, rho))
        expected = np.array([
            sum(p[g] * q[group.mul(g, x)] for g in group.elements())
            for x in group.elements()
        ])
        worst = worst_of(worst, float(np.max(np.abs(mu - expected))))
    return {"max_deviation": worst, "trials": trials}


# ---------------------------------------------------------------------------
# frame changes
# ---------------------------------------------------------------------------

def check_fc_well_defined(group, rng, tol, trials):
    scenario = _pair_scenario(group)
    ctx = scenario.framing_context(0, (1,))
    kernel = ctx.kernel_coords()
    worst = 0.0
    runs = 0
    for t in range(trials):
        state = random_density(rng, ctx.dim)
        base = frame_change(scenario, 0, 1, state)
        if kernel.shape[0] == 0:
            worst = worst_of(worst, 0.0)
            runs += 1
            continue
        row = kernel[int(rng.integers(kernel.shape[0]))]
        bump = 0.25 * ctx.basis.from_coords(row)
        other = frame_change(scenario, 0, 1, state + bump)
        worst = worst_of(worst, base.class_deviation(other))
        runs += 1
    return {"max_deviation": worst, "trials": runs}


def check_fc_diagram(group, rng, tol, trials):
    scenario = _pair_scenario(group)
    worst = 0.0
    for _ in range(trials):
        omega = random_density(rng, scenario.total_dim)
        left = scenario.yen_predual_total(1, omega)
        rel = scenario.yen_predual_total(0, omega)
        moved = frame_change(scenario, 0, 1, rel)
        worst = worst_of(worst, moved.class_deviation(left))
    return {"max_deviation": worst, "trials": trials}


def check_fc_inverse(group, rng, tol, trials):
    scenario = _pair_scenario(group)
    ctx = scenario.framing_context(0, (1,))
    worst = 0.0
    for _ in range(trials):
        state = random_density(rng, ctx.dim)
        back = frame_change(scenario, 1, 0, frame_change(scenario, 0, 1, state))
        delta = back.matrix - state
        worst = worst_of(worst, float(np.max(np.abs(ctx.pairings(delta)))))
    return {"max_deviation": worst, "trials": trials}


def check_fc_affine(group, rng, tol, trials):
    scenario = _pair_scenario(group)
    dim = int(np.prod(scenario.complement_dims(0)))
    worst = 0.0
    for _ in range(trials):
        x = random_density(rng, dim)
        y = random_density(rng, dim)
        lam = float(rng.uniform(0.0, 1.0))
        mix = frame_change(scenario, 0, 1, lam * x + (1 - lam) * y)
        parts = (lam * frame_change(scenario, 0, 1, x).matrix
                 + (1 - lam) * frame_change(scenario, 0, 1, y).matrix)
        worst = worst_of(worst, mix.class_deviation(parts))
    return {"max_deviation": worst, "trials": trials}


def check_fc_ket_transform(group, rng, tol, trials):
    scenario = _pair_scenario(group, kind="left_right", system="regular")
    n = group.order
    with_system = scenario.system_rep is not None
    worst = 0.0
    runs = 0
    kets = []
    for _ in range(min(trials, 4)):
        h2 = int(rng.integers(n))
        h3 = int(rng.integers(n)) if with_system else None
        kets.append((h2, h3))
    for h2, h3 in kets:
        state = np.zeros((n, n), dtype=complex)
        state[h2, h2] = 1.0
        expected_idx = [group.inv(h2)]
        if with_system:
            sys_state = np.zeros((n, n), dtype=complex)
            sys_state[h3, h3] = 1.0
            state = kron(state, sys_state)
            expected_idx.append(group.mul(h3, group.inv(h2)))
        moved = frame_change(scenario, 0, 1, state)
        expected = np.zeros_like(moved.matrix)
        flat = 0
        if with_system:
            flat = expected_idx[0] * n + expected_idx[1]
        else:
            flat = expected_idx[0]
        expected[flat, flat] = 1.0
        worst = worst_of(worst, float(np.max(np.abs(moved.matrix - expected))))
        runs += 1
    return {"max_deviation": worst, "trials": runs}


def check_fc_composition(group, rng, tol, trials):
    from .framechange import compose_check

    frames = [canonical_frame(group) for _ in range(3)]
    scenario = MultiFrameScenario(frames, None)
    worst = 0.0
    runs = 0
    for _ in range(max(3, trials // 4)):
        state = random_density(rng, int(np.prod(scenario.complement_dims(0))))
        worst = worst_of(worst, compose_check(scenario, state)["max_deviation"])
        runs += 1
    return {"max_deviation": worst, "trials": runs}


# ---------------------------------------------------------------------------
# agreement with the coherent change
# ---------------------------------------------------------------------------

def check_agreement_states(group, rng, tol, trials):
    from .framechange import operational_agreement

    scenario = _pair_scenario(group, kind="left_right")
    dim = int(np.prod(scenario.complement_dims(0)))
    worst = 0.0
    for t in range(trials):
        state = random_pure_state(rng, dim) if t % 2 == 0 else random_density(rng, dim)
        worst = worst_of(worst, operational_agreement(scenario, state)["max_deviation"])
    return {"max_deviation": worst, "trials": trials}


def check_agreement_kets(group, rng, tol, trials):
    scenario = _pair_scenario(group, kind="left_right", system="regular")
    u = coherent_frame_change_unitary(scenario, 0, 1)
    n = group.order
    with_system = scenario.system_rep is not None
    worst = 0.0
    runs = 0
    for _ in range(min(trials, 4)):
        h2 = int(rng.integers(n))
        ket = np.zeros((n, n), dtype=complex)
        ket[h2, h2] = 1.0
        state = ket
        if with_system:
            h3 = int(rng.integers(n))
            sys_ket = np.zeros((n, n), dtype=complex)
            sys_ket[h3, h3] = 1.0
            state = kron(ket, sys_ket)
        moved = frame_change(scenario, 0, 1, state)
        coherent = u @ state @ dagger(u)
        worst = worst_of(worst, float(np.max(np.abs(moved.matrix - coherent))))
        runs += 1
    return {"max_deviation": worst, "trials": runs}


def check_agreement_lueders(group, rng, tol, trials):
    scenario = _pair_scenario(group, kind="left_right", system="regular")
    n = group.order
    u = coherent_frame_change_unitary(scenario, 0, 1)
    with_system = scenario.system_rep is not None
    h1, h2 = 0, n - 1
    alpha, beta = np.sqrt(0.3), np.sqrt(0.7)
    vec = np.zeros(n, dtype=complex)
    vec[h1] += alpha
    vec[h2] += beta
    vec = vec / np.linalg.norm(vec)
    if with_system:
        g0 = int(rng.integers(n))
        sys_vec = np.zeros(n, dtype=complex)
        sys_vec[g0] = 1.0
        vec = np.kron(vec, sys_vec)
    state = np.outer(vec, np.conj(vec))
    moved = frame_change(scenario, 0, 1, state)
    coherent = u @ state @ dagger(u)
    pvm = scenario.frames[0].povm
    rest_dim = moved.matrix.shape[0] // n
    lueders = np.zeros_like(coherent)
    for x in range(n):
        p = np.kron(pvm.effect(x), np.eye(rest_dim, dtype=complex))
        lueders += p @ coherent @ p
    class_dev = moved.class_deviation(coherent)
    matrix_dev = float(np.max(np.abs(moved.matrix - lueders)))
    return {"max_deviation": worst_of(class_dev, matrix_dev), "trials": 1}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def check_measurement_prc(group, rng, tol, trials):
    scheme = canonical_scheme(group)
    report = check_prc(scheme, tol)
    return {"max_deviation": report["max_deviation"], "trials": report["outcomes"]}


def check_measurement_rrc(group, rng, tol, trials):
    scheme = canonical_scheme(group)
    report = check_rrc(scheme, left_regular_rep(group), tol)
    return {"max_deviation": report["max_deviation"], "trials": report["pairs"]}


def check_measurement_orientation(group, rng, tol, trials):
    frame = canonical_frame(group)
    system = canonical_frame(group)
    report = rrc_relative_orientation(frame, system, tol)
    return {"max_deviation": report["max_deviation"], "trials": report["pairs"]}


# ---------------------------------------------------------------------------
# triangular reconstruction
# ---------------------------------------------------------------------------

def check_reconstruction_product_form(group, rng, tol, trials):
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    orientation = relative_orientation(f1, f2)
    worst = 0.0
    for _ in range(trials):
        rho = random_density(rng, sys_rep.dim)
        omega = random_density(rng, f1.dim * f2.dim)
        direct = triangular_reconstruction(f1, f2, rho, sys_rep, omega,
                                           orientation=orientation)
        rel2 = yen_predual(f1, f2.rep, omega)
        product = yen_predual(f2, sys_rep, kron(rel2, rho))
        worst = worst_of(worst, op_norm(direct - product))
    return {"max_deviation": worst, "trials": trials}


def check_reconstruction_localized(group, rng, tol, trials):
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    orientation = relative_orientation(f1, f2)
    worst = 0.0
    for h in group.elements():
        rho = random_density(rng, sys_rep.dim)
        omega = kron(localizing_state(f1, group.identity),
                     f2.rep.act_state(group.inv(h), localizing_state(f2, group.identity)))
        out = triangular_reconstruction(f1, f2, rho, sys_rep, omega,
                                        orientation=orientation)
        worst = worst_of(worst, op_norm(out - sys_rep.act_state(h, rho)))
    return {"max_deviation": worst, "trials": group.order}


def check_reconstruction_invariant(group, rng, tol, trials):
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    orientation = relative_orientation(f1, f2)
    worst = 0.0
    for _ in range(trials):
        rho = g_twirl_predual(sys_rep, random_density(rng, sys_rep.dim))
        omega = random_density(rng, f1.dim * f2.dim)
        out = triangular_reconstruction(f1, f2, rho, sys_rep, omega,
                                        orientation=orientation)
        worst = worst_of(worst, op_norm(out - rho))
    return {"max_deviation": worst, "trials": trials}


# ---------------------------------------------------------------------------
# catalog and runner
# ---------------------------------------------------------------------------

CHECKS: Dict[str, tuple] = {
    "covariance.left_regular": (
        "canonical sharp observable is covariant for the left-regular action",
        partial(check_covariance, kind="left_regular")),
    "covariance.left_right": (
        "inverse-point sharp observable is covariant for the left-right action",
        partial(check_covariance, kind="left_right")),
    "covariance.classification": (
        "canonical frame is ideal, localizable and complete; uniform frame is not localizable",
        check_classification),
    "covariance.born_equivariance": (
        "outcome distribution of a rotated state equals the shifted distribution",
        check_born_equivariance),
    "yen.invariance": (
        "relativized operators are invariant under the diagonal action",
        check_yen_invariance),
    "yen.unital": (
        "relativization sends the identity to the identity",
        check_yen_unital),
    "yen.complete_positivity": (
        "relativization tensored with an ancilla preserves positivity",
        check_yen_cp),
    "yen.isometry": (
        "relativization by a localizable frame preserves the operator norm",
        check_yen_isometry),
    "yen.multiplicativity": (
        "relativization by a sharp frame is multiplicative",
        check_yen_multiplicative),
    "yen.predual_duality": (
        "predual satisfies the trace pairing against the channel",
        check_yen_predual_duality),
    "exhaustiveness.rank": (
        "relativized span has the rank of the invariant framed operators",
        check_exhaustiveness_rank),
    "exhaustiveness.residual": (
        "relativized span and invariant framed span coincide as subspaces",
        check_exhaustiveness_residual),
    "exhaustiveness.relative_inside_framed": (
        "relativized operators are framed",
        check_relative_inside_framed),
    "conditioning.localized_identity": (
        "conditioning on the localized frame state recovers every operator exactly",
        check_localized_identity),
    "conditioning.invariant_state_twirl": (
        "conditioning on an invariant frame state is the group average",
        check_invariant_state_twirl),
    "conditioning.distribution_dependence": (
        "conditioned relativization depends only on the frame state's outcome distribution",
        check_distribution_dependence),
    "conditioning.product_state_symmetry": (
        "rotating the frame state equals counter-rotating the system state",
        check_product_state_symmetry),
    "conditioning.invariant_system_state": (
        "invariant system states are fixed by every frame conditioning",
        check_invariant_system_state),
    "conditioning.lift_roundtrip": (
        "relativizing a lifted state returns it for an ideal frame",
        check_lift_roundtrip),
    "orientation.localized_delta": (
        "relative orientation of two localized frames is a point distribution",
        check_orientation_delta),
    "orientation.swap_relation": (
        "swapping the frames inverts the relative orientation observable",
        check_orientation_swap),
    "orientation.born_convolution": (
        "relative-orientation statistics convolve the two frame distributions",
        check_orientation_convolution),
    "framechange.well_defined": (
        "frame changes agree on operationally equivalent inputs",
        check_fc_well_defined),
    "framechange.diagram": (
        "frame change commutes with taking relative states of a global state",
        check_fc_diagram),
    "framechange.inverse": (
        "the reverse frame change inverts the forward one at class level",
        check_fc_inverse),
    "framechange.affine": (
        "frame changes are affine on mixtures",
        check_fc_affine),
    "framechange.ket_transform": (
        "basis preparations transform by the classical relabeling rule",
        check_fc_ket_transform),
    "framechange.composition": (
        "changing frames in two hops matches the direct change after framing",
        check_fc_composition),
    "agreement.seeded_states": (
        "operational and coherent frame changes agree up to framed equivalence",
        check_agreement_states),
    "agreement.basis_kets": (
        "operational and coherent frame changes coincide exactly on basis preparations",
        check_agreement_kets),
    "agreement.lueders_mixture": (
        "operational output is the pointer dephasing of the coherent output",
        check_agreement_lueders),
    "measurement.prc_canonical": (
        "reference interaction reproduces the target statistics exactly",
        check_measurement_prc),
    "measurement.rrc_canonical": (
        "reproduction is stable under joint rotation of pointer state and read-out",
        check_measurement_rrc),
    "measurement.rrc_orientation": (
        "relative-orientation observable reproduces any covariant observable when localized",
        check_measurement_orientation),
    "reconstruction.product_form": (
        "orientation-weighted reconstruction equals the product-state relativization",
        check_reconstruction_product_form),
    "reconstruction.localized": (
        "a localized joint state reconstructs the rotated relative state",
        check_reconstruction_localized),
    "reconstruction.invariant_state": (
        "invariant relative states are fixed by reconstruction",
        check_reconstruction_invariant),
}

SUITES: Dict[str, List[str]] = {
    "covariance": [n for n in CHECKS if n.startswith("covariance.")],
    "yen-invariance": [n for n in CHECKS if n.startswith("yen.")],
    "exhaustiveness": [n for n in CHECKS if n.startswith("exhaustiveness.")],
    "conditioning": [n for n in CHECKS if n.startswith("conditioning.")],
    "relative-orientation": [n for n in CHECKS if n.startswith("orientation.")],
    "frame-change": [n for n in CHECKS if n.startswith("framechange.")],
    "agreement": [n for n in CHECKS if n.startswith("agreement.")],
    "measurement": [n for n in CHECKS if n.startswith("measurement.")],
    "reconstruction": [n for n in CHECKS if n.startswith("reconstruction.")],
}


def available_checks(group: FiniteGroup, names: Sequence[str]) -> List[str]:
    """Drop checks whose scenarios would exceed the dense-matrix cap."""
    out = []
    for name in names:
        if name == "framechange.composition" and group.order ** 3 > SCENARIO_DIM_CAP:
            continue
        out.append(name)
    return out


def select_checks(suites: Sequence[str]) -> List[str]:
    names: List[str] = []
    for s in suites:
        key = s.strip().lower()
        if key == "all":
            return list(CHECKS)
        if key not in SUITES:
            raise ValueError(f"unknown suite {s!r}; choose from {', '.join(SUITES)} or 'all'")
        names.extend(SUITES[key])
    seen = set()
    unique = []
    for n in names:
        if n not in seen:
            seen.add(n)
            unique.append(n)
    return unique


def run_checks(group: FiniteGroup, suites: Sequence[str] = ("all",), tol: float = 1e-9,
               seed: int = 0, trials: int = 20) -> dict:
    """Run the selected suites against one group, in order, and assemble a report.

    Deterministic for a fixed (group, suites, tol, seed, trials) selection:
    every check derives its own generator from the seed and its name, so no
    check's numbers depend on which checks ran before it.  A check that
    raises, or whose deviation is not finite, fails; a raising check's record
    carries the exception under ``error`` and the other checks still run.
    """
    results = []
    token = _RUN_MEMO.set({})
    try:
        for name in available_checks(group, select_checks(suites)):
            claim, fn = CHECKS[name]
            rng = _rng_for(seed, name)
            start = time.perf_counter()
            error = None
            try:
                out = fn(group, rng, tol, trials)
                dev, count = float(out["max_deviation"]), int(out["trials"])
            except Exception as exc:  # a check that raises fails alone
                error = f"{type(exc).__name__}: {exc}"
                dev, count = math.nan, 0
            elapsed = (time.perf_counter() - start) * 1000.0
            results.append(CheckResult(name=name, claim=claim,
                                       passed=math.isfinite(dev) and dev <= tol,
                                       max_deviation=dev, trials=count,
                                       runtime_ms=elapsed, error=error))
    finally:
        _RUN_MEMO.reset(token)
    results.sort(key=lambda r: r.name)
    passed = sum(1 for r in results if r.passed)
    return {
        "group": group.name,
        "tol": tol,
        "seed": seed,
        "trials": trials,
        "checks": [r.to_dict() for r in results],
        "summary": {"total": len(results), "passed": passed,
                    "failed": len(results) - passed},
    }
