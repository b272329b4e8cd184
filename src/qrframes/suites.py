"""Verification suites: every decidable identity of the calculus, packaged as
named checks that report their worst deviation.

A check is a generator function of (group, rng, tol, trials) that yields one
deviation per trial: a float, or a ``(float, where)`` pair whose ``where`` is
a small dict of ints naming the trial, such as ``{"h": 2, "y": 5}``.  The
runner drains it with ``operators.worst_case`` into the largest deviation
(NaN if any trial was NaN), the trial count (the number of yields, or the
``n`` of a closing ``return n``) and the witness: the ``where`` of the first
yield with the largest deviation, ``{"index": i}`` for a bare float.  It runs
a selection one check after another and assembles a deterministic report
ordered by check name.  It rejects, with ``ValueError`` (exit code 2 from the
CLI), an unknown suite name, an empty selection, fewer than one trial and a
tolerance that is not finite and non-negative: each would make a pass vacuous.
"""

from __future__ import annotations

import math
import time
import zlib
from functools import partial
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .builtins import standard_system_rep
from .framechange import (
    MultiFrameScenario,
    coherent_frame_change_unitary,
    compose_check,
    frame_change,
    operational_agreement,
    triangular_reconstruction,
)
from .groups import FiniteGroup
from .measurement import canonical_scheme, check_prc, check_rrc, rrc_relative_orientation
from .opequiv import (
    EffectContext,
    fixed_subspace,
    framed_subspace,
    g_twirl,
    g_twirl_predual,
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
    worst_case,
)
from .quantum import (
    born,
    canonical_frame,
    classify_frame,
    covariance_deviations,
    left_regular_rep,
    left_right_rep,
    localizing_state,
    trivial_rep,
    uniform_povm,
)
from .relativize import YenMap, product_relative_state, relative_orientation


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _pair_scenario(group: FiniteGroup, kind: str = "left_regular",
                   regular_system: bool = False) -> MultiFrameScenario:
    """Two canonical frames of one kind plus a system: the 2-dim standard
    rep, or the regular rep of the frames' kind."""
    frames = [canonical_frame(group, kind), canonical_frame(group, kind)]
    if regular_system:
        sys_rep = left_right_rep(group) if kind == "left_right" else left_regular_rep(group)
    else:
        sys_rep = standard_system_rep(group, 2)
    return MultiFrameScenario(frames, sys_rep)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def check_covariance(group, rng, tol, trials, kind):
    frame = canonical_frame(group, kind)
    yield from covariance_deviations(frame.povm, frame.rep)


def check_classification(group, rng, tol, trials):
    frame = canonical_frame(group)
    yield 0.0 if frame.ideal and frame.localizable and frame.complete else 1.0
    uniform = classify_frame(frame.rep, uniform_povm(frame.rep))
    yield 0.0 if uniform.principal and (not uniform.localizable or group.order == 1) else 1.0


def check_born_equivariance(group, rng, tol, trials):
    frame = canonical_frame(group)
    for t in range(trials):
        rho = random_density(rng, frame.dim)
        mu = born(frame.povm, rho)
        for h in group.elements():
            shifted = born(frame.povm, frame.rep.act_state(h, rho))
            expected = np.array([mu[frame.povm.act(h, x)] for x in range(frame.povm.size)])
            yield float(np.max(np.abs(shifted - expected))), {"trial": t, "h": h}
    return trials


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
    for i, b in enumerate(HermitianBasis(sys_rep.dim).matrices):
        image = ym.apply(b)
        for h, moved in enumerate(diag.orbit(image)):
            yield op_norm(moved - image), {"basis": i, "h": h}


def check_yen_unital(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    image = YenMap(frame, sys_rep).apply(np.eye(2, dtype=complex))
    yield op_norm(image - np.eye(2 * group.order))


def check_yen_cp(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    for k in (2, 3):
        # the channel tensored with the identity on a k-dim ancilla
        ym = YenMap(frame, sys_rep.tensor(trivial_rep(group, k)))
        for _ in range(max(1, trials // 4)):
            p = random_density(rng, sys_rep.dim * k) * (sys_rep.dim * k)
            out = ym.apply(p)
            # the most negative eigenvalue; a positive output reads 0
            yield -float(np.min(np.linalg.eigvalsh((out + dagger(out)) / 2)))


def check_yen_isometry(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    mats = HermitianBasis(sys_rep.dim).matrices
    for _ in range(trials):
        mats.append(random_hermitian(rng, sys_rep.dim))
    for a in mats:
        yield abs(op_norm(ym.apply(a)) - op_norm(a))


def check_yen_multiplicative(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    for _ in range(trials):
        a = random_hermitian(rng, sys_rep.dim)
        b = random_hermitian(rng, sys_rep.dim)
        yield op_norm(ym.apply(a @ b) - ym.apply(a) @ ym.apply(b))


def check_yen_predual_duality(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    for _ in range(trials):
        omega = random_hermitian(rng, ym.dim_total)
        a = random_hermitian(rng, sys_rep.dim)
        yield abs(np.trace(ym.predual(omega) @ a) - np.trace(omega @ ym.apply(a)))


# ---------------------------------------------------------------------------
# exhaustiveness of relativized effects
# ---------------------------------------------------------------------------

def _exhaustiveness_contexts(group):
    """The relativized span, the framed span, and its invariant part."""
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    relative = EffectContext([ym.apply(b) for b in HermitianBasis(sys_rep.dim).matrices],
                             dim=ym.dim_total)
    framed = framed_subspace(frame, sys_rep.dim)
    return relative, framed, fixed_subspace(framed, [frame.rep, sys_rep])


def check_exhaustiveness_rank(group, rng, tol, trials):
    relative, _, relational = _exhaustiveness_contexts(group)
    yield float(abs(relative.rank - relational.rank))


def check_exhaustiveness_residual(group, rng, tol, trials):
    relative, _, relational = _exhaustiveness_contexts(group)
    yield span_residual(relative, relational)
    yield span_residual(relational, relative)
    return 2 * (relative.rank + relational.rank)


def check_relative_inside_framed(group, rng, tol, trials):
    relative, framed, _ = _exhaustiveness_contexts(group)
    yield span_residual(relative, framed)
    return relative.rank


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def check_localized_identity(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = left_regular_rep(group) if group.order <= 12 else standard_system_rep(group, 2)
    omega = localizing_state(frame, group.identity)
    ym = YenMap(frame, sys_rep)
    for b in HermitianBasis(sys_rep.dim).matrices:
        yield op_norm(ym.conditioned(omega, b) - b)


def check_invariant_state_twirl(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    for _ in range(trials):
        omega = g_twirl_predual(frame.rep, random_density(rng, frame.dim))
        a = random_hermitian(rng, sys_rep.dim)
        yield op_norm(ym.conditioned(omega, a) - g_twirl(sys_rep, a))


def check_distribution_dependence(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    ym = YenMap(frame, sys_rep)
    for _ in range(trials):
        omega = random_density(rng, frame.dim)
        dephased = np.diag(np.diag(omega))
        a = random_hermitian(rng, sys_rep.dim)
        yield op_norm(ym.conditioned(omega, a) - ym.conditioned(dephased, a))


def check_product_state_symmetry(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    for t in range(trials):
        omega = random_density(rng, frame.dim)
        rho = random_density(rng, sys_rep.dim)
        for h in group.elements():
            lhs = product_relative_state(frame, sys_rep, frame.rep.act_state(h, omega), rho)
            rhs = product_relative_state(
                frame, sys_rep, omega, sys_rep.act_state(group.inv(h), rho)
            )
            yield op_norm(lhs - rhs), {"trial": t, "h": h}


def check_invariant_system_state(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    for _ in range(trials):
        omega = random_density(rng, frame.dim)
        rho = g_twirl_predual(sys_rep, random_density(rng, sys_rep.dim))
        yield op_norm(product_relative_state(frame, sys_rep, omega, rho) - rho)


def check_lift_roundtrip(group, rng, tol, trials):
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    omega = localizing_state(frame, group.identity)
    ym = YenMap(frame, sys_rep)
    for _ in range(trials):
        rel = random_density(rng, sys_rep.dim)
        yield op_norm(ym.predual(kron(omega, rel)) - rel)


# ---------------------------------------------------------------------------
# relative orientation
# ---------------------------------------------------------------------------

def check_orientation_delta(group, rng, tol, trials):
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    orientation = relative_orientation(f1, f2)
    omega = localizing_state(f1, group.identity)
    rho = localizing_state(f2, group.identity)
    for h in group.elements():
        state = kron(omega, f2.rep.act_state(group.inv(h), rho))
        mu = born(orientation, state)
        expected = np.zeros(group.order)
        expected[h] = 1.0
        yield float(np.max(np.abs(mu - expected))), {"h": h}


def check_orientation_swap(group, rng, tol, trials):
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    a = relative_orientation(f1, f2)
    b = relative_orientation(f2, f1)
    dims = (f2.dim, f1.dim)
    for x in group.elements():
        swapped = permute_factors(b.effect(group.inv(x)), dims, [1, 0])
        yield float(np.max(np.abs(a.effect(x) - swapped))), {"x": x}


def check_orientation_convolution(group, rng, tol, trials):
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    orientation = relative_orientation(f1, f2)
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
        yield float(np.max(np.abs(mu - expected)))


# ---------------------------------------------------------------------------
# frame changes
# ---------------------------------------------------------------------------

def check_fc_well_defined(group, rng, tol, trials):
    scenario = _pair_scenario(group)
    ctx = scenario.framing_context(0, (1,))
    for t in range(trials):
        state = random_density(rng, ctx.dim)
        base = frame_change(scenario, 0, 1, state)
        if ctx.kernel_dim == 0:
            yield 0.0
            continue
        # a random operator's part off the span, scaled to HS norm 0.25
        h = random_hermitian(rng, ctx.dim)
        off = h - ctx.project(h)
        bump = 0.25 * off / np.linalg.norm(off)
        other = frame_change(scenario, 0, 1, state + bump)
        yield base.class_deviation(other)


def check_fc_diagram(group, rng, tol, trials):
    scenario = _pair_scenario(group)
    for _ in range(trials):
        # the diagram is linear in omega, so pure states test it at O(d**2) a draw
        omega = random_pure_state(rng, scenario.total_dim)
        left = scenario.yen_predual_total(1, omega)
        rel = scenario.yen_predual_total(0, omega)
        yield frame_change(scenario, 0, 1, rel).class_deviation(left)


def check_fc_inverse(group, rng, tol, trials):
    scenario = _pair_scenario(group)
    ctx = scenario.framing_context(0, (1,))
    for _ in range(trials):
        state = random_density(rng, ctx.dim)
        back = frame_change(scenario, 1, 0, frame_change(scenario, 0, 1, state))
        yield ctx.class_deviation(back.matrix, state)


def check_fc_affine(group, rng, tol, trials):
    scenario = _pair_scenario(group)
    dim = int(np.prod(scenario.complement_dims(0)))
    for _ in range(trials):
        x = random_density(rng, dim)
        y = random_density(rng, dim)
        lam = float(rng.uniform(0.0, 1.0))
        mix = frame_change(scenario, 0, 1, lam * x + (1 - lam) * y)
        parts = (lam * frame_change(scenario, 0, 1, x).matrix
                 + (1 - lam) * frame_change(scenario, 0, 1, y).matrix)
        yield mix.class_deviation(parts)


def _ket(labels: Sequence[int], n: int) -> np.ndarray:
    """The basis projector |l_1 ... l_k><l_1 ... l_k| on (C^n)^(x)k."""
    flat = np.ravel_multi_index(tuple(labels), (n,) * len(labels))
    out = np.zeros((n ** len(labels),) * 2, dtype=complex)
    out[flat, flat] = 1.0
    return out


def _basis_kets(group, rng, trials) -> Iterator[Tuple[tuple, np.ndarray]]:
    """Up to four basis preparations |h2> (x) |h3> on the complement of the
    first frame of a regular pair scenario, drawing h2 and then h3 from the
    rng; yields the labels and the state."""
    for _ in range(min(trials, 4)):
        labels = tuple(int(rng.integers(group.order)) for _ in range(2))
        yield labels, _ket(labels, group.order)


def check_fc_ket_transform(group, rng, tol, trials):
    scenario = _pair_scenario(group, kind="left_right", regular_system=True)
    for (h2, h3), state in _basis_kets(group, rng, trials):
        moved = frame_change(scenario, 0, 1, state)
        inv = group.inv(h2)
        expected = _ket([inv, group.mul(h3, inv)], group.order)
        yield float(np.max(np.abs(moved.matrix - expected))), {"h2": h2, "h3": h3}


def check_fc_composition(group, rng, tol, trials):
    frames = [canonical_frame(group) for _ in range(3)]
    scenario = MultiFrameScenario(frames, None)
    for _ in range(max(3, trials // 4)):
        state = random_density(rng, int(np.prod(scenario.complement_dims(0))))
        yield compose_check(scenario, state)


# ---------------------------------------------------------------------------
# agreement with the coherent change
# ---------------------------------------------------------------------------

def check_agreement_states(group, rng, tol, trials):
    scenario = _pair_scenario(group, kind="left_right")
    dim = int(np.prod(scenario.complement_dims(0)))
    for t in range(trials):
        state = random_pure_state(rng, dim) if t % 2 == 0 else random_density(rng, dim)
        yield operational_agreement(scenario, state)


def check_agreement_kets(group, rng, tol, trials):
    scenario = _pair_scenario(group, kind="left_right", regular_system=True)
    u = coherent_frame_change_unitary(scenario, 0, 1)
    for (h2, h3), state in _basis_kets(group, rng, trials):
        moved = frame_change(scenario, 0, 1, state)
        yield float(np.max(np.abs(moved.matrix - u @ state @ dagger(u)))), {"h2": h2, "h3": h3}


def check_agreement_lueders(group, rng, tol, trials):
    scenario = _pair_scenario(group, kind="left_right", regular_system=True)
    n = group.order
    u = coherent_frame_change_unitary(scenario, 0, 1)
    h1, h2 = 0, n - 1
    alpha, beta = np.sqrt(0.3), np.sqrt(0.7)
    vec = np.zeros(n, dtype=complex)
    vec[h1] += alpha
    vec[h2] += beta
    vec = vec / np.linalg.norm(vec)
    sys_vec = np.zeros(n, dtype=complex)
    sys_vec[int(rng.integers(n))] = 1.0
    vec = np.kron(vec, sys_vec)
    state = np.outer(vec, np.conj(vec))
    moved = frame_change(scenario, 0, 1, state)
    coherent = u @ state @ dagger(u)
    # the pointer dephasing sum_x (P_x (x) 1) C (P_x (x) 1) keeps the blocks
    # of C whose pointer indices share a label and zeroes the others
    labels = scenario.frames[0].povm.labels
    same = np.kron(labels[:, None] == labels[None, :], np.ones((n, n), dtype=bool))
    lueders = np.where(same, coherent, 0.0)
    yield moved.class_deviation(coherent)
    yield float(np.max(np.abs(moved.matrix - lueders)))
    return 1


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def check_measurement_prc(group, rng, tol, trials):
    yield from check_prc(canonical_scheme(group))


def check_measurement_rrc(group, rng, tol, trials):
    yield from check_rrc(canonical_scheme(group), left_regular_rep(group), tol)


def check_measurement_orientation(group, rng, tol, trials):
    yield from rrc_relative_orientation(canonical_frame(group), canonical_frame(group))


# ---------------------------------------------------------------------------
# triangular reconstruction
# ---------------------------------------------------------------------------

def _reconstruction_setup(group):
    """Two canonical frames, the 2-dim system rep, and the reconstruction
    map rho, omega -> rho' with the frames' relative orientation computed
    once."""
    f1 = canonical_frame(group)
    f2 = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    orientation = relative_orientation(f1, f2)
    return f1, f2, sys_rep, lambda rho, omega: triangular_reconstruction(
        f1, f2, rho, sys_rep, omega, orientation=orientation)


def check_reconstruction_product_form(group, rng, tol, trials):
    f1, f2, sys_rep, reconstruct = _reconstruction_setup(group)
    ym1, ym2 = YenMap(f1, f2.rep), YenMap(f2, sys_rep)
    for _ in range(trials):
        rho = random_density(rng, sys_rep.dim)
        omega = random_density(rng, f1.dim * f2.dim)
        rel2 = ym1.predual(omega)
        product = ym2.predual(kron(rel2, rho))
        yield op_norm(reconstruct(rho, omega) - product)


def check_reconstruction_localized(group, rng, tol, trials):
    f1, f2, sys_rep, reconstruct = _reconstruction_setup(group)
    for h in group.elements():
        rho = random_density(rng, sys_rep.dim)
        omega = kron(localizing_state(f1, group.identity),
                     f2.rep.act_state(group.inv(h), localizing_state(f2, group.identity)))
        yield op_norm(reconstruct(rho, omega) - sys_rep.act_state(h, rho)), {"h": h}


def check_reconstruction_invariant(group, rng, tol, trials):
    f1, f2, sys_rep, reconstruct = _reconstruction_setup(group)
    for _ in range(trials):
        rho = g_twirl_predual(sys_rep, random_density(rng, sys_rep.dim))
        omega = random_density(rng, f1.dim * f2.dim)
        yield op_norm(reconstruct(rho, omega) - rho)


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
    suite: [n for n in CHECKS if n.startswith(prefix + ".")]
    for suite, prefix in [
        ("covariance", "covariance"), ("yen-invariance", "yen"),
        ("exhaustiveness", "exhaustiveness"), ("conditioning", "conditioning"),
        ("relative-orientation", "orientation"), ("frame-change", "framechange"),
        ("agreement", "agreement"), ("measurement", "measurement"),
        ("reconstruction", "reconstruction"),
    ]
}


def available_checks(group: FiniteGroup, names: Sequence[str]) -> List[str]:
    """The checks among ``names`` that run on ``group``: all of them, since
    no scenario has a size cap.  Kept for callers that plan a run."""
    return list(names)


def select_checks(suites: Sequence[str]) -> List[str]:
    """The check names of the named suites, in order and without repeats;
    ``all`` anywhere selects every check.  Every name is validated first."""
    keys = [s.strip().lower() for s in suites]
    if not keys:
        raise ValueError("no suite selected; name one or 'all'")
    for s, key in zip(suites, keys):
        if key != "all" and key not in SUITES:
            raise ValueError(f"unknown suite {s!r}; choose from {', '.join(SUITES)} or 'all'")
    if "all" in keys:
        return list(CHECKS)
    return list(dict.fromkeys(n for key in keys for n in SUITES[key]))


def run_checks(group: FiniteGroup, suites: Sequence[str] = ("all",), tol: float = 1e-9,
               seed: int = 0, trials: int = 20) -> dict:
    """Run the selected suites against one group, in order, and assemble a report.

    Deterministic for a fixed (group, suites, tol, seed, trials) selection:
    every check derives its own generator from the seed and its name, so no
    check's numbers depend on which checks ran before it.  A check that
    raises, or whose deviation is not finite, fails; a raising check's record
    carries the exception under ``error`` and a null ``witness``, and the
    other checks still run.
    Raises ``ValueError`` for an unknown suite, an empty selection,
    ``trials < 1`` or a tolerance that is not finite and non-negative.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    results = []
    for name in select_checks(suites):
        claim, fn = CHECKS[name]
        start = time.perf_counter()
        record = {"name": name, "claim": claim}
        try:
            dev, count, witness = worst_case(fn(group, _rng_for(seed, name), tol, trials))
        except Exception as exc:  # a check that raises fails alone
            record["error"] = f"{type(exc).__name__}: {exc}"
            dev, count, witness = math.nan, 0, None
        record.update({"pass": math.isfinite(dev) and dev <= tol, "max_deviation": dev,
                       "trials": count, "witness": witness,
                       "runtime_ms": round((time.perf_counter() - start) * 1000.0, 3)})
        results.append(record)
    results.sort(key=lambda r: r["name"])
    passed = sum(1 for r in results if r["pass"])
    return {
        "group": group.name,
        "tol": tol,
        "seed": seed,
        "trials": trials,
        "checks": results,
        "summary": {"total": len(results), "passed": passed,
                    "failed": len(results) - passed},
    }
