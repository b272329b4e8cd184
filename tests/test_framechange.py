import numpy as np
import pytest

from qrframes import (
    EffectContext,
    FramedRelativeState,
    MultiFrameScenario,
    UnsupportedFrameError,
    YenMap,
    canonical_frame,
    coherent_frame_change_unitary,
    compose_check,
    cyclic_group,
    frame_change,
    g_twirl_predual,
    kron,
    left_right_rep,
    op_norm,
    operational_agreement,
    restrict,
    triangular_reconstruction,
)
from qrframes.builtins import standard_system_rep
from qrframes.operators import dagger, pair_trace, random_density, random_hermitian
from qrframes.quantum import classify_frame, localizing_state, uniform_povm


def _ideal_pair(group, kind="left_regular", sys_dim=2):
    frames = [canonical_frame(group, kind), canonical_frame(group, kind)]
    sys_rep = standard_system_rep(group, sys_dim) if sys_dim else None
    return MultiFrameScenario(frames, sys_rep)


def _lr_pair_regular_system(group):
    frames = [canonical_frame(group, "left_right"), canonical_frame(group, "left_right")]
    return MultiFrameScenario(frames, left_right_rep(group))


def test_scenario_shape_and_reps(z3):
    sc = _ideal_pair(z3)
    assert sc.dims == (3, 3, 2)
    assert sc.total_dim == 18
    assert sc.complement_dims(0) == (3, 2)
    assert sc.complement_dims(1) == (3, 2)
    assert sc.rest_rep().dim == 18


def test_yen_total_and_predual_duality(z3, rng):
    sc = _ideal_pair(z3)
    for j in (0, 1):
        rest_dim = int(np.prod(sc.complement_dims(j)))
        for _ in range(5):
            a = random_hermitian(rng, rest_dim)
            omega = random_hermitian(rng, sc.total_dim)
            lhs = np.trace(sc.yen_predual_total(j, omega) @ a)
            rhs = np.trace(omega @ sc.yen_total(j, a))
            assert lhs == pytest.approx(rhs)


def test_yen_total_slot_placement(z3, rng):
    # relativizing with respect to frame 0 must place its effects on the
    # first tensor factor: restrict against a frame-0 state reproduces the
    # conditioned average
    sc = _ideal_pair(z3)
    a = random_hermitian(rng, 6)
    image = sc.yen_total(0, a)
    omega = localizing_state(sc.frames[0], z3.identity)
    conditioned = restrict(omega, image)
    assert op_norm(conditioned - a) <= 1e-10


def test_context_duality_between_total_and_complement(z2, rng):
    # pairing a global operator with a relativized framed generator equals
    # pairing its relative state with the complement-space generator
    sc = _ideal_pair(z2)
    ctx = sc.framing_context(0, (1,))
    for _ in range(10):
        omega = random_hermitian(rng, sc.total_dim)
        rel = sc.yen_predual_total(0, omega)
        for gen in ctx.generators[:6]:
            lhs = pair_trace(rel, gen)
            rhs = pair_trace(omega, sc.yen_total(0, gen))
            assert abs(lhs - rhs) <= 1e-10


def test_lift_roundtrip_and_properties(z3, rng):
    frame = canonical_frame(z3)
    sys_rep = standard_system_rep(z3, 2)
    omega = localizing_state(frame, z3.identity)
    ym = YenMap(frame, sys_rep)
    for _ in range(5):
        rel = random_density(rng, 2)
        lifted = kron(omega, rel)
        assert np.trace(lifted).real == pytest.approx(1.0)
        assert np.min(np.linalg.eigvalsh(lifted)) >= -1e-12
        back = ym.predual(lifted)
        assert op_norm(back - rel) <= 1e-12


def test_lift_duality_with_restricted_relativization(z3, rng):
    # tr[(omega (x) predual(W)) A] = tr[W apply(restrict_omega(A))] on invariant A
    frame = canonical_frame(z3)
    sys_rep = standard_system_rep(z3, 2)
    omega = random_density(rng, 3)
    diag = frame.rep.tensor(sys_rep)
    ym = YenMap(frame, sys_rep)
    for _ in range(10):
        w = random_hermitian(rng, 6)
        a = sum(diag.act_op(g, random_hermitian(rng, 6)) for g in z3.elements()) / 3
        rel = ym.predual(w)
        lhs = np.trace(kron(omega, rel) @ a)
        rhs = np.trace(w @ ym.apply(restrict(omega, a)))
        assert lhs == pytest.approx(rhs)


def test_frame_change_requires_localizable_source(z2):
    rep = canonical_frame(z2).rep
    fuzzy = classify_frame(rep, uniform_povm(rep))
    sharp = canonical_frame(z2)
    sc = MultiFrameScenario([fuzzy, sharp], None)
    with pytest.raises(UnsupportedFrameError):
        frame_change(sc, 0, 1, np.eye(2) / 2)


def test_frame_change_ket_rule(s3, rng):
    sc = _lr_pair_regular_system(s3)
    n = s3.order
    for _ in range(6):
        h2, h3 = int(rng.integers(n)), int(rng.integers(n))
        state = np.zeros((n * n, n * n), dtype=complex)
        state[h2 * n + h3, h2 * n + h3] = 1.0
        moved = frame_change(sc, 0, 1, state)
        i, j = s3.inv(h2), s3.mul(h3, s3.inv(h2))
        expected = np.zeros_like(moved.matrix)
        expected[i * n + j, i * n + j] = 1.0
        assert np.max(np.abs(moved.matrix - expected)) <= 1e-12


def test_frame_change_well_defined_on_classes(z3, rng):
    sc = _ideal_pair(z3)
    ctx = sc.framing_context(0, (1,))
    for _ in range(10):
        state = random_density(rng, ctx.dim)
        base = frame_change(sc, 0, 1, state)
        h = random_hermitian(rng, ctx.dim)
        bumped = state + 0.3 * (h - ctx.project(h))
        other = frame_change(sc, 0, 1, bumped)
        assert base.class_deviation(other) <= 1e-9


def test_frame_change_diagram(z3, rng):
    sc = _ideal_pair(z3)
    for _ in range(10):
        omega = random_density(rng, sc.total_dim)
        direct = sc.yen_predual_total(1, omega)
        via = frame_change(sc, 0, 1, sc.yen_predual_total(0, omega))
        assert via.class_deviation(direct) <= 1e-9


def test_frame_change_inverse(z3, rng):
    sc = _ideal_pair(z3)
    ctx = sc.framing_context(0, (1,))
    for _ in range(10):
        state = random_density(rng, ctx.dim)
        back = frame_change(sc, 1, 0, frame_change(sc, 0, 1, state))
        dev = max(abs(pair_trace(back.matrix - state, f)) for f in ctx.generators)
        assert dev <= 1e-9


def test_frame_change_affine(z3, rng):
    sc = _ideal_pair(z3)
    dim = int(np.prod(sc.complement_dims(0)))
    for _ in range(5):
        x = random_density(rng, dim)
        y = random_density(rng, dim)
        lam = float(rng.uniform())
        mixed = frame_change(sc, 0, 1, lam * x + (1 - lam) * y)
        combo = (lam * frame_change(sc, 0, 1, x).matrix
                 + (1 - lam) * frame_change(sc, 0, 1, y).matrix)
        assert mixed.class_deviation(combo) <= 1e-9


def test_frame_change_superposition_vs_mixture(z3, rng):
    # preparations with equal frame statistics give class-equal outputs
    sc = _ideal_pair(z3)
    n = 3
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    vec /= np.linalg.norm(vec)
    pure = np.outer(vec, np.conj(vec))
    mixed = np.diag(np.diag(pure))  # same outcome distribution for the sharp frame
    sys_state = random_density(rng, 2)
    out_pure = frame_change(sc, 0, 1, kron(pure, sys_state))
    out_mixed = frame_change(sc, 0, 1, kron(mixed, sys_state))
    assert out_pure.class_deviation(out_mixed) <= 1e-9


def test_compose_three_frames_z2(rng):
    z2 = cyclic_group(2)
    sc = MultiFrameScenario([canonical_frame(z2) for _ in range(3)], None)
    for _ in range(5):
        state = random_density(rng, 4)
        assert compose_check(sc, state) <= 1e-9


def test_compose_three_frames_z3_with_system(rng):
    z3 = cyclic_group(3)
    frames = [canonical_frame(z3) for _ in range(3)]
    sc = MultiFrameScenario(frames, standard_system_rep(z3, 3))
    for _ in range(3):
        state = random_density(rng, 27)
        assert compose_check(sc, state) <= 1e-9


def test_coherent_unitary_formula_oracle_z2(rng):
    z2 = cyclic_group(2)
    # no extra system: U = sum_g |g^-1><g| on C^2
    sc0 = MultiFrameScenario(
        [canonical_frame(z2, "left_right"), canonical_frame(z2, "left_right")], None
    )
    u0 = coherent_frame_change_unitary(sc0, 0, 1)
    assert np.allclose(u0, np.eye(2))  # every z2 element is its own inverse
    # one extra two-level system with the left-right action: 4 x 4
    sc1 = _lr_pair_regular_system(z2)
    u1 = coherent_frame_change_unitary(sc1, 0, 1)
    assert u1.shape == (4, 4)
    expected = np.zeros((4, 4), dtype=complex)
    rep = left_right_rep(z2)
    for g in z2.elements():
        hop = np.zeros((2, 2))
        hop[z2.inv(g), g] = 1.0
        expected += np.kron(hop, rep.mat(g))
    assert np.allclose(u1, expected)
    assert op_norm(u1 @ dagger(u1) - np.eye(4)) <= 1e-10


def test_coherent_unitary_requires_left_right_ideal(z2):
    sc = _ideal_pair(z2, kind="left_regular")
    with pytest.raises(UnsupportedFrameError):
        coherent_frame_change_unitary(sc, 0, 1)


def test_operational_agreement_seeded(s3, rng):
    sc = _lr_pair_regular_system(s3)
    dim = int(np.prod(sc.complement_dims(0)))
    for _ in range(10):
        state = random_density(rng, dim)
        assert operational_agreement(sc, state) <= 1e-9


def test_operational_agreement_lueders_fixture(z3):
    sc = _lr_pair_regular_system(z3)
    n = 3
    alpha, beta = np.sqrt(0.4), np.sqrt(0.6)
    h1, h2, g0 = 1, 2, 0
    vec = np.zeros(n * n, dtype=complex)
    vec[h1 * n + g0] = alpha
    vec[h2 * n + g0] = beta
    state = np.outer(vec, np.conj(vec))
    moved = frame_change(sc, 0, 1, state)
    u = coherent_frame_change_unitary(sc, 0, 1)
    coherent = u @ state @ dagger(u)
    # class equality against the coherent output
    assert moved.class_deviation(coherent) <= 1e-10
    # exact equality with its pointer dephasing
    pvm = sc.frames[0].povm
    lueders = np.zeros_like(coherent)
    for x in z3.elements():
        p = np.kron(pvm.effect(x), np.eye(n, dtype=complex))
        lueders += p @ coherent @ p
    assert np.max(np.abs(moved.matrix - lueders)) <= 1e-10
    # the coherent output is pure while the class representative is mixed
    assert np.linalg.matrix_rank(coherent, tol=1e-9) == 1
    assert np.linalg.matrix_rank(moved.matrix, tol=1e-9) == 2


def test_triangular_reconstruction_consistency(s3, rng):
    f1 = canonical_frame(s3)
    f2 = canonical_frame(s3)
    sys_rep = standard_system_rep(s3, 2)
    for _ in range(10):
        rho = random_density(rng, 2)
        omega = random_density(rng, 36)
        direct = triangular_reconstruction(f1, f2, rho, sys_rep, omega)
        rel2 = YenMap(f1, f2.rep).predual(omega)
        product = YenMap(f2, sys_rep).predual(kron(rel2, rho))
        assert op_norm(direct - product) <= 1e-10
        assert np.trace(direct).real == pytest.approx(1.0)


def test_triangular_reconstruction_localized(s3, rng):
    f1 = canonical_frame(s3)
    f2 = canonical_frame(s3)
    sys_rep = standard_system_rep(s3, 2)
    rho = random_density(rng, 2)
    for h in s3.elements():
        omega = kron(
            localizing_state(f1, s3.identity),
            f2.rep.act_state(s3.inv(h), localizing_state(f2, s3.identity)),
        )
        out = triangular_reconstruction(f1, f2, rho, sys_rep, omega)
        assert op_norm(out - sys_rep.act_state(h, rho)) <= 1e-10


def test_triangular_reconstruction_invariant_rho(s3, rng):
    f1 = canonical_frame(s3)
    f2 = canonical_frame(s3)
    sys_rep = standard_system_rep(s3, 2)
    rho = g_twirl_predual(sys_rep, random_density(rng, 2))
    omega = random_density(rng, 36)
    out = triangular_reconstruction(f1, f2, rho, sys_rep, omega)
    assert op_norm(out - rho) <= 1e-10


def test_framed_relative_state_api(z2, rng):
    sc = _ideal_pair(z2)
    state = random_density(rng, 4)
    frs = FramedRelativeState(sc, 0, state, framed=(1,))
    assert frs.matrix.shape == (4, 4)
    assert frs.class_deviation(frs.context.project(frs.matrix)) <= 1e-9
    # a state relative to another frame, or framed by another frame, is in
    # another description even when the matrix sizes agree
    with pytest.raises(ValueError, match="different framed"):
        frs.class_deviation(FramedRelativeState(sc, 1, state, framed=(0,)))
    sc3 = MultiFrameScenario([canonical_frame(z2) for _ in range(3)], None)
    with pytest.raises(ValueError, match="different framed"):
        FramedRelativeState(sc3, 0, state, (1,)).class_deviation(
            FramedRelativeState(sc3, 0, state, (2,)))


def test_class_deviation_in_an_empty_context(z2, rng):
    # with no generators every pair of states is one class: the deviation
    # reads 0.0, as equivalence says, and does not raise
    sc = _ideal_pair(z2)
    frs = FramedRelativeState(sc, 0, random_density(rng, 4), framed=(1,),
                              context=EffectContext([], dim=4))
    other = random_density(rng, 4)
    assert frs.class_deviation(other) == 0.0


@pytest.mark.parametrize("point", (-1, 3))
def test_localizing_point_outside_sample_space(z3, point):
    frame = canonical_frame(z3)
    with pytest.raises(ValueError, match="outside range"):
        localizing_state(frame, point)
    sc = MultiFrameScenario([frame, canonical_frame(z3)], None)
    with pytest.raises(ValueError, match="outside range"):
        frame_change(sc, 0, 1, np.eye(3) / 3, localize_at=point)


def test_frame_change_rejects_state_of_another_reference(z2, rng):
    sc = _ideal_pair(z2)
    state = FramedRelativeState(sc, 1, random_density(rng, 4), framed=(0,))
    with pytest.raises(ValueError, match="relative to frame 1"):
        frame_change(sc, 0, 1, state)
    assert frame_change(sc, 1, 0, state).reference == 0
