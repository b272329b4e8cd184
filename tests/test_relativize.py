import numpy as np
import pytest

from qrframes import (
    HermitianBasis,
    HomogeneousYenMap,
    POVM,
    UnsupportedFrameError,
    YenMap,
    born,
    canonical_frame,
    classify_frame,
    cyclic_group,
    g_twirl,
    g_twirl_predual,
    kron,
    left_regular_rep,
    localizing_state,
    op_norm,
    product_relative_state,
    relational_span_report,
    relative_orientation,
    restrict,
    trivial_rep,
    uniform_povm,
)
from qrframes.groups import CosetSpace, Subgroup
from qrframes.opequiv import average_over
from qrframes.operators import dagger, permute_factors, random_density, random_hermitian
from qrframes.quantum import GroupSpace, canonical_coset_pvm, coset_permutation_rep
from qrframes.relativize import PreconditionError


def _frame_and_system(group):
    return canonical_frame(group), left_regular_rep(group)


def test_yen_invariant_operand_decouples(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    a = g_twirl(sys_rep, random_hermitian(rng, 6))
    out = YenMap(frame, sys_rep).apply(a)
    assert np.allclose(out, kron(np.eye(6), a))


def test_yen_unital(s3):
    frame, sys_rep = _frame_and_system(s3)
    assert np.allclose(YenMap(frame, sys_rep).apply(np.eye(6)), np.eye(36))


def test_yen_z2_two_term_oracle(z2):
    frame, sys_rep = _frame_and_system(z2)
    a = np.diag([1.0, 0.0])
    out = YenMap(frame, sys_rep).apply(a)
    # two-term sum: E(0) (x) A + E(1) (x) U(1) A U(1)^dag
    expected = kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + kron(
        np.diag([0.0, 1.0]), np.diag([0.0, 1.0])
    )
    assert np.allclose(out, expected)


def test_yen_invariance_property(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    diag = frame.rep.tensor(sys_rep)
    ym = YenMap(frame, sys_rep)
    for b in HermitianBasis(6).matrices[:12]:
        image = ym.apply(b)
        for h in s3.elements():
            assert op_norm(diag.act_op(h, image) - image) <= 1e-10


def test_yen_positive_and_cp(z3, rng):
    frame, sys_rep = _frame_and_system(z3)
    ym = YenMap(frame, sys_rep)
    for _ in range(5):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        p = g @ dagger(g)
        assert np.min(np.linalg.eigvalsh(ym.apply(p))) >= -1e-10
    # complete positivity witness: apply (yen (x) id_k) to positive inputs
    for k in (2, 3):
        for _ in range(3):
            g = rng.normal(size=(3 * k, 3 * k)) + 1j * rng.normal(size=(3 * k, 3 * k))
            p = g @ dagger(g)
            out = np.zeros((9 * k, 9 * k), dtype=complex)
            for elt in z3.elements():
                u = np.kron(sys_rep.mat(elt), np.eye(k))
                out += kron(frame.povm.effect(elt), u @ p @ dagger(u))
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10
            # the same sum as the channel of the system tensored with an ancilla
            ancilla = YenMap(frame, sys_rep.tensor(trivial_rep(z3, k)))
            assert np.max(np.abs(ancilla.apply(p) - out)) <= 1e-12


def test_yen_isometric_for_localizable(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    ym = YenMap(frame, sys_rep)
    mats = HermitianBasis(6).matrices[:10]
    mats += [random_hermitian(rng, 6) for _ in range(20)]
    for a in mats:
        assert abs(op_norm(ym.apply(a)) - op_norm(a)) <= 1e-10


def test_yen_multiplicative_for_sharp(z4, rng):
    frame, sys_rep = _frame_and_system(z4)
    ym = YenMap(frame, sys_rep)
    for _ in range(10):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        assert op_norm(ym.apply(a @ b) - ym.apply(a) @ ym.apply(b)) <= 1e-9


def test_yen_rejects_non_principal(z4):
    cs = CosetSpace(z4, Subgroup(z4, [0, 2]))
    frame = classify_frame(coset_permutation_rep(cs), canonical_coset_pvm(cs))
    with pytest.raises(UnsupportedFrameError, match="principal"):
        YenMap(frame, left_regular_rep(z4))


def test_yen_predual_aligned_state(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    aligned = np.zeros((6, 6), dtype=complex)
    aligned[s3.identity, s3.identity] = 1.0
    ym = YenMap(frame, sys_rep)
    for _ in range(5):
        rho = random_density(rng, 6)
        assert op_norm(ym.predual(kron(aligned, rho)) - rho) <= 1e-12


def test_yen_predual_vectorized_adjoint_oracle(rng):
    # the predual must be the conjugate transpose of the channel on
    # column-vectorized operators
    for n in (2, 3, 4):
        group = cyclic_group(n)
        frame, sys_rep = _frame_and_system(group)
        ym = YenMap(frame, sys_rep)
        mat = ym.matrix()
        adjoint = dagger(mat)
        for _ in range(5):
            omega = random_hermitian(rng, ym.dim_total)
            direct = ym.predual(omega).reshape(-1)
            via_matrix = adjoint @ omega.reshape(-1)
            assert np.max(np.abs(direct - via_matrix)) <= 1e-10


def test_yen_predual_invariant_product(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    rho = g_twirl_predual(sys_rep, random_density(rng, 6))
    omega = random_density(rng, 6)
    assert op_norm(YenMap(frame, sys_rep).predual(kron(omega, rho)) - rho) <= 1e-12


def test_relative_orientation_localized_delta(s3):
    f1 = canonical_frame(s3)
    f2 = canonical_frame(s3)
    orientation = relative_orientation(f1, f2)
    omega = localizing_state(f1, s3.identity)
    rho = localizing_state(f2, s3.identity)
    for h in s3.elements():
        state = kron(omega, f2.rep.act_state(s3.inv(h), rho))
        mu = born(orientation, state)
        expected = np.zeros(6)
        expected[h] = 1.0
        assert np.max(np.abs(mu - expected)) <= 1e-12


def test_relative_orientation_swap(s3):
    f1 = canonical_frame(s3)
    f2 = canonical_frame(s3)
    a = relative_orientation(f1, f2)
    b = relative_orientation(f2, f1)
    for x in s3.elements():
        swapped = permute_factors(b.effect(s3.inv(x)), (6, 6), [1, 0])
        assert np.max(np.abs(a.effect(x) - swapped)) <= 1e-10


def test_relative_orientation_invariant_statistics(s3, rng):
    f1 = canonical_frame(s3)
    f2 = canonical_frame(s3)
    orientation = relative_orientation(f1, f2)
    diag = f1.rep.tensor(f2.rep)
    omega = random_density(rng, 6)
    rho = random_density(rng, 6)
    state = kron(omega, rho)
    mu = born(orientation, state)
    for h in s3.elements():
        rotated = diag.act_state(h, state)
        assert np.max(np.abs(born(orientation, rotated) - mu)) <= 1e-10


def test_relative_orientation_born_convolution_oracle(z4, rng):
    f1 = canonical_frame(z4)
    f2 = canonical_frame(z4)
    orientation = relative_orientation(f1, f2)
    for _ in range(10):
        omega = random_density(rng, 4)
        rho = random_density(rng, 4)
        p = born(f1.povm, omega)
        q = born(f2.povm, rho)
        mu = born(orientation, kron(omega, rho))
        expected = np.array([
            sum(p[g] * q[z4.mul(g, x)] for g in z4.elements()) for x in z4.elements()
        ])
        assert np.max(np.abs(mu - expected)) <= 1e-12


def test_restrict_product_pairs(s3, rng):
    for _ in range(100):
        omega = random_density(rng, 3)
        a_r = random_hermitian(rng, 3)
        a_s = random_hermitian(rng, 4)
        out = restrict(omega, kron(a_r, a_s))
        assert op_norm(out - np.trace(omega @ a_r) * a_s) <= 1e-10


def test_restrict_unital_and_duality(s3, rng):
    omega = random_density(rng, 4)
    assert np.allclose(restrict(omega, np.eye(12)), np.eye(3))
    for _ in range(20):
        a = random_hermitian(rng, 12)
        rho = random_density(rng, 3)
        lhs = np.trace(rho @ restrict(omega, a))
        rhs = np.trace(kron(omega, rho) @ a)
        assert lhs == pytest.approx(rhs)


def test_conditioned_yen_localized_identity(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    omega = localizing_state(frame, s3.identity)
    ym = YenMap(frame, sys_rep)
    for b in HermitianBasis(6).matrices:
        assert op_norm(ym.conditioned(omega, b) - b) <= 1e-10


def test_conditioned_yen_invariant_state_is_twirl(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    invariant = g_twirl_predual(frame.rep, random_density(rng, 6))
    ym = YenMap(frame, sys_rep)
    for _ in range(10):
        a = random_hermitian(rng, 6)
        assert op_norm(ym.conditioned(invariant, a) - g_twirl(sys_rep, a)) <= 1e-10


def test_conditioned_yen_depends_only_on_distribution(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    ym = YenMap(frame, sys_rep)
    for _ in range(10):
        omega = random_density(rng, 6)
        dephased = np.diag(np.diag(omega))  # same outcome distribution
        assert np.allclose(born(frame.povm, omega), born(frame.povm, dephased))
        a = random_hermitian(rng, 6)
        assert op_norm(ym.conditioned(omega, a) - ym.conditioned(dephased, a)) <= 1e-10


def test_product_relative_state_matches_predual(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    ym = YenMap(frame, sys_rep)
    for _ in range(10):
        omega = random_density(rng, 6)
        rho = random_density(rng, 6)
        via_sum = product_relative_state(frame, sys_rep, omega, rho)
        via_predual = ym.predual(kron(omega, rho))
        assert op_norm(via_sum - via_predual) <= 1e-12
        assert np.trace(via_sum).real == pytest.approx(1.0)
        assert np.min(np.linalg.eigvalsh(via_sum)) >= -1e-12


def test_product_relative_state_symmetry(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    for _ in range(10):
        omega = random_density(rng, 6)
        rho = random_density(rng, 6)
        for h in s3.elements():
            lhs = product_relative_state(frame, sys_rep, frame.rep.act_state(h, omega), rho)
            rhs = product_relative_state(
                frame, sys_rep, omega, sys_rep.act_state(s3.inv(h), rho)
            )
            assert op_norm(lhs - rhs) <= 1e-10


def test_product_relative_state_invariant_rho(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    rho = g_twirl_predual(sys_rep, random_density(rng, 6))
    for _ in range(5):
        omega = random_density(rng, 6)
        assert op_norm(product_relative_state(frame, sys_rep, omega, rho) - rho) <= 1e-10


def test_product_relative_state_invariant_omega(s3, rng):
    frame, sys_rep = _frame_and_system(s3)
    omega = g_twirl_predual(frame.rep, random_density(rng, 6))
    for _ in range(5):
        rho = random_density(rng, 6)
        assert op_norm(
            product_relative_state(frame, sys_rep, omega, rho) - g_twirl_predual(sys_rep, rho)
        ) <= 1e-10


# ---------------------------------------------------------------------------
# homogeneous-space relativization
# ---------------------------------------------------------------------------

def _coset_frame(group, members):
    cs = CosetSpace(group, Subgroup(group, members))
    return classify_frame(coset_permutation_rep(cs), canonical_coset_pvm(cs)), cs


def test_yen_homogeneous_whole_group(z4, rng):
    frame, cs = _coset_frame(z4, list(z4.elements()))
    sys_rep = left_regular_rep(z4)
    a = g_twirl(sys_rep, random_hermitian(rng, 4))  # invariant operand
    out = HomogeneousYenMap(frame, sys_rep).apply(a)
    assert np.allclose(out, kron(np.eye(1), a))


def test_yen_homogeneous_trivial_subgroup_matches_yen(z4, rng):
    frame, cs = _coset_frame(z4, [0])
    sys_rep = left_regular_rep(z4)
    principal = canonical_frame(z4)
    a = random_hermitian(rng, 4)
    hom = HomogeneousYenMap(frame, sys_rep).apply(a)
    # coset ids coincide with element ids when H = {e}
    assert np.allclose(hom, YenMap(principal, sys_rep).apply(a))


def test_yen_homogeneous_representative_independent(z4, rng):
    frame, cs = _coset_frame(z4, [0, 2])
    sys_rep = left_regular_rep(z4)
    h_members = list(cs.subgroup)
    a = average_over(sys_rep, h_members, random_hermitian(rng, 4))
    out = HomogeneousYenMap(frame, sys_rep).apply(a)
    # exhaustive representative scan: recompute with every choice per coset
    coset_members = [cs.members(c) for c in range(cs.n_cosets)]
    import itertools
    for choice in itertools.product(*coset_members):
        alt = np.zeros_like(out)
        for c, g in enumerate(choice):
            alt += kron(frame.povm.effect(c), sys_rep.act_op(g, a))
        assert np.max(np.abs(alt - out)) <= 1e-10


def test_yen_homogeneous_invariance(z4, rng):
    frame, cs = _coset_frame(z4, [0, 2])
    sys_rep = left_regular_rep(z4)
    a = average_over(sys_rep, list(cs.subgroup), random_hermitian(rng, 4))
    out = HomogeneousYenMap(frame, sys_rep).apply(a)
    diag = frame.rep.tensor(sys_rep)
    for h in z4.elements():
        assert op_norm(diag.act_op(h, out) - out) <= 1e-10


def test_yen_homogeneous_rejects_variant_operand(z4, rng):
    frame, cs = _coset_frame(z4, [0, 2])
    sys_rep = left_regular_rep(z4)
    a = np.diag([1.0, 0.0, 0.0, 0.0])  # not invariant under the subgroup
    with pytest.raises(PreconditionError) as excinfo:
        HomogeneousYenMap(frame, sys_rep).apply(a)
    assert excinfo.value.deviation > 0.5


def test_relational_span_report_principal(z3):
    frame = canonical_frame(z3)
    report = relational_span_report(frame, left_regular_rep(z3))
    assert report["equal"]
    assert report["relativized_inside_relational"]
    assert report["relativized_rank"] == 9


def test_non_localizable_frame_relative_span_included_only(z3, rng):
    # for a frame without the norm-1 property the relativized span still sits
    # inside the invariant framed operators, but need not exhaust them
    rep = left_regular_rep(z3)
    frame = classify_frame(rep, uniform_povm(rep))
    assert not frame.localizable
    sys_rep = left_regular_rep(z3)
    ym = YenMap(frame, sys_rep)
    from qrframes import EffectContext, framed_subspace, intersect, invariant_subspace
    from qrframes.opequiv import span_residual

    relative = EffectContext([ym.apply(b) for b in HermitianBasis(3).matrices],
                             dim=ym.dim_total)
    relational = intersect(framed_subspace(frame, 3),
                           invariant_subspace(frame.rep.tensor(sys_rep)))
    # inclusion is guaranteed; exhaustiveness is only guaranteed for
    # localizable frames (it may still hold, as it does here)
    assert span_residual(relative, relational) <= 1e-9
    assert relative.rank <= relational.rank


def test_convolve_scalar_degenerate_case(z3):
    # one-dimensional frames: a covariant scalar observable on the group is
    # forced to be the uniform measure, so the relative-orientation
    # statistics reduce to the measure convolution uniform * uniform = uniform
    from qrframes.quantum import GroupSpace

    rep1 = trivial_rep(z3, 1)
    uniform = POVM(GroupSpace(z3), [np.eye(1) / 3] * 3)
    frame = classify_frame(rep1, uniform)
    assert frame.principal and not frame.localizable
    out = relative_orientation(frame, frame)
    mu = born(out, np.eye(1))
    p = born(uniform, np.eye(1))
    convolution = np.array([
        sum(p[z3.inv(g)] * p[z3.mul(g, x)] for g in z3.elements())
        for x in z3.elements()
    ])
    assert np.allclose(mu, convolution)
    assert np.allclose(mu, np.full(3, 1 / 3))


def test_relational_span_report_coset_case(z4):
    frame, cs = _coset_frame(z4, [0, 2])
    report = relational_span_report(frame, left_regular_rep(z4))
    # reported, not asserted: both ranks present and the relativized side is
    # always inside the relational one
    assert report["relativized_inside_relational"]
    assert report["relativized_rank"] <= report["relational_rank"]
