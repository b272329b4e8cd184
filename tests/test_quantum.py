import numpy as np
import pytest

from qrframes import (
    CovarianceError,
    POVM,
    ResolutionOfIdentityError,
    UnitaryRep,
    UnsupportedFrameError,
    born,
    canonical_frame,
    canonical_pvm,
    classify_frame,
    coherent_state_povm,
    covariance_deviation,
    cyclic_group,
    left_regular_rep,
    left_right_rep,
    localizing_state,
    trivial_rep,
    uniform_povm,
)
from qrframes.builtins import standard_system_rep
from qrframes.groups import CosetSpace, Subgroup
from qrframes.operators import DEFAULT_TOL, random_density, random_hermitian
from qrframes.quantum import GroupSpace, canonical_coset_pvm, coset_permutation_rep


def test_left_regular_z2_is_swap(z2):
    rep = left_regular_rep(z2)
    assert np.allclose(rep.mat(1), np.array([[0, 1], [1, 0]]))
    assert np.allclose(rep.mat(0), np.eye(2))


def test_left_regular_homomorphism_s3(s3):
    rep = left_regular_rep(s3)
    for g in s3.elements():
        for h in s3.elements():
            assert np.allclose(rep.mat(g) @ rep.mat(h), rep.mat(s3.mul(g, h)))


def test_left_right_rep_index_oracle(z3):
    rep = left_right_rep(z3)
    # U(g)|h> = |h g^-1>; for z3, U(1)|0> = |0 - 1 mod 3> = |2>
    vec = np.zeros(3)
    vec[0] = 1.0
    assert np.allclose(rep.mat(1) @ vec, np.eye(3)[:, 2])
    for g in z3.elements():
        for h in z3.elements():
            target = z3.mul(h, z3.inv(g))
            assert rep.mat(g)[target, h] == pytest.approx(1.0)


def test_left_right_canonical_pvm_points(s3):
    rep = left_right_rep(s3)
    pvm = canonical_pvm(rep)
    for h in s3.elements():
        e = np.zeros((6, 6))
        e[s3.inv(h), s3.inv(h)] = 1.0
        assert np.allclose(pvm.effect(h), e)
    assert covariance_deviation(pvm, rep) <= DEFAULT_TOL


def test_canonical_pvm_left_regular_z2(z2):
    pvm = canonical_pvm(left_regular_rep(z2))
    assert np.allclose(pvm.effect(0), np.diag([1.0, 0.0]))
    assert np.allclose(pvm.effect(1), np.diag([0.0, 1.0]))


def test_canonical_pvm_needs_builtin_rep(z2):
    custom = UnitaryRep(z2, [np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ValueError, match="left_regular or left_right"):
        canonical_pvm(custom)


def test_g_act_identities(s3, rng):
    rep = left_regular_rep(s3)
    a = random_hermitian(rng, 6)
    assert np.allclose(rep.act_op(s3.identity, a), a)
    for g in s3.elements():
        assert np.allclose(rep.act_op(g, rep.act_op(s3.inv(g), a)), a)
    # composition follows the group product
    for g in s3.elements():
        for h in s3.elements():
            assert np.allclose(
                rep.act_op(s3.mul(g, h), a),
                rep.act_op(g, rep.act_op(h, a)),
            )


def test_g_act_state_duality(s3, rng):
    rep = left_regular_rep(s3)
    for _ in range(10):
        rho = random_density(rng, 6)
        a = random_hermitian(rng, 6)
        for g in s3.elements():
            lhs = np.trace(rep.act_state(g, rho) @ a)
            rhs = np.trace(rho @ rep.act_op(g, a))
            assert lhs == pytest.approx(rhs)


def test_covariance_exhaustive_s3(s3):
    frame = canonical_frame(s3)
    assert covariance_deviation(frame.povm, frame.rep) <= 1e-12


def test_swapped_effects_break_covariance(z3):
    rep = left_regular_rep(z3)
    pvm = canonical_pvm(rep)
    effects = [pvm.effect(0), pvm.effect(2), pvm.effect(1)]
    broken = POVM(GroupSpace(z3), effects)
    assert covariance_deviation(broken, rep) > DEFAULT_TOL


def test_trivial_group_always_covariant():
    z1 = cyclic_group(1)
    rep = left_regular_rep(z1)
    assert covariance_deviation(canonical_pvm(rep), rep) <= DEFAULT_TOL


def test_classify_canonical_frame(s3):
    frame = canonical_frame(s3)
    assert frame.principal and frame.sharp and frame.ideal
    assert frame.localizable and frame.complete
    assert frame.isotropy.is_trivial


def test_classify_uniform_povm(s3):
    rep = left_regular_rep(s3)
    frame = classify_frame(rep, uniform_povm(rep))
    assert frame.principal
    assert not frame.sharp and not frame.localizable and not frame.ideal
    assert not frame.complete
    assert set(frame.isotropy.members) == set(s3.elements())


def test_classify_rejects_non_covariant(z3):
    rep = left_regular_rep(z3)
    pvm = canonical_pvm(rep)
    broken = POVM(GroupSpace(z3), [pvm.effect(0), pvm.effect(2), pvm.effect(1)])
    with pytest.raises(CovarianceError):
        classify_frame(rep, broken)


def test_localizable_principal_frames_are_complete(z4, s3):
    # holds for every localizable principal frame, checked on the fixtures
    for g in (z4, s3):
        for kind in ("left_regular", "left_right"):
            frame = canonical_frame(g, kind)
            assert frame.localizable and frame.principal
            assert frame.complete


def test_coherent_povm_from_point_seed(z3):
    rep = left_regular_rep(z3)
    seed = np.zeros(3)
    seed[z3.identity] = 1.0
    povm = coherent_state_povm(rep, seed)
    pvm = canonical_pvm(rep)
    for g in z3.elements():
        assert np.allclose(povm.effect(g), pvm.effect(g))
    frame = classify_frame(rep, povm)
    assert frame.ideal and frame.localizable


def test_coherent_povm_rejects_uniform_seed(z2):
    rep = left_regular_rep(z2)
    seed = np.ones(2) / np.sqrt(2)
    with pytest.raises(ResolutionOfIdentityError) as excinfo:
        coherent_state_povm(rep, seed)
    assert excinfo.value.deviation > 0.5


def test_coherent_povm_flat_spectrum_seed(z4, rng):
    # for a cyclic shift representation the orbit resolves the identity
    # exactly when the seed's spectrum has constant magnitude
    rep = left_regular_rep(z4)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    seed = np.fft.ifft(phases) * 2  # unit norm: ifft of unimodular spectrum
    seed = seed / np.linalg.norm(seed)
    povm = coherent_state_povm(rep, seed, tol=1e-9)
    total = sum(povm.effects)
    assert np.allclose(total, np.eye(4))
    assert covariance_deviation(povm, rep) <= DEFAULT_TOL


def test_coherent_povm_generic_seed_fails(s3, rng):
    # the group average of a generic seed projector lies in the commutant of
    # the regular representation, not in the scalars
    rep = left_regular_rep(s3)
    seed = rng.normal(size=6) + 1j * rng.normal(size=6)
    with pytest.raises(ResolutionOfIdentityError):
        coherent_state_povm(rep, seed)


def test_localizing_state_ideal(s3):
    frame = canonical_frame(s3)
    for g in s3.elements():
        xi = localizing_state(frame, g)
        assert np.trace(xi @ frame.povm.effect(g)).real == pytest.approx(1.0)
        mu = born(frame.povm, xi)
        expected = np.zeros(6)
        expected[g] = 1.0
        assert np.allclose(mu, expected)


def test_effect_rejects_points_outside_the_sample_space(z3):
    # a negative index must not wrap round to the last outcome
    povm = canonical_frame(z3).povm
    for p in (povm, POVM(povm.space, povm.effects)):
        for x in (-1, 3):
            with pytest.raises(ValueError, match="outside"):
                p.effect(x)


def test_localizing_state_requires_localizable(s3):
    rep = left_regular_rep(s3)
    frame = classify_frame(rep, uniform_povm(rep))
    with pytest.raises(UnsupportedFrameError):
        localizing_state(frame, 0)


def test_born_point_and_mixed(z4):
    frame = canonical_frame(z4)
    point = np.zeros((4, 4), dtype=complex)
    point[2, 2] = 1.0
    assert np.allclose(born(frame.povm, point), [0, 0, 1, 0])
    assert np.allclose(born(frame.povm, np.eye(4) / 4), np.full(4, 0.25))


def test_born_is_distribution(s3, rng):
    frame = canonical_frame(s3)
    for _ in range(100):
        mu = born(frame.povm, random_density(rng, 6))
        assert np.all(mu >= -1e-9)
        assert mu.sum() == pytest.approx(1.0)


def test_born_covariance_identity(s3, rng):
    frame = canonical_frame(s3)
    for _ in range(10):
        rho = random_density(rng, 6)
        mu = born(frame.povm, rho)
        for h in s3.elements():
            shifted = born(frame.povm, frame.rep.act_state(h, rho))
            for x in s3.elements():
                assert shifted[x] == pytest.approx(mu[s3.mul(h, x)])


def test_born_rejects_dim_mismatch(z2, z3):
    with pytest.raises(ValueError, match="dim"):
        born(canonical_frame(z2).povm, np.eye(3) / 3)


def test_coset_pvm_is_covariant_frame(z4):
    cs = CosetSpace(z4, Subgroup(z4, [0, 2]))
    rep = coset_permutation_rep(cs)
    pvm = canonical_coset_pvm(cs)
    assert covariance_deviation(pvm, rep) <= DEFAULT_TOL
    frame = classify_frame(rep, pvm)
    assert not frame.principal
    assert frame.sharp and frame.localizable and not frame.complete


def test_rep_validation_rejects_non_homomorphism(z3):
    mats = [np.eye(2), np.diag([1.0, -1.0]), np.eye(2)]
    with pytest.raises(ValueError, match="homomorphism"):
        UnitaryRep(z3, mats)


def test_trivial_rep(s3):
    rep = trivial_rep(s3, 3)
    assert all(np.allclose(rep.mat(g), np.eye(3)) for g in s3.elements())
    # identity permutations, so an ancilla keeps a permutation rep's structure
    assert np.array_equal(rep.permutations, np.tile(np.arange(3), (s3.order, 1)))
    assert left_regular_rep(s3).tensor(rep).permutations is not None
    sys_rep = standard_system_rep(s3, 2)
    for k in (1, 2, 3):
        joint = sys_rep.tensor(trivial_rep(s3, k))
        for g in s3.elements():
            assert np.max(np.abs(joint.mat(g) - np.kron(sys_rep.mat(g), np.eye(k)))) <= 1e-12
