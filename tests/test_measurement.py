from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qrframes import (
    MeasurementScheme,
    POVM,
    UnsupportedFrameError,
    born,
    canonical_frame,
    canonical_pvm,
    canonical_scheme,
    check_prc,
    check_rrc,
    classify_frame,
    cyclic_group,
    dihedral_group,
    left_regular_rep,
    rrc_relative_orientation,
    symmetric_group,
    uniform_povm,
    worst_case,
)
from qrframes.builtins import builtin_group, quaternion_2d_rep
from qrframes.operators import dagger, random_density, random_pure_state
from qrframes.quantum import GroupSpace, coherent_state_povm
from qrframes.relativize import PreconditionError, restrict

GROUPS = [cyclic_group(2), cyclic_group(4), symmetric_group(3), dihedral_group(4)]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_canonical_scheme_prc_exact(group):
    scheme = canonical_scheme(group)
    assert worst_case(check_prc(scheme))[0] <= 1e-10


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_canonical_scheme_rrc_exact(group):
    scheme = canonical_scheme(group)
    assert worst_case(check_rrc(scheme, left_regular_rep(group)))[0] <= 1e-10


def test_prc_statistics_match_state_sampling(s3, rng):
    # the operator identity implies the stated probability reproduction
    scheme = canonical_scheme(s3)
    u = scheme.interaction
    for _ in range(5):
        rho = random_density(rng, 6)
        evolved = u.conj().T @ np.kron(scheme.pointer_state, rho) @ u
        for y in range(6):
            lhs = np.trace(evolved @ np.kron(scheme.pointer_povm.effect(y), np.eye(6))).real
            rhs = born(scheme.target, rho)[y]
            assert lhs == pytest.approx(rhs)


def test_decoupled_scheme_constant_target(z3):
    # U = 1 and a constant target: E_S(x) = mu(x) * 1 satisfies reproduction
    rep = left_regular_rep(z3)
    pointer = canonical_pvm(rep)
    omega = np.diag([0.5, 0.3, 0.2]).astype(complex)
    mu = born(pointer, omega)
    target = POVM(GroupSpace(z3), [m * np.eye(3, dtype=complex) for m in mu])
    scheme = MeasurementScheme(
        interaction=np.eye(9, dtype=complex),
        pointer_povm=pointer,
        pointer_state=omega,
        outcome_map=list(range(3)),
        target=target,
    )
    assert worst_case(check_prc(scheme))[0] <= 1e-12


def test_perturbed_pointer_state_breaks_prc(z3):
    scheme = canonical_scheme(z3)
    drift = np.diag([0.9, 0.05, 0.05]).astype(complex)
    perturbed = MeasurementScheme(
        interaction=scheme.interaction,
        pointer_povm=scheme.pointer_povm,
        pointer_state=drift,
        outcome_map=scheme.outcome_map,
        target=scheme.target,
    )
    assert worst_case(check_prc(perturbed))[0] > 1e-3


def test_prc_witness_is_the_worst_outcome(z3):
    # The canonical scheme's PRC deviation is max(1 - p_e, max_{g != e} p_g)
    # at every outcome, whatever the pointer state, so the witness is pinned
    # on the decoupled scheme: there the deviation at y is |p'_y - p_y|.
    rep = left_regular_rep(z3)
    pointer = canonical_pvm(rep)
    mu = born(pointer, np.diag([0.5, 0.3, 0.2]).astype(complex))
    drift = np.diag([0.4, 0.45, 0.15]).astype(complex)
    scheme = MeasurementScheme(
        interaction=np.eye(9, dtype=complex),
        pointer_povm=pointer,
        pointer_state=drift,
        outcome_map=list(range(3)),
        target=POVM(GroupSpace(z3), [m * np.eye(3, dtype=complex) for m in mu]),
    )
    per_outcome = np.abs(np.diag(drift).real - mu)
    assert len(set(np.round(per_outcome, 12))) == 3
    worst, trials, witness = worst_case(check_prc(scheme))
    assert witness == {"y": int(np.argmax(per_outcome))}
    assert worst == pytest.approx(per_outcome.max())
    assert trials == 3


def _dense_reproduced(scheme, omega, read_out):
    """The dense PRC oracle: restrict(omega, U (E_R(X_y) (x) 1) U^dag) for
    every target outcome y, X_y the pointer outcomes read as y."""
    u = scheme.interaction
    eye = np.eye(scheme.target.dim)
    out = []
    for y in range(scheme.target.size):
        e_y = sum((scheme.pointer_povm.effect(x) for x in range(scheme.pointer_povm.size)
                   if read_out[x] == y), np.zeros((scheme.pointer_povm.dim,) * 2))
        out.append(restrict(omega, u @ np.kron(e_y, eye) @ dagger(u)))
    return np.array(out)


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _coherent_scheme(rng):
    """A scheme with a dense pointer POVM: the coherent states of q8's 2-dim
    irrep, a random (non-permutation) interaction, and the canonical PVM of
    q8 as the target."""
    q8 = builtin_group("q8")
    seed = rng.normal(size=2) + 1j * rng.normal(size=2)
    pointer = coherent_state_povm(quaternion_2d_rep(q8), seed)
    return MeasurementScheme(_random_unitary(rng, 2 * 8), pointer, random_density(rng, 2),
                             list(range(8)), canonical_pvm(left_regular_rep(q8)))


def _canonical_s3_scheme(rng, random_interaction):
    scheme = canonical_scheme(symmetric_group(3))
    if not random_interaction:
        return scheme
    return MeasurementScheme(_random_unitary(rng, 36), scheme.pointer_povm,
                             scheme.pointer_state, scheme.outcome_map, scheme.target)


@pytest.mark.parametrize("case", ("canonical", "random_interaction", "coherent_pointer"))
def test_reproduced_matches_dense_restriction(case, rng):
    # the Kraus-form PRC against the dense omega-restriction, on mixed and
    # pure pointer states and on injective and merging read-out maps
    if case == "coherent_pointer":
        scheme = _coherent_scheme(rng)
    else:
        scheme = _canonical_s3_scheme(rng, case == "random_interaction")
    n_pointer, n_target = scheme.pointer_povm.size, scheme.target.size
    d_r = scheme.pointer_povm.dim
    states = [scheme.pointer_state, random_pure_state(rng, d_r)]
    states += [random_density(rng, d_r) for _ in range(3)]
    maps = [None, [0] * n_pointer]
    maps += [list(rng.integers(n_target, size=n_pointer)) for _ in range(3)]
    assert any(len(set(m)) < n_pointer for m in maps[2:])
    # a labelled pointer PVM is read by its labels; the same scheme with the
    # pointer's effects as a plain POVM takes the dense contraction
    pointer = scheme.pointer_povm
    dense = MeasurementScheme(scheme.interaction, POVM(pointer.space, pointer.effects),
                              scheme.pointer_state, scheme.outcome_map, scheme.target)
    assert (pointer.labels is None) == (case == "coherent_pointer")
    for omega in states:
        for read_out in maps:
            oracle = _dense_reproduced(scheme, omega,
                                       scheme.outcome_map if read_out is None else read_out)
            reproduced = scheme.reproduced(omega, read_out)
            assert np.max(np.abs(reproduced - oracle)) <= 1e-12
            assert np.max(np.abs(reproduced - dense.reproduced(omega, read_out))) <= 1e-12


def test_rrc_at_identity_is_prc(s3):
    scheme = canonical_scheme(s3)
    prc_worst = worst_case(check_prc(scheme))[0]
    # restricting the relational check to h = e reproduces the plain one:
    # its read-out z -> f(e.z) is the outcome map itself
    omega = left_regular_rep(s3).act_op(s3.identity, scheme.pointer_state)
    read_out = [scheme.outcome_map[scheme.pointer_povm.act(s3.identity, z)]
                for z in range(scheme.pointer_povm.size)]
    lhs = _dense_reproduced(scheme, omega, read_out)
    worst = max(np.max(np.abs(lhs[y] - scheme.target.effect(y)))
                for y in range(scheme.target.size))
    assert worst <= 1e-10
    assert np.max(np.abs(scheme.reproduced(omega, read_out) - lhs)) <= 1e-12
    assert prc_worst <= 1e-9


def test_rrc_rejects_non_commuting_interaction(z3):
    n = 3
    swap = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            swap[j * 3 + i, i * 3 + j] = 1.0
    scheme = canonical_scheme(z3)
    swapped = MeasurementScheme(
        interaction=swap,
        pointer_povm=scheme.pointer_povm,
        pointer_state=scheme.pointer_state,
        outcome_map=scheme.outcome_map,
        target=scheme.target,
    )
    # per-element commutator norms are [0, sqrt 3, sqrt 3]: the first
    # largest, g=1, is the witness
    with pytest.raises(PreconditionError, match="commute") as err:
        worst_case(check_rrc(swapped, left_regular_rep(z3)))
    assert "g=1" in str(err.value)
    assert err.value.deviation == pytest.approx(np.sqrt(3))


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_rrc_relative_orientation_exact(group):
    frame = canonical_frame(group)
    system = canonical_frame(group)
    assert worst_case(rrc_relative_orientation(frame, system))[0] <= 1e-10


def test_rrc_relative_orientation_sampled_statistics(z4, rng):
    # Born-level statement: localizing the frame at h and shifting the
    # read-out set reproduces the target statistics on sampled states
    from qrframes import kron, localizing_state, relative_orientation

    frame = canonical_frame(z4)
    system = canonical_frame(z4)
    orientation = relative_orientation(frame, system)
    omega = localizing_state(frame, z4.identity)
    for _ in range(5):
        rho = random_density(rng, 4)
        target_stats = born(system.povm, rho)
        for h in z4.elements():
            state = kron(frame.rep.act_state(h, omega), rho)
            mu = born(orientation, state)
            for x in z4.elements():
                assert mu[z4.mul(h, x)] == pytest.approx(target_stats[x])


def test_rrc_relative_orientation_needs_localizable(z3):
    rep = left_regular_rep(z3)
    fuzzy = classify_frame(rep, uniform_povm(rep))
    with pytest.raises(UnsupportedFrameError):
        worst_case(rrc_relative_orientation(fuzzy, canonical_frame(z3)))


def test_scheme_validation():
    z2 = cyclic_group(2)
    scheme = canonical_scheme(z2)
    with pytest.raises(ValueError, match="unitary"):
        MeasurementScheme(
            interaction=np.ones((4, 4), dtype=complex),
            pointer_povm=scheme.pointer_povm,
            pointer_state=scheme.pointer_state,
            outcome_map=[0, 1],
            target=scheme.target,
        )
    with pytest.raises(ValueError, match="total"):
        MeasurementScheme(
            interaction=scheme.interaction,
            pointer_povm=scheme.pointer_povm,
            pointer_state=scheme.pointer_state,
            outcome_map=[0],
            target=scheme.target,
        )
    with pytest.raises(ValueError, match="outside"):
        MeasurementScheme(
            interaction=scheme.interaction,
            pointer_povm=scheme.pointer_povm,
            pointer_state=scheme.pointer_state,
            outcome_map=[0, 5],
            target=scheme.target,
        )
    # a density operator of the composite's size is not a pointer state
    z3_scheme = canonical_scheme(cyclic_group(3))
    with pytest.raises(ValueError, match="pointer state shape"):
        MeasurementScheme(z3_scheme.interaction, z3_scheme.pointer_povm, np.eye(9) / 9,
                          z3_scheme.outcome_map, z3_scheme.target)


def test_outcome_map_merging(z4, rng):
    # a non-injective read-out map sums the pointer effects it identifies
    scheme = canonical_scheme(z4)
    omega = random_density(rng, 4)
    singles = scheme.reproduced(omega)
    merged = scheme.reproduced(omega, [0, 1, 0, 3])
    assert np.allclose(merged[0], singles[0] + singles[2])
    assert np.allclose(merged[2], 0.0)
    assert np.max(np.abs(merged - _dense_reproduced(scheme, omega, [0, 1, 0, 3]))) <= 1e-12


@pytest.mark.parametrize("read_out, message", [
    ([-1, 1, 2], "outside the target"),     # would wrap pointer outcome 0 into 2
    ([0, 1, 3], "outside the target"),
    ([0, 1], "total on the pointer"),
    ([0, 1, 2, 0], "total on the pointer"),
])
def test_reproduced_validates_read_out(z3, read_out, message):
    # a read-out map is checked as the outcome map is
    scheme = canonical_scheme(z3)
    with pytest.raises(ValueError, match=message):
        scheme.reproduced(scheme.pointer_state, read_out)


def test_scheme_is_immutable(z3):
    # neither a field nor an array of a scheme may change after construction
    scheme = canonical_scheme(z3)
    assert worst_case(check_prc(scheme))[0] == 0.0
    with pytest.raises(FrozenInstanceError):
        scheme.interaction = np.eye(9)
    for array in (scheme.interaction, scheme.pointer_state):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.5
    assert worst_case(check_prc(scheme))[0] == 0.0
    # a scheme keeps its own copy of the caller's arrays
    u = np.eye(9)
    decoupled = MeasurementScheme(u, scheme.pointer_povm, scheme.pointer_state,
                                  scheme.outcome_map, scheme.target)
    u[:] = scheme.interaction.real
    assert abs(worst_case(check_prc(decoupled))[0] - 1.0) <= 1e-12
