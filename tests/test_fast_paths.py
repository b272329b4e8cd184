"""Structured fast paths against the dense path as an oracle.

Permutation representations act by index gathers and labelled (sharp,
diagonal) PVMs relativize by moving blocks.  Each test rebuilds the same
representation with ``UnitaryRep(group, matrices)`` and the same POVM with a plain
``POVM(space, effects)``, which carry no structure and so take the dense
path, and requires agreement at machine precision.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from qrframes import (
    POVM,
    CovarianceError,
    HomogeneousYenMap,
    MultiFrameScenario,
    UnitaryRep,
    YenMap,
    born,
    canonical_frame,
    canonical_pvm,
    classify_frame,
    coherent_state_povm,
    frame_change,
    left_regular_rep,
    left_right_rep,
    relative_orientation,
    restrict,
    rrc_relative_orientation,
    triangular_reconstruction,
    uniform_povm,
)
from qrframes.builtins import (BUILTIN_NAMES, builtin_group, character_rep, permutation_rep,
                               standard_system_rep)
from qrframes.groups import CosetSpace, Subgroup
from qrframes.measurement import _restricted
from qrframes.operators import kron, permute_factors, random_density, random_hermitian
from qrframes.quantum import (GroupSpace, canonical_coset_pvm, coset_permutation_rep,
                              localizing_state)
from qrframes.relativize import _extract, _place

TOL = 1e-12
GROUPS = ("z2", "z4", "s3", "q8", "d5")
FRAME_KINDS = ("left_regular", "left_right")
SYSTEMS = ("left_regular", "left_right", "coset")


def _cosets(group):
    """Left cosets of the subgroup generated by the first involution."""
    e = group.identity
    t = next(g for g in group.elements() if g != e and group.cayley[g, g] == e)
    return CosetSpace(group, Subgroup(group, [e, t]))


def _system(group, kind):
    if kind == "left_regular":
        return left_regular_rep(group)
    if kind == "left_right":
        return left_right_rep(group)
    return coset_permutation_rep(_cosets(group))


def _dense_rep(rep):
    dense = UnitaryRep(rep.group, rep.matrices)
    assert rep.permutations is not None and dense.permutations is None
    return dense


def _dense_povm(povm):
    dense = POVM(povm.space, povm.effects)
    assert povm.labels is not None and dense.labels is None
    return dense


def _dense_frame(frame):
    return classify_frame(_dense_rep(frame.rep), _dense_povm(frame.povm))


def _close(actual, expected):
    assert np.max(np.abs(np.asarray(actual) - np.asarray(expected))) <= TOL


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("kind", SYSTEMS)
def test_group_action_matches_dense(name, kind, rng):
    rep = _system(builtin_group(name), kind)
    dense = _dense_rep(rep)
    a = random_hermitian(rng, rep.dim)
    stack = np.array([random_hermitian(rng, rep.dim) for _ in rep.group.elements()])
    for g in rep.group.elements():
        _close(rep.act_op(g, a), dense.act_op(g, a))
        _close(rep.act_state(g, a), dense.act_state(g, a))
    for dual in (False, True):
        _close(rep.orbit(a, dual=dual), dense.orbit(a, dual=dual))
        _close(rep.orbit(stack, dual=dual), dense.orbit(stack, dual=dual))
    with pytest.raises(ValueError):
        rep.orbit(stack[1:])


@pytest.mark.parametrize("name", GROUPS)
def test_tensor_of_permutation_reps_matches_dense(name):
    group = builtin_group(name)
    a, b = left_regular_rep(group), _system(group, "coset")
    product = a.tensor(b)
    assert product.permutations is not None
    _close(product.matrices, _dense_rep(a).tensor(_dense_rep(b)).matrices)


def test_builtin_permutation_rep_is_structured():
    group = builtin_group("s3")
    rep = permutation_rep(group)
    for g, p in enumerate(group.permutations):
        assert tuple(rep.permutations[g]) == p
    _close(rep.matrices, _dense_rep(rep).matrices)


@pytest.mark.parametrize("name", GROUPS + ("s4",))
@pytest.mark.parametrize("frame_kind", FRAME_KINDS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_yen_apply_and_predual_match_dense(name, frame_kind, system, rng):
    group = builtin_group(name)
    frame = canonical_frame(group, frame_kind)
    sys_rep = _system(group, system)
    oracle = YenMap(_dense_frame(frame), _dense_rep(sys_rep))
    a = random_hermitian(rng, sys_rep.dim)
    omega = random_hermitian(rng, oracle.dim_total)
    expected_apply, expected_predual = oracle.apply(a), oracle.predual(omega)
    # every mix of structured and dense frame and system
    for f, s in itertools.product((frame, oracle.frame), (sys_rep, oracle.sys_rep)):
        ym = YenMap(f, s)
        _close(ym.apply(a), expected_apply)
        _close(ym.predual(omega), expected_predual)


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("frame_kind", FRAME_KINDS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_scenario_yen_total_matches_dense(name, frame_kind, system, rng):
    group = builtin_group(name)
    frames = [canonical_frame(group, frame_kind), canonical_frame(group, frame_kind)]
    sys_rep = _system(group, system)
    fast = MultiFrameScenario(frames, sys_rep)
    dense = MultiFrameScenario([_dense_frame(f) for f in frames], _dense_rep(sys_rep))
    assert fast.rest_rep(0).permutations is not None
    omega = random_hermitian(rng, fast.total_dim)
    for j in range(2):
        a = random_hermitian(rng, fast.rest_rep(j).dim)
        _close(fast.yen_total(j, a), dense.yen_total(j, a))
        _close(fast.yen_predual_total(j, omega), dense.yen_predual_total(j, omega))


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("frame_kind", FRAME_KINDS)
def test_scenario_without_system_matches_yen_map(name, frame_kind, rng):
    group = builtin_group(name)
    frames = [canonical_frame(group, frame_kind), canonical_frame(group, "left_regular")]
    scenario = MultiFrameScenario(frames)
    dense = YenMap(_dense_frame(frames[0]), _dense_rep(frames[1].rep))
    a = random_hermitian(rng, group.order)
    omega = random_hermitian(rng, group.order ** 2)
    _close(scenario.yen_total(0, a), dense.apply(a))
    _close(scenario.yen_predual_total(0, omega), dense.predual(omega))


def _rotated_frame(frame, rng):
    """The frame conjugated by a random unitary: no labels, no permutations."""
    g = rng.normal(size=(frame.dim,) * 2) + 1j * rng.normal(size=(frame.dim,) * 2)
    v = np.linalg.qr(g)[0]
    rep = UnitaryRep(frame.group, [v @ u @ v.conj().T for u in frame.rep.matrices])
    return classify_frame(rep, POVM(frame.povm.space,
                                    [v @ e @ v.conj().T for e in frame.povm.effects]))


def _lifted_frame_change(scenario, src, dst, state, point):
    """frame_change through the total space: the lift omega (x) state built
    by kron and permute_factors, the target frame's predual, the projection."""
    omega = localizing_state(scenario.frames[src], point)
    order = [src] + scenario.complement(src)
    inverse = [order.index(k) for k in range(scenario.n_factors)]
    total = permute_factors(kron(omega, state), [scenario.dims[k] for k in order], inverse)
    return scenario.framing_context(dst, (src,)).project(scenario.yen_predual_total(dst, total))


# rotated frames take the dense path everywhere, so they skip the largest group
@pytest.mark.parametrize("name,frame_kind", [
    (name, kind) for name in ("z2", "z3", "s3", "q8") for kind in FRAME_KINDS
] + [(name, "rotated") for name in ("z2", "z3", "s3")])
@pytest.mark.parametrize("n_frames", (2, 3))
@pytest.mark.parametrize("with_system", (False, True))
def test_frame_change_matches_dense_lift(name, frame_kind, n_frames, with_system, rng):
    group = builtin_group(name)
    if frame_kind == "rotated":
        frames = [_rotated_frame(canonical_frame(group), rng) for _ in range(n_frames)]
        dense_frames = frames
    else:
        frames = [canonical_frame(group, frame_kind) for _ in range(n_frames)]
        dense_frames = [_dense_frame(f) for f in frames]
    sys_rep = standard_system_rep(group, 2) if with_system else None
    fast = MultiFrameScenario(frames, sys_rep)
    dense = MultiFrameScenario(dense_frames, sys_rep)
    for src, dst in itertools.permutations(range(n_frames), 2):
        state = random_density(rng, int(np.prod(fast.complement_dims(src))))
        for point in (group.identity, group.order - 1):
            expected = _lifted_frame_change(fast, src, dst, state, point)
            _close(frame_change(fast, src, dst, state, localize_at=point).matrix, expected)
            _close(frame_change(dense, src, dst, state, localize_at=point).matrix, expected)


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("frame_kind", FRAME_KINDS)
def test_born_matches_dense(name, frame_kind, rng):
    frame = canonical_frame(builtin_group(name), frame_kind)
    rho = random_density(rng, frame.dim)
    _close(born(frame.povm, rho), born(_dense_povm(frame.povm), rho))


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("kinds", list(itertools.product(FRAME_KINDS, repeat=2)))
def test_relative_orientation_matches_dense(name, kinds):
    group = builtin_group(name)
    f1, f2 = (canonical_frame(group, k) for k in kinds)
    fast = relative_orientation(f1, f2)
    assert fast.labels is not None
    dense = relative_orientation(_dense_frame(f1), _dense_frame(f2))
    assert dense.labels is None
    _close(np.array(fast.effects), np.array(dense.effects))


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_triangular_reconstruction_matches_dense(name, system, rng):
    group = builtin_group(name)
    f1, f2 = canonical_frame(group, "left_regular"), canonical_frame(group, "left_right")
    sys_rep = _system(group, system)
    d1, d2 = _dense_frame(f1), _dense_frame(f2)
    dense_orientation = relative_orientation(d1, d2)
    rho = random_density(rng, sys_rep.dim)
    omega = random_density(rng, f1.dim * f2.dim)
    expected = triangular_reconstruction(d1, d2, rho, _dense_rep(sys_rep), omega,
                                         orientation=dense_orientation)
    _close(triangular_reconstruction(f1, f2, rho, sys_rep, omega), expected)


@pytest.mark.parametrize("name", GROUPS)
def test_homogeneous_yen_matches_dense(name, rng):
    group = builtin_group(name)
    cosets = _cosets(group)
    frame = classify_frame(coset_permutation_rep(cosets), canonical_coset_pvm(cosets))
    sys_rep = left_regular_rep(group)
    # an operator invariant under the isotropy subgroup
    b = random_hermitian(rng, sys_rep.dim)
    a = sum(sys_rep.act_op(h, b) for h in cosets.subgroup) / cosets.subgroup.order
    expected = HomogeneousYenMap(_dense_frame(frame), _dense_rep(sys_rep)).apply(a)
    _close(HomogeneousYenMap(frame, sys_rep).apply(a), expected)


# labellings the canonical frames never produce: several indices share a
# label, and some label has no index at all (its effect is zero)
@pytest.mark.parametrize("labels", ([0, 0, 2, 2, 2, 3], [3, 3, 3, 3, 3, 3], [1, 0, 3, 2, 0, 1]))
@pytest.mark.parametrize("dims,slot", [
    ((6,), 0), ((6, 3), 0), ((3, 6), 1), ((2, 6, 3), 1), ((2, 3, 6, 2), 2),
])
def test_labelled_extract_and_place_match_dense(z4, labels, dims, slot, rng):
    sharp = POVM._sharp(GroupSpace(z4), labels)
    dense = POVM(sharp.space, sharp.effects)
    assert dense.labels is None
    dim = int(np.prod(dims))
    rest = dim // dims[slot]
    omega = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    _close(_extract(sharp, omega, dims, slot), _extract(dense, omega, dims, slot))
    blocks = rng.normal(size=(4, rest, rest)) + 1j * rng.normal(size=(4, rest, rest))
    _close(_place(sharp, blocks, dims, slot), _place(dense, blocks, dims, slot))


def _reference_apply(frame, sys_rep, a):
    """sum_g E(g) (x) U(g) A U(g)^dag, written out."""
    return sum(kron(frame.povm.effect(g), sys_rep.mat(g) @ a @ sys_rep.mat(g).conj().T)
               for g in frame.group.elements())


def test_unstructured_frames_and_systems_take_the_dense_path(z4, rng):
    regular = left_regular_rep(z4)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    seed = np.fft.ifft(phases)
    coherent = classify_frame(regular, coherent_state_povm(regular, seed / np.linalg.norm(seed)))
    uniform = classify_frame(regular, uniform_povm(regular))
    system = character_rep(z4, [0, 1, 3])
    assert coherent.povm.labels is None and uniform.povm.labels is None
    assert system.permutations is None
    for frame in (coherent, uniform):
        ym = YenMap(frame, system)
        a = random_hermitian(rng, system.dim)
        omega = random_hermitian(rng, ym.dim_total)
        _close(ym.apply(a), _reference_apply(frame, system, a))
        assert abs(np.trace(ym.predual(omega) @ a) - np.trace(omega @ ym.apply(a))) <= TOL
        rho = random_density(rng, frame.dim)
        _close(born(frame.povm, rho),
               [np.trace(rho @ e).real for e in frame.povm.effects])
        assert relative_orientation(frame, canonical_frame(z4)).labels is None
        scenario = MultiFrameScenario([frame], system)
        _close(scenario.yen_total(0, a), ym.apply(a))
        _close(scenario.yen_predual_total(0, omega), ym.predual(omega))


def test_povm_effects_are_read_only(s3):
    frame = canonical_frame(s3)
    povm = frame.povm
    assert isinstance(povm.effects, tuple)
    with pytest.raises(ValueError):
        povm.effects[0][0, 0] = 0.5
    with pytest.raises(ValueError):
        povm.effects[1].setflags(write=True)
    with pytest.raises(ValueError):
        povm.labels[0] = 1
    dense = POVM(povm.space, povm.effects)
    with pytest.raises(ValueError):
        dense.effect(0)[:] = 0.0
    assert frame.localizable and frame.sharp


@pytest.mark.parametrize("name", GROUPS + ("s4",))
@pytest.mark.parametrize("kind", FRAME_KINDS + ("coset",))
def test_classify_frame_matches_dense(name, kind):
    group = builtin_group(name)
    if kind == "coset":
        cosets = _cosets(group)
        frame = classify_frame(coset_permutation_rep(cosets), canonical_coset_pvm(cosets))
    else:
        frame = canonical_frame(group, kind)
    dense = _dense_frame(frame)
    for flag in ("principal", "sharp", "ideal", "localizable", "complete"):
        assert getattr(frame, flag) == getattr(dense, flag), flag
    assert frame.isotropy.members == dense.isotropy.members


@pytest.mark.parametrize("name", ("z4", "s3"))
def test_classify_frame_rejects_non_covariant_labels(name):
    # the left-regular pointer PVM is not covariant for the left-right action
    group = builtin_group(name)
    rep = left_right_rep(group)
    pvm = canonical_frame(group).povm
    for r, p in ((rep, pvm), (_dense_rep(rep), _dense_povm(pvm))):
        with pytest.raises(CovarianceError, match="deviation 1.000e"):
            classify_frame(r, p)


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("kind", SYSTEMS)
def test_batched_orbit_matches_single_orbits(name, kind, rng):
    rep = _system(builtin_group(name), kind)
    n = rep.group.order
    ops = np.array([random_hermitian(rng, rep.dim) for _ in range(3)])
    stacks = np.array([[random_hermitian(rng, rep.dim) for _ in range(n)] for _ in range(2)])
    for r in (rep, _dense_rep(rep)):
        for dual in (False, True):
            _close(r.orbit(ops[:, None], dual=dual),
                   [r.orbit(a, dual=dual) for a in ops])
            _close(r.orbit(stacks, dual=dual),
                   [r.orbit(s, dual=dual) for s in stacks])
    if n > 2:
        with pytest.raises(ValueError):
            rep.orbit(stacks[:, :2])


def _dense_reps():
    """Representations without permutations: the 2-dim systems of q8 and d5,
    dense copies of their left-regular reps, and s4's 48-dim frame rep (x)
    2-dim system."""
    q8, d5, s4 = (builtin_group(name) for name in ("q8", "d5", "s4"))
    return ([standard_system_rep(g, 2) for g in (q8, d5)]
            + [_dense_rep(left_regular_rep(g)) for g in (q8, d5)]
            + [canonical_frame(s4).rep.tensor(standard_system_rep(s4, 2))])


@pytest.mark.parametrize("index", range(5))
def test_dense_orbit_of_one_operator_matches_group_action(index, rng):
    rep = _dense_reps()[index]
    assert rep.permutations is None
    a = rng.normal(size=(rep.dim,) * 2) + 1j * rng.normal(size=(rep.dim,) * 2)
    _close(rep.orbit(a), [rep.act_op(g, a) for g in rep.group.elements()])
    _close(rep.orbit(a, dual=True), [rep.act_state(g, a) for g in rep.group.elements()])


# ---------------------------------------------------------------------------
# Labelled PVMs keep their labels: every effect, restriction and localizing
# state is compared with the dense construction
# ---------------------------------------------------------------------------

def _basis_projector(dim, i):
    p = np.zeros((dim, dim), dtype=complex)
    p[i, i] = 1.0
    return p


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_canonical_pvm_effects_are_the_dense_stack(name, kind):
    # E(g) = |g><g| for the left-regular rep, |g^-1><g^-1| for the left-right rep
    group = builtin_group(name)
    povm = canonical_pvm(_system(group, kind))
    point = (lambda g: g) if kind == "left_regular" else group.inv
    expected = np.array([_basis_projector(group.order, point(g)) for g in group.elements()])
    assert np.array_equal(np.array(povm.effects), expected)
    for g in group.elements():
        assert np.array_equal(povm.effect(g), expected[g])
    with pytest.raises(ValueError):
        povm.effect(0)[0, 0] = 0.5
    with pytest.raises(ValueError):
        povm.effect(0).setflags(write=True)


@pytest.mark.parametrize("name", GROUPS + ("s4",))
def test_canonical_coset_pvm_effects_are_the_dense_stack(name):
    cosets = _cosets(builtin_group(name))
    povm = canonical_coset_pvm(cosets)
    n = cosets.n_cosets
    assert np.array_equal(np.array(povm.effects),
                          np.array([_basis_projector(n, c) for c in range(n)]))


def _orientation_effect(f1, f2, x):
    """sum_g E1(g) (x) U2(g) E2(x) U2(g)^dag, from the frames' matrices."""
    e2 = f2.povm.effect(x)
    return sum(np.kron(f1.povm.effect(g), f2.rep.mat(g) @ e2 @ f2.rep.mat(g).conj().T)
               for g in f1.group.elements())


@pytest.mark.parametrize("name", ("s3", "s4"))
@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_relative_orientation_effects_are_the_dense_stack(name, kind):
    group = builtin_group(name)
    f1, f2 = canonical_frame(group, kind), canonical_frame(group, kind)
    orientation = relative_orientation(f1, f2)
    assert orientation.labels is not None
    effects = orientation.effects
    for x in group.elements():
        expected = _orientation_effect(f1, f2, x)
        assert np.array_equal(effects[x], expected)
        assert np.array_equal(orientation.effect(x), expected)


def test_relative_orientation_holds_no_effect_stack():
    # the s4 orientation's dense stack is 24 x 576^2 complex entries (121.5 MiB)
    frame = canonical_frame(builtin_group("s4"))
    tracemalloc.start()
    try:
        orientation = relative_orientation(frame, frame)
        peak = tracemalloc.get_traced_memory()[1]
        assert len(orientation.effects) == 24       # built on access ...
        kept = tracemalloc.get_traced_memory()[0]   # ... and not cached
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert kept < 1 << 20


@pytest.mark.parametrize("name", ("s3", "s4"))
@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_labelled_restriction_matches_dense(name, kind, rng):
    group = builtin_group(name)
    frame = canonical_frame(group, kind)
    orientation = relative_orientation(frame, frame)
    for _ in range(2):
        omega = random_density(rng, frame.dim)
        assert np.max(np.abs(omega - np.diag(np.diagonal(omega)))) > 1e-3
        expected = [restrict(omega, orientation.effect(y)) for y in group.elements()]
        _close(_restricted(omega, orientation), expected)
        if name == "s3":
            _close(_restricted(omega, _dense_povm(orientation)), expected)


@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_rrc_relative_orientation_matches_dense(s3, kind):
    frame = canonical_frame(s3, kind)
    dense = _dense_frame(frame)
    fast_yields = list(rrc_relative_orientation(frame, frame))
    dense_yields = list(rrc_relative_orientation(dense, dense))
    assert [w for _, w in fast_yields] == [w for _, w in dense_yields]
    _close([d for d, _ in fast_yields], [d for d, _ in dense_yields])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_labelled_localizing_state_is_the_eigh_state(name, kind):
    frame = canonical_frame(builtin_group(name), kind)
    dense = _dense_frame(frame)
    for x in range(frame.povm.size):
        assert np.array_equal(localizing_state(frame, x), localizing_state(dense, x))
