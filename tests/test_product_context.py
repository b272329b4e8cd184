"""Product contexts against the explicit-generator EffectContext as an oracle.

A product context keeps one small context per tensor slot.  Each test writes
out every product generator with ``np.kron``, builds the explicit context from
them, and requires the two to agree at machine precision on the rank, the
projection, the pairings in generator order and the span.
"""

import functools
import itertools

import numpy as np
import pytest

from qrframes import (
    POVM,
    EffectContext,
    MultiFrameScenario,
    ProductContext,
    UnitaryRep,
    canonical_frame,
    classify_frame,
    frame_change,
    framed_subspace,
    left_regular_rep,
    relative_orientation,
)
from qrframes.builtins import builtin_group, standard_system_rep
from qrframes.opequiv import span_residual
from qrframes.operators import (HermitianBasis, kron, permute_factors, random_density,
                                random_hermitian)
from qrframes.quantum import GroupSpace, localizing_state

TOL = 1e-12
GROUPS = ("z2", "z3", "z4", "s3", "d5")


def _oracle(pieces_per_slot, dim):
    gens = [functools.reduce(np.kron, choice)
            for choice in itertools.product(*pieces_per_slot)]
    return EffectContext(gens, dim=dim)


def _pieces(scenario, reference, framed):
    return [scenario.frames[pos].povm.effects if pos in framed
            else HermitianBasis(scenario.dims[pos]).matrices
            for pos in scenario.complement(reference)]


def _compare(ctx, oracle, rng):
    assert isinstance(ctx, ProductContext)
    assert ctx.dim == oracle.dim
    assert ctx.rank == oracle.rank
    assert ctx.report() == oracle.report()
    for _ in range(3):
        a = random_hermitian(rng, ctx.dim)
        assert np.max(np.abs(ctx.project(a) - oracle.project(a))) <= TOL
        delta = rng.normal(size=(ctx.dim, ctx.dim)) + 1j * rng.normal(size=(ctx.dim, ctx.dim))
        expected = np.array([np.trace(delta @ f) for f in oracle.generators])
        assert np.max(np.abs(oracle.pairings(delta) - expected)) <= TOL
        assert np.max(np.abs(ctx.pairings(delta) - expected)) <= TOL
    assert span_residual(ctx, oracle) <= TOL
    assert span_residual(oracle, ctx) <= TOL
    span = ctx.span_coords
    assert np.max(np.abs(span @ span.T - np.eye(ctx.rank))) <= TOL


@pytest.mark.parametrize("name", GROUPS + ("s4",))
def test_framing_context_one_framed_slot(name, rng):
    group = builtin_group(name)
    frames = [canonical_frame(group), canonical_frame(group, "left_right")]
    scenario = MultiFrameScenario(frames, standard_system_rep(group, 2))
    for reference, framed in ((0, (1,)), (1, (0,))):
        ctx = scenario.framing_context(reference, framed)
        oracle = _oracle(_pieces(scenario, reference, framed), ctx.dim)
        _compare(ctx, oracle, rng)


@pytest.mark.parametrize("name", GROUPS)
def test_framing_context_two_framed_slots(name, rng):
    group = builtin_group(name)
    scenario = MultiFrameScenario([canonical_frame(group) for _ in range(3)], None)
    ctx = scenario.framing_context(2, (0, 1))
    _compare(ctx, _oracle(_pieces(scenario, 2, (0, 1)), ctx.dim), rng)


@pytest.mark.parametrize("name", ("z2", "z3"))
def test_framing_context_two_framed_slots_and_a_system(name, rng):
    group = builtin_group(name)
    scenario = MultiFrameScenario([canonical_frame(group) for _ in range(3)],
                                  standard_system_rep(group, 2))
    for reference, framed in ((2, (0, 1)), (0, (2,)), (1, ())):
        ctx = scenario.framing_context(reference, framed)
        _compare(ctx, _oracle(_pieces(scenario, reference, framed), ctx.dim), rng)


@pytest.mark.parametrize("name", GROUPS)
def test_framed_subspace(name, rng):
    frame = canonical_frame(builtin_group(name))
    ctx = framed_subspace(frame, 3)
    _compare(ctx, _oracle([frame.povm.effects, HermitianBasis(3).matrices], ctx.dim), rng)


def test_generators_in_product_order(z3):
    scenario = MultiFrameScenario([canonical_frame(z3) for _ in range(2)],
                                  standard_system_rep(z3, 2))
    ctx = scenario.framing_context(0, (1,))
    expected = [np.kron(e, b) for e in scenario.frames[1].povm.effects
                for b in HermitianBasis(2).matrices]
    assert len(ctx.generators) == len(expected) == 12
    for got, want in zip(ctx.generators, expected):
        assert np.array_equal(got, want)


def test_rank_deficient_slot(rng):
    # a slot whose generators are linearly dependent keeps its own rank
    e00, e11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    slots = [EffectContext([e00, e11, e00 + e11]), EffectContext([np.eye(3)])]
    ctx = ProductContext(slots)
    assert ctx.rank == 2
    _compare(ctx, _oracle([[e00, e11, e00 + e11], [np.eye(3)]], 6), rng)


@pytest.mark.parametrize("kind", ("explicit", "labelled", "basis"))
def test_single_slot_product_is_the_context(kind, rng):
    # an EffectContext is its own single slot: wrapping it in a product
    # context leaves projection and pairings bit for bit unchanged
    pvm = canonical_frame(builtin_group("s3")).povm
    ctx = {"explicit": lambda: EffectContext([random_hermitian(rng, 6) for _ in range(5)]),
           "labelled": lambda: EffectContext(pvm),
           "basis": lambda: EffectContext(HermitianBasis(6))}[kind]()
    product = ProductContext([ctx])
    for _ in range(3):
        a = random_hermitian(rng, 6)
        assert np.array_equal(ctx.project(a), product.project(a))
        delta = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert np.array_equal(ctx.pairings(delta), product.pairings(delta))


def test_project_rejects_non_hermitian(z2):
    ctx = framed_subspace(canonical_frame(z2), 2)
    with pytest.raises(ValueError, match="Hermitian"):
        ctx.project(np.triu(np.ones((4, 4))))
    with pytest.raises(ValueError, match="context dim"):
        ctx.pairings(np.eye(3))


def _labelled_slots():
    """Labelled PVMs whose classes have several members: the relative
    orientation of two canonical z3 frames (three indices a class), and a
    sharp PVM with one empty class."""
    z3, z4 = builtin_group("z3"), builtin_group("z4")
    orientation = relative_orientation(canonical_frame(z3), canonical_frame(z3))
    uneven = POVM._sharp(GroupSpace(z4), [0, 0, 2, 1, 2, 0])
    return [orientation, uneven]


@pytest.mark.parametrize("index", (0, 1))
def test_labelled_slot_with_repeated_labels(index, rng):
    povm = _labelled_slots()[index]
    assert povm.labels is not None
    assert len(set(povm.labels.tolist())) < povm.dim
    slot = EffectContext(povm)
    dense = EffectContext(povm.effects)
    assert slot.rank == dense.rank == len(set(povm.labels.tolist()))
    assert slot.report() == dense.report()
    a = random_hermitian(rng, povm.dim)
    assert np.max(np.abs(slot.project(a) - dense.project(a))) <= TOL
    delta = rng.normal(size=(povm.dim,) * 2) + 1j * rng.normal(size=(povm.dim,) * 2)
    assert np.max(np.abs(slot.pairings(delta) - dense.pairings(delta))) <= TOL
    assert span_residual(slot, dense) <= TOL and span_residual(dense, slot) <= TOL
    ctx = ProductContext([slot, EffectContext(HermitianBasis(2))])
    _compare(ctx, _oracle([povm.effects, HermitianBasis(2).matrices], ctx.dim), rng)


def _padded_frame(group):
    """The principal, localizable, non-sharp frame L (+) 1_2: E(g) is
    |g><g| (+) I_2 / |G| under the left-regular rep (+) the trivial one."""
    n = group.order
    mats = [np.block([[u, np.zeros((n, 2))], [np.zeros((2, n)), np.eye(2)]])
            for u in left_regular_rep(group).matrices]
    effects = [np.block([[np.diag(np.eye(n)[g]), np.zeros((n, 2))],
                         [np.zeros((2, n)), np.eye(2) / n]]) for g in range(n)]
    frame = classify_frame(UnitaryRep(group, mats), POVM(GroupSpace(group), effects))
    assert frame.localizable and not frame.sharp
    return frame


def _lifted(scenario, src, dst, state):
    """The predual of omega (x) state on the total space, omega the source
    frame's localizing state at the identity: frame_change before it
    projects."""
    omega = localizing_state(scenario.frames[src], scenario.group.identity)
    order = [src] + scenario.complement(src)
    inverse = [order.index(k) for k in range(scenario.n_factors)]
    total = permute_factors(kron(omega, state), [scenario.dims[k] for k in order], inverse)
    return scenario.yen_predual_total(dst, total)


def test_padded_frame_change_projects(rng):
    # a non-sharp source frame: the projection moves the predual, and the
    # product context projects as the explicit-generator oracle does
    group = builtin_group("s3")
    scenario = MultiFrameScenario([_padded_frame(group), canonical_frame(group)],
                                  standard_system_rep(group, 2))
    oracle = _oracle(_pieces(scenario, 1, (0,)), int(np.prod(scenario.complement_dims(1))))
    dim = int(np.prod(scenario.complement_dims(0)))
    basis_state = np.diag(np.eye(dim)[0])
    for state in [basis_state] + [random_density(rng, dim) for _ in range(3)]:
        lifted = _lifted(scenario, 0, 1, state)
        out = frame_change(scenario, 0, 1, state).matrix
        assert np.max(np.abs(out - oracle.project(lifted))) <= TOL
        assert np.max(np.abs(out - lifted)) > 1e-3
    moved = frame_change(scenario, 0, 1, basis_state).matrix - _lifted(scenario, 0, 1, basis_state)
    assert abs(np.max(np.abs(moved)) - 0.125) <= TOL


@pytest.mark.parametrize("name", ("s3", "d5"))
def test_frame_change_labelled_matches_dense_povms(name, rng):
    group = builtin_group(name)
    frames = [canonical_frame(group), canonical_frame(group, "left_right")]
    dense = [classify_frame(f.rep, POVM(f.povm.space, f.povm.effects)) for f in frames]
    assert all(f.povm.labels is not None for f in frames)
    assert all(f.povm.labels is None for f in dense)
    sys_rep = standard_system_rep(group, 2)
    fast, slow = MultiFrameScenario(frames, sys_rep), MultiFrameScenario(dense, sys_rep)
    for src, dst in ((0, 1), (1, 0)):
        state = random_density(rng, int(np.prod(fast.complement_dims(src))))
        got = frame_change(fast, src, dst, state)
        want = frame_change(slow, src, dst, state)
        assert np.max(np.abs(got.matrix - want.matrix)) <= TOL
        other = random_density(rng, got.matrix.shape[0])
        assert abs(got.class_deviation(other) - want.class_deviation(other)) <= TOL


def test_frame_change_rejects_non_hermitian_state(z3):
    scenario = MultiFrameScenario([canonical_frame(z3) for _ in range(2)],
                                  standard_system_rep(z3, 2))
    with pytest.raises(ValueError, match="Hermitian"):
        frame_change(scenario, 0, 1, np.triu(np.ones((6, 6))))
