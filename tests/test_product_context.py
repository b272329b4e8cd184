"""Product contexts against the explicit-generator EffectContext as an oracle.

A product context keeps one small context per tensor slot.  Each test writes
out every product generator with ``np.kron``, builds the explicit context from
them, and requires the two to agree at machine precision on the rank, the
projection, the pairings in generator order, the span and the kernel.
"""

import functools
import itertools

import numpy as np
import pytest

from qrframes import (
    EffectContext,
    MultiFrameScenario,
    ProductContext,
    canonical_frame,
    framed_subspace,
)
from qrframes.builtins import builtin_group, standard_system_rep
from qrframes.opequiv import span_residual
from qrframes.operators import HermitianBasis, random_hermitian

TOL = 1e-12
GROUPS = ("z2", "z3", "z4", "s3", "d5")
KERNEL_LIMIT = 2500     # largest dim**2 whose dense kernel the tests build


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
    if ctx.basis.size <= KERNEL_LIMIT:
        kernel = ctx.kernel_coords()
        assert kernel.shape == (ctx.basis.size - ctx.rank, ctx.basis.size)
        assert np.max(np.abs(kernel @ kernel.T - np.eye(kernel.shape[0])), initial=0.0) <= TOL
        assert np.max(np.abs(kernel @ span.T), initial=0.0) <= TOL
        assert np.max(np.abs(kernel @ oracle.span_coords.T), initial=0.0) <= TOL


@pytest.mark.parametrize("name", GROUPS)
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


def test_project_rejects_non_hermitian(z2):
    ctx = framed_subspace(canonical_frame(z2), 2)
    with pytest.raises(ValueError, match="Hermitian"):
        ctx.project(np.triu(np.ones((4, 4))))
    with pytest.raises(ValueError, match="context dim"):
        ctx.pairings(np.eye(3))
