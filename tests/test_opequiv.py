import numpy as np
import pytest

from qrframes import (
    EffectContext,
    ProductContext,
    UnitaryRep,
    canonical_frame,
    classify_frame,
    cyclic_group,
    fixed_subspace,
    framed_subspace,
    g_twirl,
    g_twirl_predual,
    intersect,
    invariant_subspace,
    left_regular_rep,
    op_norm,
    relative_orientation,
    trivial_rep,
)
from qrframes.builtins import BUILTIN_NAMES, builtin_group, standard_system_rep
from qrframes.groups import CosetSpace, Subgroup
from qrframes.opequiv import _slot_gram, span_residual
from qrframes.operators import DEFAULT_TOL, HermitianBasis, random_density, random_hermitian
from qrframes.quantum import canonical_coset_pvm, coset_permutation_rep


def _kernel_element(ctx, rng):
    """A random Hermitian matrix that no generator of the context sees."""
    h = random_hermitian(rng, ctx.dim)
    return h - ctx.project(h)


def _equivalent(ctx, a, b):
    return ctx.class_deviation(a, b) <= DEFAULT_TOL


def test_identity_context_rank_one():
    ctx = EffectContext([np.eye(3)])
    assert ctx.rank == 1
    assert ctx.kernel_dim == 8
    # all density matrices are equivalent: only the trace is visible
    rho1 = np.diag([1.0, 0.0, 0.0])
    rho2 = np.eye(3) / 3
    assert _equivalent(ctx, rho1, rho2)


def test_full_rank_context_is_equality(rng):
    ctx = EffectContext(HermitianBasis(2).matrices)
    assert ctx.rank == 4
    assert ctx.kernel_dim == 0
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    assert _equivalent(ctx, a, a + 1e-15 * np.eye(2))
    assert _equivalent(ctx, a, b) == bool(np.max(np.abs(a - b)) <= 1e-8)


def test_pvm_plus_products_full_rank(z2):
    # effects of a rank-complete PVM together with enough extra Hermitian
    # operators span the whole Hermitian space
    frame = canonical_frame(z2)
    gens = list(frame.povm.effects)
    gens.append(np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    gens.append(np.array([[0, 1j], [-1j, 0]]) / np.sqrt(2))
    ctx = EffectContext(gens)
    assert ctx.rank == 4


def test_empty_context():
    ctx = EffectContext([], dim=2)
    assert ctx.rank == 0
    assert ctx.kernel_dim == 4
    assert _equivalent(ctx, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    # no generator tells any pair apart
    assert ctx.class_deviation(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0


@pytest.mark.parametrize("make", (
    lambda: EffectContext([np.eye(3)]),
    lambda: EffectContext([], dim=2),
    lambda: framed_subspace(canonical_frame(cyclic_group(2)), 2),
), ids=("effect", "effect-rank-0", "product"))
def test_cached_context_arrays_are_read_only(make):
    # a run shares contexts between checks, so a write in one check would
    # change the verdicts of the next
    ctx = make()
    with pytest.raises(ValueError, match="read-only"):
        ctx.span_coords[...] = 0.0


def test_context_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        EffectContext([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_equivalence_is_reflexive_symmetric_transitive(rng):
    frame_gens = [random_hermitian(rng, 3) for _ in range(3)]
    ctx = EffectContext(frame_gens)
    for _ in range(20):
        a = random_hermitian(rng, 3)
        assert _equivalent(ctx, a, a)
        b = a + 0.3 * _kernel_element(ctx, rng)
        c = b + 0.2 * _kernel_element(ctx, rng)
        assert _equivalent(ctx, a, b) and _equivalent(ctx, b, a)
        assert _equivalent(ctx, b, c)
        assert _equivalent(ctx, a, c)


def test_kernel_perturbation_invisible(rng):
    frame = canonical_frame(cyclic_group(3))
    ctx = EffectContext(list(frame.povm.effects))
    for _ in range(ctx.kernel_dim):
        a = random_hermitian(rng, 3)
        assert _equivalent(ctx, a, a + 0.7 * _kernel_element(ctx, rng))
        # and a visible perturbation is seen
    visible = ctx.span_basis[0]
    a = random_hermitian(rng, 3)
    assert not _equivalent(ctx, a, a + 0.7 * visible)


def test_rank_nullity(rng):
    for n_gens in (0, 1, 3, 9):
        gens = [random_hermitian(rng, 3) for _ in range(n_gens)]
        ctx = EffectContext(gens, dim=3)
        assert ctx.rank + ctx.kernel_dim == 9


def test_canonical_repr_fixed_point_and_scaling(rng):
    n = 3
    ctx = EffectContext([np.eye(n) / np.sqrt(n)])
    a = random_hermitian(rng, n)
    projected = ctx.project(a)
    assert np.allclose(projected, (np.trace(a).real / n) * np.eye(n))
    # an operator already in the span is fixed
    scaled = 2.5 * np.eye(n)
    assert np.allclose(ctx.project(scaled), scaled)


def test_canonical_repr_characterizes_equivalence(rng):
    gens = [random_hermitian(rng, 3) for _ in range(4)]
    ctx = EffectContext(gens)
    agree = disagree = 0
    for _ in range(200):
        a = random_hermitian(rng, 3)
        if rng.uniform() < 0.5:
            b = a + 0.5 * _kernel_element(ctx, rng)
        else:
            b = random_hermitian(rng, 3)
        eq = _equivalent(ctx, a, b)
        reprs_match = op_norm(ctx.project(a) - ctx.project(b)) <= 1e-9
        assert eq == reprs_match
        agree += eq
        disagree += not eq
    assert agree > 0 and disagree > 0


def test_projector_idempotent_self_adjoint(rng):
    gens = [random_hermitian(rng, 3) for _ in range(4)]
    ctx = EffectContext(gens)
    p = ctx.projector
    assert np.max(np.abs(p @ p - p)) <= 1e-10
    assert np.max(np.abs(p - p.T)) <= 1e-10


def test_span_basis_orthonormal(rng):
    gens = [random_hermitian(rng, 4) for _ in range(6)]
    ctx = EffectContext(gens)
    mats = ctx.span_basis
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            assert np.vdot(a, b).real == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_g_twirl_fixes_invariants(s3, rng):
    rep = left_regular_rep(s3)
    a = g_twirl(rep, random_hermitian(rng, 6))
    assert np.allclose(g_twirl(rep, a), a)
    for h in s3.elements():
        assert np.allclose(rep.act_op(h, a), a)


def test_g_twirl_z2_point():
    z2 = cyclic_group(2)
    rep = left_regular_rep(z2)
    out = g_twirl(rep, np.diag([1.0, 0.0]))
    assert np.allclose(out, np.eye(2) / 2)


def test_g_twirl_channel_properties(s3, rng):
    rep = left_regular_rep(s3)
    assert np.allclose(g_twirl(rep, np.eye(6)), np.eye(6))
    for _ in range(10):
        a = random_hermitian(rng, 6)
        assert np.trace(g_twirl(rep, a)) == pytest.approx(np.trace(a).real)
        rho = random_density(rng, 6)
        eigs = np.linalg.eigvalsh(g_twirl_predual(rep, rho))
        assert np.min(eigs) >= -1e-12


def test_invariant_subspace_trivial_rep(z3):
    ctx = invariant_subspace(trivial_rep(z3, 3))
    assert ctx.rank == 9


def test_invariant_subspace_regular_rank_oracle():
    # nullspace oracle: rank of the fixed space equals the nullity of
    # (twirl - identity) as a matrix on Hermitian coordinates
    for n in (2, 3, 4):
        g = cyclic_group(n)
        rep = left_regular_rep(g)
        ctx = invariant_subspace(rep)
        basis = HermitianBasis(n)
        t = np.zeros((n * n, n * n))
        for k, b in enumerate(basis.matrices):
            t[:, k] = basis.to_coords(g_twirl(rep, b))
        nullity = int(np.sum(np.abs(np.linalg.eigvals(t - np.eye(n * n))) <= 1e-9))
        assert ctx.rank == nullity
        assert ctx.rank == n  # commutant of the regular rep of an abelian group
        # identity is always invariant
        assert op_norm(ctx.project(np.eye(n)) - np.eye(n)) <= 1e-10


def test_framed_subspace_rank(z2):
    frame = canonical_frame(z2)
    ctx = framed_subspace(frame, 2)
    assert ctx.rank == 8  # 2 orthogonal effect blocks x 4 Hermitian basis


def test_intersect_self(rng):
    gens = [random_hermitian(rng, 3) for _ in range(4)]
    ctx = EffectContext(gens)
    inter = intersect(ctx, ctx)
    assert inter.rank == ctx.rank
    assert span_residual(inter, ctx) <= 1e-9
    assert span_residual(ctx, inter) <= 1e-9


def test_intersect_orthogonal_parts():
    e00 = np.diag([1.0, 0.0])
    e11 = np.diag([0.0, 1.0])
    ctx1 = EffectContext([e00])
    ctx2 = EffectContext([e11])
    assert intersect(ctx1, ctx2).rank == 0
    both = EffectContext([e00, e11])
    assert intersect(ctx1, both).rank == 1


def test_intersect_larger_rank_first():
    # the full SVD of V1 V2^T has r1 left vectors but min(r1, r2) cosines, so
    # only the thin SVD pairs them when the first rank is the larger one
    basis = HermitianBasis(51)
    three = EffectContext(basis.from_coords(np.eye(3, basis.size)))
    two = EffectContext(basis.from_coords(np.eye(2, basis.size)))
    for a, b in ((three, two), (two, three)):
        inter = intersect(a, b)
        assert inter.rank == 2
        assert span_residual(inter, two) <= 1e-12
        assert span_residual(two, inter) <= 1e-12


def _dense_intersection(ctx1, ctx2, tol=1e-9):
    """Nullspace of 2I - P1 - P2 on Hermitian coordinates, as rows."""
    m = 2.0 * np.eye(ctx1.basis.size) - ctx1.projector - ctx2.projector
    vals, vecs = np.linalg.eigh(m)
    return vecs[:, vals <= tol].T


@pytest.mark.parametrize("name", ("z2", "z3", "z4", "s3", "d5"))
def test_intersect_matches_dense_oracle(name):
    group = builtin_group(name)
    frame = canonical_frame(group)
    framed = framed_subspace(frame, 2)
    invariant = invariant_subspace(frame.rep.tensor(standard_system_rep(group, 2)))
    oracle = EffectContext(framed.basis.from_coords(_dense_intersection(framed, invariant)),
                           dim=framed.dim)
    assert oracle.rank > 0
    for a, b in ((framed, invariant), (invariant, framed)):
        inter = intersect(a, b)
        assert inter.rank == oracle.rank
        assert span_residual(inter, oracle) <= 1e-12
        assert span_residual(oracle, inter) <= 1e-12


def _assert_same_span(a, b):
    assert a.rank == b.rank
    assert span_residual(a, b) <= 1e-12
    assert span_residual(b, a) <= 1e-12


def _fixed_against_oracle(ctx, reps):
    """fixed_subspace against the dense intersection with the invariant
    operators of the product rep; returns the fixed part."""
    fixed = fixed_subspace(ctx, reps)
    product = reps[0]
    for rep in reps[1:]:
        product = product.tensor(rep)
    _assert_same_span(fixed, intersect(ctx, invariant_subspace(product)))
    return fixed


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_fixed_subspace_matches_intersect_on_framed_spans(name):
    group = builtin_group(name)
    frame = canonical_frame(group)
    sys_rep = standard_system_rep(group, 2)
    fixed = _fixed_against_oracle(framed_subspace(frame, 2), [frame.rep, sys_rep])
    # one system operator per orbit of the regular sample space
    assert fixed.rank == 4


def test_fixed_subspace_matches_intersect_on_a_coset_frame(s3):
    # a sharp frame on s3/H with H a non-normal subgroup of order 2
    member = next(g for g in s3.elements() if g != s3.identity and s3.mul(g, g) == s3.identity)
    cosets = CosetSpace(s3, Subgroup(s3, [s3.identity, member]))
    frame = classify_frame(coset_permutation_rep(cosets), canonical_coset_pvm(cosets))
    sys_rep = standard_system_rep(s3, 2)
    fixed = _fixed_against_oracle(framed_subspace(frame, 2), [frame.rep, sys_rep])
    assert fixed.rank > 0


def _moves_out_of(ctx, rep):
    """The largest distance from the span of ctx of some g.S, S a span basis
    operator: positive when the span is not G-stable."""
    return max(op_norm(m - ctx.project(m)) for x in ctx.span_basis for m in rep.orbit(x))


def test_fixed_subspace_of_a_span_that_is_not_g_stable(s3, rng):
    # random generators next to two invariant ones: the fixed part is the
    # invariant pair, found without the span being covariant
    rep = standard_system_rep(s3, 2).tensor(left_regular_rep(s3))
    noise = [random_hermitian(rng, rep.dim) for _ in range(3)]
    invariant = [g_twirl(rep, random_hermitian(rng, rep.dim)) for _ in range(2)]
    ctx = EffectContext(noise + invariant + [noise[0] + invariant[0]])
    assert _moves_out_of(ctx, rep) > 1e-3
    assert _fixed_against_oracle(ctx, [rep]).rank == 2


def test_fixed_subspace_of_a_non_covariant_product(s3, rng):
    # a product whose first slot holds a non-covariant effect family
    frame = canonical_frame(s3)
    sys_rep = standard_system_rep(s3, 2)
    slot = EffectContext([np.eye(6), np.diag([1.0, 0, 0, 0, 0, 0])]
                         + [random_hermitian(rng, 6) for _ in range(3)])
    ctx = ProductContext([slot, EffectContext(HermitianBasis(2).matrices)])
    assert _moves_out_of(slot, frame.rep) > 1e-3
    fixed = _fixed_against_oracle(ctx, [frame.rep, sys_rep])
    # at least 1 (x) B for every invariant system operator B
    assert fixed.rank >= invariant_subspace(sys_rep).rank


@pytest.mark.parametrize("name", ("s3", "s4"))
def test_labelled_slot_gram_matches_dense(name):
    # the labelled Gram is an index count under a permutation rep; a dense
    # copy of the rep takes the orbit of the span instead
    group = builtin_group(name)
    frame = canonical_frame(group)
    cases = [(frame.povm, frame.rep)]
    if name == "s3":
        # classes of six indices each, under the pair's permutation rep
        cases.append((relative_orientation(frame, frame), frame.rep.tensor(frame.rep)))
    for povm, rep in cases:
        slot = EffectContext(povm)
        dense = UnitaryRep(group, rep.matrices)
        assert slot._labels is not None and rep.permutations is not None
        assert dense.permutations is None
        span = slot._span_stack
        oracle = np.einsum("aji,bgij->gab", span, dense.orbit(span[:, None])).real
        assert np.max(np.abs(_slot_gram(slot, rep) - oracle)) <= 1e-12
        assert np.max(np.abs(_slot_gram(slot, dense) - oracle)) <= 1e-12
    sys_rep = standard_system_rep(group, 2)
    framed = framed_subspace(frame, 2)
    _assert_same_span(fixed_subspace(framed, [frame.rep, sys_rep]),
                      fixed_subspace(framed, [UnitaryRep(group, frame.rep.matrices), sys_rep]))


def test_fixed_subspace_needs_one_rep_per_slot(s3):
    frame = canonical_frame(s3)
    with pytest.raises(ValueError, match="one rep per slot"):
        fixed_subspace(framed_subspace(frame, 2), [frame.rep])


def test_twirl_equivalence_in_invariant_context(s3, rng):
    # a state and its group average are indistinguishable by invariant effects
    rep = left_regular_rep(s3)
    ctx = invariant_subspace(rep)
    for _ in range(10):
        rho = random_density(rng, 6)
        assert _equivalent(ctx, rho, g_twirl_predual(rep, rho))
