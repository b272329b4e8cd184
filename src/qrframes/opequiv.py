"""Operational equivalence: effect contexts, span and kernel computations in
the real vector space of Hermitian matrices, quotient projections, invariant
subspaces, and the G-twirl.

Two trace-class operators are operationally equivalent for a family O of
effects when every member of O assigns them equal traces.  All span and
kernel computations happen in the real dim**2-dimensional coordinate space of
Hermitian matrices, which avoids spurious rank inflation from complex
vectorization.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .operators import (
    DEFAULT_TOL,
    HermitianBasis,
    as_operator,
    is_hermitian,
    kron,
    pair_trace,
)
from .quantum import Frame, UnitaryRep

RANK_CUTOFF = 1e-9          # relative singular-value cutoff for rank decisions
DENSE_PROJECTOR_LIMIT = 2500  # largest Hermitian-space dim for dense projectors


class EffectContext:
    """A finite family of Hermitian generators with its real span.

    Carries an orthonormal basis (in Hermitian coordinates) of span_R(O) and
    the induced Hilbert-Schmidt orthogonal projection onto that span.
    """

    def __init__(self, generators: Sequence[np.ndarray], dim: Optional[int] = None,
                 tol: float = DEFAULT_TOL) -> None:
        gens = [as_operator(g) for g in generators]
        if dim is None:
            if not gens:
                raise ValueError("empty generator list needs an explicit dim")
            dim = gens[0].shape[0]
        for i, g in enumerate(gens):
            if g.shape[0] != dim:
                raise ValueError(f"generator {i} has dim {g.shape[0]}, expected {dim}")
            if not is_hermitian(g, tol):
                raise ValueError(f"generator {i} is not Hermitian within {tol}")
        self.dim = int(dim)
        self.generators = gens
        self.basis = HermitianBasis(self.dim)
        if gens:
            mat = np.stack([self.basis.to_coords(g) for g in gens])
            u, s, vh = np.linalg.svd(mat, full_matrices=False)
            if s.size and s[0] > 0:
                rank = int(np.sum(s > RANK_CUTOFF * s[0]))
            else:
                rank = 0
            self._span = vh[:rank]
        else:
            self._span = np.zeros((0, self.basis.size))
        self._kernel: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        return self._span.shape[0]

    @property
    def kernel_dim(self) -> int:
        return self.basis.size - self.rank

    @property
    def span_basis(self) -> list:
        """Orthonormal Hermitian matrices spanning span_R(O)."""
        return [self.basis.from_coords(row) for row in self._span]

    @property
    def span_coords(self) -> np.ndarray:
        """Orthonormal span basis as rows of real coordinate vectors."""
        return self._span

    @property
    def projector(self) -> np.ndarray:
        """Dense projection matrix on Hermitian coordinates (dim**2 square).

        Materializing this is quadratic in dim**2; prefer ``project`` for
        large spaces.
        """
        return self._span.T @ self._span

    def project(self, a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """HS-orthogonal projection of a Hermitian matrix onto the span."""
        a = as_operator(a)
        if not is_hermitian(a, tol):
            raise ValueError("projection is defined on Hermitian operators")
        v = self.basis.to_coords(a)
        return self.basis.from_coords(self._span.T @ (self._span @ v))

    def project_coords(self, v: np.ndarray) -> np.ndarray:
        return self._span.T @ (self._span @ v)

    def kernel_coords(self) -> np.ndarray:
        """Orthonormal basis (rows) of the kernel, i.e. the operators no
        generator can see."""
        if self._kernel is None:
            if self.rank == 0:
                self._kernel = np.eye(self.basis.size)
            else:
                # complete the span rows to a full orthonormal set
                u, s, vh = np.linalg.svd(self._span, full_matrices=True)
                self._kernel = vh[self.rank:]
        return self._kernel

    def kernel_basis(self) -> list:
        return [self.basis.from_coords(row) for row in self.kernel_coords()]

    def report(self) -> dict:
        return {"rank": self.rank, "kernel_dim": self.kernel_dim,
                "generators": len(self.generators)}

    def __repr__(self) -> str:
        return f"EffectContext(dim={self.dim}, rank={self.rank}, generators={len(self.generators)})"


def equivalent(ctx: EffectContext, a: np.ndarray, b: np.ndarray,
               tol: float = DEFAULT_TOL) -> bool:
    """True iff every generator assigns a and b equal traces within tol."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape or a.shape[0] != ctx.dim:
        raise ValueError("operands must match the context dimension")
    delta = a - b
    return all(abs(pair_trace(delta, f)) <= tol for f in ctx.generators)


def canonical_repr(ctx: EffectContext, a: np.ndarray) -> np.ndarray:
    """The canonical class representative: HS projection onto the span.

    Two Hermitian operators are context-equivalent exactly when their
    canonical representatives coincide.
    """
    return ctx.project(a)


class OperationalState:
    """A Hermitian representative considered up to its context's equivalence."""

    def __init__(self, representative: np.ndarray, context: EffectContext) -> None:
        rep = as_operator(representative)
        if rep.shape[0] != context.dim:
            raise ValueError("representative does not match the context dimension")
        self.representative = rep
        self.context = context
        self._canonical: Optional[np.ndarray] = None

    @property
    def canonical(self) -> np.ndarray:
        if self._canonical is None:
            self._canonical = self.context.project(self.representative)
        return self._canonical

    def same_class(self, other, tol: float = DEFAULT_TOL) -> bool:
        if isinstance(other, OperationalState):
            other = other.representative
        return equivalent(self.context, self.representative, other, tol)

    def __repr__(self) -> str:
        return f"OperationalState(dim={self.context.dim}, rank={self.context.rank})"


# ---------------------------------------------------------------------------
# Group averaging
# ---------------------------------------------------------------------------

def average_over(rep: UnitaryRep, elements: Iterable[int], a: np.ndarray) -> np.ndarray:
    """Average of g.A over the listed elements (operator orientation)."""
    elements = list(elements)
    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for g in elements:
        total += rep.act_op(g, a)
    return total / len(elements)


def g_twirl(rep: UnitaryRep, a: np.ndarray) -> np.ndarray:
    """The G-twirl (1/|G|) sum_g U(g) A U(g)^dag, projecting onto the
    invariant operators."""
    return average_over(rep, rep.group.elements(), a)


def g_twirl_predual(rep: UnitaryRep, rho: np.ndarray) -> np.ndarray:
    """The dual average (1/|G|) sum_g U(g)^dag rho U(g) on states."""
    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for g in rep.group.elements():
        total += rep.act_state(g, rho)
    return total / rep.group.order


def invariant_subspace(rep: UnitaryRep) -> EffectContext:
    """Context spanning the invariant Hermitian operators, i.e. the fixed
    space of the G-twirl."""
    basis = HermitianBasis(rep.dim)
    gens = [g_twirl(rep, b) for b in basis.matrices]
    return EffectContext(gens, dim=rep.dim)


def framed_subspace(frame: Frame, system_dim: int) -> EffectContext:
    """Context of framed operators: the real span of E_R(x) (x) B_k over
    sample points and a Hermitian basis of the system factor."""
    sys_basis = HermitianBasis(system_dim)
    gens = []
    for x in range(frame.povm.size):
        e = frame.povm.effect(x)
        for b in sys_basis.matrices:
            gens.append(kron(e, b))
    return EffectContext(gens, dim=frame.dim * system_dim)


def span_residual(ctx_from: EffectContext, ctx_to: EffectContext) -> float:
    """Largest distance of a span basis vector of ``ctx_from`` from the span
    of ``ctx_to`` (zero when the first span is contained in the second)."""
    if ctx_from.rank == 0:
        return 0.0
    rows = ctx_from.span_coords
    v = ctx_to.span_coords
    residual = rows - (rows @ v.T) @ v
    return float(np.max(np.linalg.norm(residual, axis=1)))


def intersect(ctx1: EffectContext, ctx2: EffectContext,
              tol: float = DEFAULT_TOL) -> EffectContext:
    """Subspace intersection of two contexts on the same space.

    Uses the nullspace of (I - P1) + (I - P2) on Hermitian coordinates; for
    spaces too large to hold dense projectors, falls back to the principal
    angle method (SVD of V1 V2^T).
    """
    if ctx1.dim != ctx2.dim:
        raise ValueError("contexts live on different dimensions")
    n = ctx1.basis.size
    if ctx1.rank == 0 or ctx2.rank == 0:
        return EffectContext([], dim=ctx1.dim)
    if n <= DENSE_PROJECTOR_LIMIT:
        m = 2.0 * np.eye(n) - ctx1.projector - ctx2.projector
        vals, vecs = np.linalg.eigh(m)
        cols = vecs[:, vals <= tol]
        gens = [ctx1.basis.from_coords(cols[:, k]) for k in range(cols.shape[1])]
        return EffectContext(gens, dim=ctx1.dim)
    # principal angles: singular values of V1 V2^T equal to 1 mark the overlap
    v1 = ctx1.span_coords
    v2 = ctx2.span_coords
    u, s, vh = np.linalg.svd(v1 @ v2.T)
    keep = s >= 1.0 - tol
    inter = u[:, keep].T @ v1
    gens = [ctx1.basis.from_coords(row) for row in inter]
    return EffectContext(gens, dim=ctx1.dim)
