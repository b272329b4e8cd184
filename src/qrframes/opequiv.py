"""Operational equivalence: effect contexts, their spans in the real vector
space of Hermitian matrices, quotient projections, invariant subspaces, and
the G-twirl.

Two trace-class operators are operationally equivalent for a family O of
effects when every member of O assigns them equal traces, that is, when
their difference pairs to zero with every generator.  All span computations
happen in the real dim**2-dimensional coordinate space of Hermitian
matrices, which avoids spurious rank inflation from complex vectorization.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .operators import (
    DEFAULT_TOL,
    HermitianBasis,
    as_operator,
    is_hermitian,
)
from .quantum import POVM, Frame, UnitaryRep

RANK_CUTOFF = 1e-9          # relative singular-value cutoff for rank decisions
ORBIT_BATCH = 1 << 21       # complex entries per batched orbit in invariant_subspace


class _SpanViews:
    """What both context types derive from their ``slots``, one
    EffectContext per tensor factor (an EffectContext is its own single
    slot), and from ``rank`` and ``span_coords``: projection and pairing act
    slot by slot, and the dense views are built from the span."""

    @property
    def kernel_dim(self) -> int:
        return self.basis.size - self.rank

    @property
    def span_basis(self) -> list:
        """Orthonormal Hermitian matrices spanning span_R(O)."""
        return list(self._span_stack)

    @property
    def _span_stack(self) -> np.ndarray:
        return self.basis.from_coords(self.span_coords)

    @property
    def projector(self) -> np.ndarray:
        """Dense projection matrix on Hermitian coordinates (dim**2 square).

        Materializing this is quadratic in dim**2; prefer ``project`` for
        large spaces.
        """
        return self.span_coords.T @ self.span_coords

    def project(self, a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """HS-orthogonal projection of a Hermitian matrix onto the span: the
        canonical class representative, equal for two operators exactly when
        they are equivalent; each slot's projection acts on its factor."""
        a = as_operator(a)
        if not is_hermitian(a, tol):
            raise ValueError("projection is defined on Hermitian operators")
        dims = tuple(slot.dim for slot in self.slots)
        t = a.reshape(dims + dims)
        for k, slot in enumerate(self.slots):
            t = slot._project_slot(t, k, len(dims))
        out = t.reshape(self.dim, self.dim)
        return (out + out.conj().T) / 2

    def pairings(self, delta: np.ndarray) -> np.ndarray:
        """tr[delta f] for every generator f, in generator order,
        contracting delta against one slot's generators at a time."""
        t = _square(delta, self.dim)[None]
        for slot in self.slots:
            d = slot.dim
            r = t.shape[1] // d
            t = slot._pair_slot(t.reshape(-1, d, r, d, r)).reshape(-1, r, r)
        return t.reshape(-1)

    def class_deviation(self, a: np.ndarray, b: np.ndarray) -> float:
        """max over generators f of |tr[(a - b) f]|: how far a and b are from
        one class; 0.0 when there are no generators, as every pair is then
        equivalent."""
        delta = _square(a, self.dim) - _square(b, self.dim)
        return float(np.max(np.abs(self.pairings(delta)), initial=0.0))

    def report(self) -> dict:
        return {"rank": self.rank, "kernel_dim": self.kernel_dim,
                "generators": self._count}

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(dim={self.dim}, rank={self.rank}, "
                f"generators={self._count})")


class EffectContext(_SpanViews):
    """A finite family of Hermitian generators with its real span.

    Carries an orthonormal basis (in Hermitian coordinates) of span_R(O) and
    the induced Hilbert-Schmidt orthogonal projection onto that span.

    ``generators`` is a sequence of Hermitian matrices, whose span takes one
    SVD of their coordinates, or a structure that gives its span directly:

    - a POVM, whose effects are the generators.  A labelled PVM keeps its
      labels: the span is the normalised indicator diagonals of its label
      classes, so the rank is the number of classes; projection keeps each
      diagonal entry as the mean over its class and drops every off-diagonal
      entry, and the pairings tr[E(x) X] are class sums of X's diagonal;
    - a HermitianBasis, whose d**2 matrices span every Hermitian operator:
      projection is the identity and the pairings are index gathers.

    Only the dense views (``generators``, ``span_coords``, ``projector``)
    build matrices for these, on access.  The context is its own single
    slot, so ``project`` and ``pairings`` run the slot loop of a
    ProductContext once.
    """

    def __init__(self, generators: Union[Sequence[np.ndarray], POVM, HermitianBasis],
                 dim: Optional[int] = None, tol: float = DEFAULT_TOL) -> None:
        self._stack = self._labels = self._span = self._span_mats = None
        if isinstance(generators, POVM) and generators.labels is None:
            generators = generators.effects
        if isinstance(generators, (POVM, HermitianBasis)):
            self._init_structured(generators, dim)
            return
        gens = list(generators)
        if dim is None:
            if not gens:
                raise ValueError("empty generator list needs an explicit dim")
            dim = np.shape(gens[0])[0]
        self.dim = int(dim)
        stack = np.empty((len(gens), self.dim, self.dim), dtype=complex)
        for i, g in enumerate(gens):
            g = as_operator(g)
            if g.shape[0] != dim:
                raise ValueError(f"generator {i} has dim {g.shape[0]}, expected {dim}")
            if not is_hermitian(g, tol):
                raise ValueError(f"generator {i} is not Hermitian within {tol}")
            stack[i] = g
        stack.setflags(write=False)
        self._stack = stack
        self._count = len(stack)
        self.basis = HermitianBasis(self.dim)
        if gens:
            u, s, vh = np.linalg.svd(self.basis.to_coords(stack), full_matrices=False)
            if s.size and s[0] > 0:
                rank = int(np.sum(s > RANK_CUTOFF * s[0]))
            else:
                rank = 0
            self._span = vh[:rank]
        else:
            self._span = np.zeros((0, self.basis.size))
        # contexts are shared (MultiFrameScenario caches its framing
        # contexts), so every array they cache is read-only, as POVM effects are
        self._span.setflags(write=False)
        self.rank = self._span.shape[0]

    def _init_structured(self, source: Union[POVM, HermitianBasis],
                         dim: Optional[int]) -> None:
        if dim is not None and int(dim) != source.dim:
            raise ValueError(f"generators have dim {source.dim}, expected {dim}")
        self.dim = source.dim
        self.basis = HermitianBasis(self.dim)
        if isinstance(source, HermitianBasis):
            self._count = self.rank = source.size
            return
        self._labels = source.labels
        self._count = source.size
        self._diagonals = source.indicator
        # the row of each basis index's class among the classes that occur
        present, self._class_of = np.unique(source.labels, return_inverse=True)
        self._class_size = np.bincount(self._class_of)
        self.rank = present.size

    @property
    def generators(self) -> list:
        """The generators as matrices; a labelled or HermitianBasis context
        builds them on every access."""
        if self._stack is not None:
            return list(self._stack)
        if self._labels is not None:
            return [np.diag(row.astype(complex)) for row in self._diagonals]
        return self.basis.matrices

    @property
    def span_coords(self) -> np.ndarray:
        """Orthonormal span basis as rows of real coordinate vectors."""
        if self._span is None:
            if self._labels is None:
                span = np.eye(self.basis.size)
            else:
                # diagonal coordinates come first in HermitianBasis
                span = np.zeros((self.rank, self.basis.size))
                span[self._class_of, np.arange(self.dim)] = (
                    1.0 / np.sqrt(self._class_size[self._class_of]))
            span.setflags(write=False)
            self._span = span
        return self._span

    @property
    def slots(self) -> tuple:
        return (self,)

    def _project_slot(self, t: np.ndarray, k: int, m: int) -> np.ndarray:
        """Project factor k of an m-factor operator, given as its tensor t
        with axes dims + dims, onto this span."""
        if self.kernel_dim == 0:
            return t
        if self._labels is not None:
            # the diagonal at slot k, each entry the mean over its label class
            front = np.moveaxis(t, [k, m + k], [0, 1])
            idx = np.arange(self.dim)
            sums = (self._diagonals @ front[idx, idx].reshape(self.dim, -1))[self._labels]
            out = np.zeros_like(front)
            out[idx, idx] = (sums / self._class_size[self._class_of, None]).reshape(
                (self.dim,) + front.shape[2:])
            return np.moveaxis(out, [0, 1], [k, m + k])
        if self._span_mats is None:
            self._span_mats = self._span_stack
            self._span_mats.setflags(write=False)
        span = self._span_mats
        traces = np.tensordot(t, span, axes=([k, m + k], [2, 1]))
        return np.moveaxis(np.tensordot(traces, span, axes=1), [-2, -1], [k, m + k])

    def _pair_slot(self, t: np.ndarray) -> np.ndarray:
        """sum_{i,j} t[b, i, x, j, y] f[j, i] for every generator f: a stack
        of shape (B, d, r, d, r) to one of shape (B, count, r, r)."""
        if self._stack is not None:
            return np.tensordot(t, self._stack, axes=([1, 3], [2, 1])).transpose(0, 3, 1, 2)
        idx = np.arange(self.dim)
        diag = t[:, idx, :, idx]                    # (d, B, r, r)
        if self._labels is not None:
            out = (self._diagonals @ diag.reshape(self.dim, -1)).reshape(
                (self._count,) + diag.shape[1:])
        else:
            # tr[t B] is (t[c, r] + t[r, c]) / sqrt 2 for B = (E_rc + E_cr) / sqrt 2,
            # and i (t[c, r] - t[r, c]) / sqrt 2 for B = i (E_rc - E_cr) / sqrt 2
            rows, cols = self.basis._rows, self.basis._cols
            upper, lower = t[:, rows, :, cols], t[:, cols, :, rows]
            out = np.concatenate([diag, (lower + upper) / np.sqrt(2.0),
                                  1j * (lower - upper) / np.sqrt(2.0)])
        return out.transpose(1, 0, 2, 3)


class ProductContext(_SpanViews):
    """The product family O_1 (x) ... (x) O_m, kept as one EffectContext per
    tensor slot.

    The real span of the family is the tensor product of the slot spans, and
    tr[(A (x) B)(C (x) D)] = tr[AC] tr[BD], so projection and pairing act
    slot by slot and no product generator is formed.  Each slot acts on its
    factor in its own form: a labelled-PVM slot keeps diagonals and sums
    them by class, a HermitianBasis slot projects as the identity and pairs
    by index gathers, and a slot of explicit generators contracts against
    them.  The rank is the product of the slot ranks.  Generators run over
    the slots' generators with the first slot slowest.  The dense views
    (``generators``, ``span_coords``, ``projector``) are in
    HermitianBasis(dim) coordinates and are built only when asked for.
    """

    def __init__(self, slots: Sequence[EffectContext]) -> None:
        self.slots = tuple(slots)
        if not self.slots:
            raise ValueError("a product context needs at least one slot")
        self.dim = int(np.prod([slot.dim for slot in self.slots]))
        self.basis = HermitianBasis(self.dim)
        self._span: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        return int(np.prod([slot.rank for slot in self.slots]))

    @property
    def _count(self) -> int:
        return int(np.prod([slot._count for slot in self.slots]))

    @property
    def generators(self) -> list:
        """Every product generator as a dense matrix (built on each access)."""
        return list(_kron_stack([np.array(slot.generators) for slot in self.slots]))

    @property
    def span_coords(self) -> np.ndarray:
        """Orthonormal span basis as rows: the products of the slots' span
        bases."""
        if self._span is None:
            self._span = self.basis.to_coords(
                _kron_stack([slot._span_stack for slot in self.slots]))
            self._span.setflags(write=False)
        return self._span


Context = Union[EffectContext, ProductContext]


def _square(a: np.ndarray, dim: int) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != (dim, dim):
        raise ValueError(f"operand shape {a.shape} does not match the context dim {dim}")
    return a


def _kron_stack(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """kron(A_1, ..., A_m) for every choice of one matrix per stack, with the
    first stack's index slowest."""
    out = np.ones((1, 1, 1), dtype=complex)
    for stack in stacks:
        n, d = stack.shape[0], stack.shape[1]
        big = out.shape[1]
        out = np.einsum("aij,bkl->abikjl", out, stack).reshape(
            out.shape[0] * n, big * d, big * d)
    return out


# ---------------------------------------------------------------------------
# Group averaging
# ---------------------------------------------------------------------------

def average_over(rep: UnitaryRep, elements: Iterable[int], a: np.ndarray) -> np.ndarray:
    """Average of g.A over the listed elements (operator orientation)."""
    elements = np.asarray(list(elements), dtype=np.intp)
    weights = np.bincount(elements, minlength=rep.group.order) / len(elements)
    return np.tensordot(weights, rep.orbit(a), axes=1)


def g_twirl(rep: UnitaryRep, a: np.ndarray) -> np.ndarray:
    """The G-twirl (1/|G|) sum_g U(g) A U(g)^dag, projecting onto the
    invariant operators."""
    return rep.orbit(a).mean(axis=0)


def g_twirl_predual(rep: UnitaryRep, rho: np.ndarray) -> np.ndarray:
    """The dual average (1/|G|) sum_g U(g)^dag rho U(g) on states."""
    return rep.orbit(rho, dual=True).mean(axis=0)


def invariant_subspace(rep: UnitaryRep) -> EffectContext:
    """Context spanning the invariant Hermitian operators, i.e. the fixed
    space of the G-twirl, which is applied to the Hermitian basis in batches
    of at most ORBIT_BATCH orbit entries."""
    basis = HermitianBasis(rep.dim)
    mats = basis.from_coords(np.eye(basis.size))[:, None]
    step = max(1, ORBIT_BATCH // (rep.group.order * rep.dim ** 2))
    gens = np.concatenate([rep.orbit(mats[k:k + step]).mean(axis=1)
                           for k in range(0, basis.size, step)])
    return EffectContext(gens, dim=rep.dim)


def fixed_subspace(ctx: Context, reps: Sequence[UnitaryRep]) -> EffectContext:
    """The part of the span of ``ctx`` that every g fixes, for one rep per
    tensor slot (one for an EffectContext): ``intersect`` with the invariant
    operators of the product rep.  The twirl compressed onto the span,
    (1/|G|) sum_g (x)_k Gram_k(g) with Gram_k(g)[a, b] = tr[S_a g.S_b] over
    slot k's orthonormal span S, has the cos^2 of the principal angles as
    eigenvalues (Bjorck & Golub 1973), and its eigenvectors at >= 1 -
    DEFAULT_TOL span the overlap.  The span need not be G-stable, and no
    d**2-generator twirl is formed."""
    if len(reps) != len(ctx.slots) or any(r.dim != s.dim for r, s in zip(reps, ctx.slots)):
        raise ValueError("need one rep per slot, each of the slot's dim")
    grams = [_slot_gram(s, r) for s, r in zip(ctx.slots, reps)]
    w, v = np.linalg.eigh(sum(reduce(np.kron, at_g) for at_g in zip(*grams)) / len(grams[0]))
    fixed = v[:, w >= 1.0 - DEFAULT_TOL].T @ ctx.span_coords
    return EffectContext(ctx.basis.from_coords(fixed), dim=ctx.dim)


def _slot_gram(slot: EffectContext, rep: UnitaryRep) -> np.ndarray:
    """Gram(g)[a, b] = tr[S_a g.S_b] over the slot's orthonormal span S, for
    every g.

    For a labelled slot under a permutation rep, S_c is the normalised
    indicator of label class x_c and g.S_b that of p_g(x_b), so Gram(g)[a, b]
    = |x_a n p_g(x_b)| / sqrt(|x_a| |x_b|), an index count; any other slot
    takes the orbit of its span."""
    if slot._labels is not None and rep.permutations is not None:
        n, k, cls = rep.group.order, slot.rank, slot._class_of
        pairs = (np.arange(n)[:, None] * k + cls[rep.permutations]) * k + cls
        counts = np.bincount(pairs.reshape(-1), minlength=n * k * k).reshape(n, k, k)
        return counts / np.sqrt(np.outer(slot._class_size, slot._class_size))
    span = slot._span_stack
    return np.einsum("aji,bgij->gab", span, rep.orbit(span[:, None])).real


def framed_subspace(frame: Frame, system_dim: int) -> ProductContext:
    """Context of framed operators: the real span of E_R(x) (x) B_k over
    sample points and a Hermitian basis of the system factor."""
    return ProductContext([EffectContext(frame.povm),
                           EffectContext(HermitianBasis(system_dim))])


def span_residual(ctx_from: Context, ctx_to: Context) -> float:
    """Largest distance of a span basis vector of ``ctx_from`` from the span
    of ``ctx_to`` (zero when the first span is contained in the second)."""
    if ctx_from.rank == 0:
        return 0.0
    rows = ctx_from.span_coords
    v = ctx_to.span_coords
    residual = rows - (rows @ v.T) @ v
    return float(np.max(np.linalg.norm(residual, axis=1)))


def intersect(ctx1: Context, ctx2: Context,
              tol: float = DEFAULT_TOL) -> EffectContext:
    """Subspace intersection of two contexts on the same space.

    Principal angles (Bjorck & Golub 1973): the singular values of V1 V2^T
    are the cosines between the two spans, and the left singular vectors with
    cosine >= 1 - tol, mapped back through V1, span the overlap.
    """
    if ctx1.dim != ctx2.dim:
        raise ValueError("contexts live on different dimensions")
    if ctx1.rank == 0 or ctx2.rank == 0:
        return EffectContext([], dim=ctx1.dim)
    v1 = ctx1.span_coords
    u, s, _ = np.linalg.svd(v1 @ ctx2.span_coords.T, full_matrices=False)
    keep = s >= 1.0 - tol
    return EffectContext(ctx1.basis.from_coords(u[:, keep].T @ v1), dim=ctx1.dim)
