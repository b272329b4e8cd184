"""Unitary representations, POVMs, covariance, and quantum reference frames.

Conventions: a group element acts on operators as g.A = U(g) A U(g)^dag and
on states as g.rho = U(g)^dag rho U(g), so that tr[(g.rho) A] = tr[rho (g.A)].
Sample spaces of frame observables carry the left-multiplication action (on
the group itself) or the left coset action (on G/H).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .groups import CosetSpace, FiniteGroup, Subgroup
from .operators import (
    DEFAULT_TOL,
    as_operator,
    dagger,
    is_effect,
    is_hermitian,
    op_norm,
    pair_trace,
    worst_case,
)


class CovarianceError(ValueError):
    """Raised when a POVM fails the covariance identity required of a frame."""


class UnsupportedFrameError(ValueError):
    """Raised when an operation needs a frame property (principal,
    localizable, ideal) that the given frame lacks."""


class ResolutionOfIdentityError(ValueError):
    """Raised when a coherent-state family fails to resolve the identity."""

    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(
            f"resolution-of-identity failure: frame operator deviates from a "
            f"scalar by {deviation:.3e} in operator norm"
        )


class UnitaryRep:
    """A unitary representation g -> U(g) of a finite group.

    Validates U(e) = I, unitarity of each U(g) and the homomorphism property
    U(g)U(h) = U(gh), all within ``tol``.
    """

    def __init__(
        self,
        group: FiniteGroup,
        matrices: Sequence[np.ndarray],
        kind: str = "custom",
        tol: float = DEFAULT_TOL,
    ) -> None:
        mats = np.asarray([as_operator(m) for m in matrices], dtype=complex)
        if mats.shape[0] != group.order:
            raise ValueError(f"need {group.order} matrices, got {mats.shape[0]}")
        eye = np.eye(mats.shape[1])
        if np.max(np.abs(mats[group.identity] - eye)) > tol:
            raise ValueError("U(e) is not the identity")
        for g in group.elements():
            if np.max(np.abs(mats[g] @ dagger(mats[g]) - eye)) > tol:
                raise ValueError(f"U({g}) is not unitary")
        for g in group.elements():
            for h in group.elements():
                gh = group.cayley[g, h]
                if np.max(np.abs(mats[g] @ mats[h] - mats[gh])) > tol:
                    raise ValueError(f"homomorphism fails at pair ({g}, {h})")
        self._init(group, mats, kind)

    @classmethod
    def _trusted(cls, group: FiniteGroup, mats: np.ndarray,
                 kind: str = "custom") -> "UnitaryRep":
        """The rep of an (order, dim, dim) complex stack the library built
        itself as a representation, so without re-validation."""
        rep = cls.__new__(cls)
        rep._init(group, mats, kind)
        return rep

    def _init(self, group: FiniteGroup, mats: np.ndarray, kind: str) -> None:
        mats.setflags(write=False)
        self.group = group
        self.dim = mats.shape[1]
        self.matrices = mats
        self.kind = kind
        self.permutations: Optional[np.ndarray] = None

    @classmethod
    def from_permutations(cls, group: FiniteGroup, permutations,
                          kind: str = "custom") -> "UnitaryRep":
        """The permutation representation U(g)|i> = |permutations[g][i]>.

        The rep keeps ``permutations`` (read-only, one row per element), and
        its group action becomes an index gather instead of two products.
        """
        perms = np.array(permutations, dtype=np.intp)
        n = group.order
        if perms.ndim != 2 or perms.shape[0] != n:
            raise ValueError(f"need {n} permutations, got array of shape {perms.shape}")
        dim = perms.shape[1]
        if not np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(dim), perms.shape)):
            raise ValueError("every row must be a permutation of range(dim)")
        # U(g)U(h) = U(gh): composed[g, h] = permutations[g][permutations[h]]
        composed = perms[np.arange(n)[:, None, None], perms[None, :, :]]
        if not np.array_equal(composed, perms[group.cayley]):
            raise ValueError("permutations do not compose as the group does")
        mats = np.zeros((n, dim, dim), dtype=complex)
        mats[np.arange(n)[:, None], perms, np.arange(dim)] = 1.0
        rep = cls._trusted(group, mats, kind)
        perms.setflags(write=False)
        rep.permutations = perms
        return rep

    def mat(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def act_op(self, g: int, a: np.ndarray) -> np.ndarray:
        """g.A = U(g) A U(g)^dag."""
        return self._act(g, a, dual=False)

    def act_state(self, g: int, rho: np.ndarray) -> np.ndarray:
        """g.rho = U(g)^dag rho U(g), the dual action on states."""
        return self._act(g, rho, dual=True)

    def _act(self, g: int, a: np.ndarray, dual: bool) -> np.ndarray:
        """One element's action, with the index rule of ``orbit``."""
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise ValueError(f"operand shape {a.shape} does not match rep dim {self.dim}")
        if self.permutations is not None:
            # (U A U^dag)[p(i), p(j)] = A[i, j] with p = permutations[g], so
            # g.A gathers through p^-1 = permutations[g^-1] and g.rho through p
            q = self.permutations[g if dual else self.group.inverse[g]]
            return a[q[:, None], q]
        u = self.matrices[g]
        return dagger(u) @ a @ u if dual else u @ a @ dagger(u)

    def orbit(self, ops: np.ndarray, dual: bool = False) -> np.ndarray:
        """The stack of g.A_g over all elements g, or of g.rho_g with ``dual``.

        The library's sums and comparisons over group elements sweep the
        group through it.  ``ops`` is a stack indexed by element, or one
        operator A, which gives its orbit g.A (entry g is ``act_op(g, A)``).
        Weighted orbit sums sum_g w(g) g.A are
        ``np.tensordot(w, rep.orbit(a), axes=1)``.  Leading batch axes give
        one orbit per batch entry: ``ops`` of shape (..., n, d, d) is a batch
        of stacks, and of shape (..., 1, d, d) a batch of single operators.
        The result holds n matrices per entry, so a caller that sweeps many
        operators takes one orbit at a time.
        """
        ops = np.asarray(ops, dtype=complex)
        n = self.group.order
        square = ops.shape[-2:] == (self.dim, self.dim)
        if not square or (ops.ndim == 3 and ops.shape[0] != n) or (
                ops.ndim > 3 and ops.shape[-3] not in (1, n)):
            raise ValueError(f"operand shape {ops.shape} is neither one operator nor "
                             f"{n} operators of rep dim {self.dim}")
        if self.permutations is not None:
            idx = self.permutations if dual else self.permutations[self.group.inverse]
            rows, cols = idx[:, :, None], idx[:, None, :]
            if ops.ndim == 2 or ops.shape[-3] == 1:
                return ops.reshape(ops.shape[:-3] + ops.shape[-2:])[..., rows, cols]
            element = np.arange(n)[:, None, None]
            # numpy gathers a single stack faster without an Ellipsis index
            return ops[element, rows, cols] if ops.ndim == 3 else ops[..., element, rows, cols]
        u = self.matrices
        u_dag = np.conj(u).transpose(0, 2, 1)
        left, right = (u_dag, u) if dual else (u, u_dag)
        if ops.ndim == 2:
            # one operator: the first product is a single (n d, d) @ (d, d) gemm
            d = self.dim
            return (left.reshape(n * d, d) @ ops).reshape(n, d, d) @ right
        return left @ ops @ right

    def tensor(self, other: "UnitaryRep") -> "UnitaryRep":
        """Pointwise tensor product representation on the same group; the
        product of two permutation reps is a permutation rep."""
        if other.group != self.group:
            raise ValueError("tensor factors must represent the same group")
        if self.permutations is not None and other.permutations is not None:
            # |i, k> = |i * d2 + k> goes to |p1(i) * d2 + p2(k)>.
            perms = (self.permutations[:, :, None] * other.dim
                     + other.permutations[:, None, :]).reshape(self.group.order, -1)
            return UnitaryRep.from_permutations(self.group, perms)
        mats = np.array([np.kron(self.matrices[g], other.matrices[g])
                         for g in self.group.elements()])
        return UnitaryRep._trusted(self.group, mats)

    def __repr__(self) -> str:
        return f"UnitaryRep({self.group.name}, dim={self.dim}, kind={self.kind})"


def left_regular_rep(group: FiniteGroup) -> UnitaryRep:
    """Permutation matrices U(g)|h> = |gh> on C^|G|."""
    return UnitaryRep.from_permutations(group, group.cayley, kind="left_regular")


def left_right_rep(group: FiniteGroup) -> UnitaryRep:
    """Permutation matrices U(g)|h> = |h g^-1> on C^|G|."""
    return UnitaryRep.from_permutations(group, group.cayley[:, group.inverse].T,
                                        kind="left_right")


def trivial_rep(group: FiniteGroup, dim: int = 1) -> UnitaryRep:
    """U(g) = I on C^dim, as the permutation rep of identity permutations,
    so that an ancilla ``rep.tensor(trivial_rep(group, k))`` keeps the
    permutations of ``rep``."""
    return UnitaryRep.from_permutations(group, np.tile(np.arange(dim), (group.order, 1)))


# ---------------------------------------------------------------------------
# Sample spaces and POVMs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupSpace:
    """Sample space = the group itself, with left multiplication."""
    group: FiniteGroup

    @property
    def size(self) -> int:
        return self.group.order

    def act(self, g: int, x: int) -> int:
        return int(self.group.cayley[g, x])


@dataclass(frozen=True)
class CosetSampleSpace:
    """Sample space = left cosets G/H with the coset action."""
    cosets: CosetSpace

    @property
    def group(self) -> FiniteGroup:
        return self.cosets.parent

    @property
    def size(self) -> int:
        return self.cosets.n_cosets

    def act(self, g: int, x: int) -> int:
        return self.cosets.act(g, x)


class POVM:
    """A POVM on a finite sample space: one effect per point, summing to I.

    A general POVM keeps its effects as read-only views into one array it
    owns.  A sharp PVM that is diagonal in the computational basis keeps
    only ``labels``: E(x) is the projector onto the basis indices i with
    labels[i] == x, and no effect is stored.  Outcome statistics,
    relativization and restriction then read diagonals and move blocks
    instead of multiplying effects; ``labels`` is None for every other
    POVM.  On both kinds ``effects`` and ``effect(x)`` return read-only
    arrays.
    """

    def __init__(self, space, effects: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> None:
        effects = [as_operator(e) for e in effects]
        if len(effects) != space.size:
            raise ValueError(f"need {space.size} effects, got {len(effects)}")
        dim = effects[0].shape[0]
        for i, e in enumerate(effects):
            if e.shape[0] != dim:
                raise ValueError("all effects must share one dimension")
            if not is_effect(e, tol):
                raise ValueError(f"entry {i} is not an effect (0 <= E <= 1)")
        stack = np.array(effects)          # the POVM's own copy
        if np.max(np.abs(stack.sum(axis=0) - np.eye(dim))) > tol:
            raise ValueError("effects do not sum to the identity")
        stack.setflags(write=False)
        self.space = space
        self._effects = tuple(stack)
        self.labels = None
        self.dim = dim

    @classmethod
    def _sharp(cls, space, labels: np.ndarray) -> "POVM":
        """The diagonal PVM of ``labels``, from data the library built
        itself, so without re-validation."""
        labels = np.array(labels, dtype=np.intp)
        labels.setflags(write=False)
        povm = cls.__new__(cls)
        povm.space = space
        povm._effects = None
        povm.labels = labels
        povm.dim = labels.shape[0]
        return povm

    @property
    def size(self) -> int:
        return self.space.size

    @cached_property
    def indicator(self) -> Optional[np.ndarray]:
        """The (size, dim) 0/1 matrix of a labelled PVM whose row x is the
        diagonal of E(x), so tr[E(x) X] is row x . diag(X) and one product
        sums every label class; None for any other POVM.  Built on first
        read and kept, read-only."""
        if self.labels is None:
            return None
        rows = (np.arange(self.size)[:, None] == self.labels).astype(float)
        rows.setflags(write=False)
        return rows

    @property
    def effects(self) -> tuple:
        """The tuple (E(0), ..., E(size - 1)) of read-only arrays.

        A labelled PVM builds all size * dim**2 entries on every access and
        keeps none of them; read ``labels``, or ``effect(x)`` for one
        outcome, where that suffices.
        """
        if self._effects is not None:
            return self._effects
        return tuple(self.effect(x) for x in range(self.size))

    def effect(self, x: int) -> np.ndarray:
        """E(x), read-only; a labelled PVM builds it on every call."""
        if not 0 <= x < self.size:
            raise ValueError(f"sample point {x} is outside range({self.size})")
        if self._effects is not None:
            return self._effects[x]
        projector = np.diag((self.labels == x).astype(complex))
        projector.setflags(write=False)
        return projector.view()

    def act(self, g: int, x: int) -> int:
        return self.space.act(g, x)

    def _pairings(self, rho: np.ndarray) -> np.ndarray:
        """Re tr[rho E(x)] for every outcome x, without validating rho."""
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"operand shape {rho.shape} does not match POVM dim {self.dim}")
        if self.labels is not None:
            return np.bincount(self.labels, weights=np.diagonal(rho).real,
                               minlength=self.size)
        return np.array([pair_trace(rho, e).real for e in self.effects])

    def __repr__(self) -> str:
        return f"POVM({self.size} outcomes, dim={self.dim})"


def canonical_pvm(rep: UnitaryRep) -> POVM:
    """The sharp covariant PVM matched to one of the built-in regular reps.

    For the left-regular representation this is P(g) = |g><g|; for the
    left-right representation it is P(g) = |g^-1><g^-1|.
    """
    group = rep.group
    if rep.kind == "left_regular":
        labels = np.arange(group.order)
    elif rep.kind == "left_right":
        labels = group.inverse          # basis index g^-1 is the point g
    else:
        raise ValueError("canonical_pvm requires a left_regular or left_right rep")
    return POVM._sharp(GroupSpace(group), labels)


def uniform_povm(rep: UnitaryRep) -> POVM:
    """The trivially covariant POVM E(g) = I / |G| on the group."""
    n = rep.group.order
    return POVM(GroupSpace(rep.group), [np.eye(rep.dim, dtype=complex) / n] * n)


def coherent_state_povm(rep: UnitaryRep, seed_vector: np.ndarray,
                        tol: float = DEFAULT_TOL) -> POVM:
    """Covariant POVM from the orbit of a seed vector.

    With phi(g) = U(g) phi, the frame operator S = sum_g |phi(g)><phi(g)| must
    be a scalar multiple lam * I of the identity; the effects are then
    |phi(g)><phi(g)| / lam.
    """
    phi = np.asarray(seed_vector, dtype=complex).reshape(-1)
    if phi.shape[0] != rep.dim:
        raise ValueError(f"seed vector length {phi.shape[0]} does not match rep dim {rep.dim}")
    # |phi(g)><phi(g)| = g.|phi><phi|
    orbit = rep.orbit(np.outer(phi, np.conj(phi)))
    frame_op = orbit.sum(axis=0)
    lam = np.trace(frame_op).real / rep.dim
    deviation = op_norm(frame_op - lam * np.eye(rep.dim))
    if deviation > tol:
        raise ResolutionOfIdentityError(deviation)
    return POVM(GroupSpace(rep.group), orbit / lam)


def coset_permutation_rep(cosets: CosetSpace) -> UnitaryRep:
    """Permutation representation of G on the coset space, U(g)|c> = |g.c>."""
    return UnitaryRep.from_permutations(cosets.parent, cosets.action)


def canonical_coset_pvm(cosets: CosetSpace) -> POVM:
    """The sharp covariant PVM P(c) = |c><c| on the coset permutation space."""
    return POVM._sharp(CosetSampleSpace(cosets), np.arange(cosets.n_cosets))


# ---------------------------------------------------------------------------
# Covariance and frame classification
# ---------------------------------------------------------------------------

def covariance_deviations(povm: POVM, rep: UnitaryRep, action=None):
    """Yield || U(g) E(x) U(g)^dag - E(g.x) || for every pair (g, x).

    Outcome by outcome: one ``rep.orbit`` of E(x) gives U(g) E(x) U(g)^dag
    for every g, so at most |G| matrices of the rep's size are held at once.
    """
    if rep.dim != povm.dim:
        raise ValueError("representation and POVM dimensions differ")
    act = action if action is not None else povm.act
    for x in range(povm.size):
        for g, moved in enumerate(rep.orbit(povm.effect(x))):
            yield op_norm(moved - povm.effect(act(g, x))), {"g": g, "x": x}


def covariance_deviation(povm: POVM, rep: UnitaryRep, action=None) -> float:
    """max over (g, x) of || U(g) E(x) U(g)^dag - E(g.x) ||."""
    return worst_case(covariance_deviations(povm, rep, action))[0]


@dataclass(frozen=True)
class Frame:
    """A quantum reference frame: a representation with a covariant POVM,
    together with its computed classification flags."""

    rep: UnitaryRep
    povm: POVM
    principal: bool
    sharp: bool
    ideal: bool
    localizable: bool
    complete: bool
    isotropy: Subgroup

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group

    @property
    def dim(self) -> int:
        return self.rep.dim

    def __repr__(self) -> str:
        flags = [name for name in ("principal", "sharp", "ideal", "localizable", "complete")
                 if getattr(self, name)]
        return f"Frame({self.group.name}, dim={self.dim}, {'/'.join(flags) or 'plain'})"


def classify_frame(rep: UnitaryRep, povm: POVM, tol: float = DEFAULT_TOL) -> Frame:
    """Check covariance and compute the frame classification flags.

    localizable uses the norm-1 property on singletons only: for positive
    effects E(X) >= E({x}) forces ||E(X)|| >= max_x ||E({x})|| while
    ||E(X)|| <= 1 always, so singleton norms in {0, 1} decide every subset.

    A labelled PVM under a permutation representation is decided on the
    labels: U(g) E(x) U(g)^dag is the projector onto the indices p_g(i) with
    labels[i] == x, so covariance is labels[p_g(i)] == g.labels[i] for all g
    and i, and h is in the isotropy group iff labels[p_h(i)] == labels[i].
    Such a PVM is sharp and localizable by construction.
    """
    group = rep.group
    principal = isinstance(povm.space, GroupSpace)
    if povm.labels is not None and rep.permutations is not None and rep.dim == povm.dim:
        moved = povm.labels[rep.permutations]
        acted = np.array([[povm.act(g, x) for x in range(povm.size)]
                          for g in group.elements()])
        if not np.array_equal(moved, acted[:, povm.labels]):
            dev = covariance_deviation(povm, rep)
            raise CovarianceError(f"POVM is not covariant (deviation {dev:.3e})")
        sharp = localizable = True
        iso_members = np.flatnonzero(np.all(moved == povm.labels, axis=1))
    else:
        dev = covariance_deviation(povm, rep)
        if dev > tol:
            raise CovarianceError(f"POVM is not covariant (deviation {dev:.3e})")
        effects = povm.effects
        sharp = all(op_norm(e @ e - e) <= tol for e in effects)
        norms = [op_norm(e) for e in effects]
        localizable = all(nm <= tol or abs(nm - 1.0) <= tol for nm in norms)
        fixed = [np.linalg.norm(rep.orbit(e) - e, 2, axis=(1, 2)) <= tol for e in effects]
        iso_members = np.flatnonzero(np.all(fixed, axis=0))
    isotropy = Subgroup(group, iso_members)
    return Frame(
        rep=rep,
        povm=povm,
        principal=principal,
        sharp=sharp,
        ideal=principal and sharp,
        localizable=localizable,
        complete=isotropy.is_trivial,
        isotropy=isotropy,
    )


def canonical_frame(group: FiniteGroup, kind: str = "left_regular") -> Frame:
    """The ideal frame built from a regular representation of the group."""
    rep = left_regular_rep(group) if kind == "left_regular" else left_right_rep(group)
    return classify_frame(rep, canonical_pvm(rep))


def localizing_state(frame: Frame, x: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The pure state xi with <xi|E(x)|xi> = 1, exact in finite dimension.

    Requires a localizable frame.  For a labelled PVM the state is |i><i|
    for the first basis index i labelled x; otherwise it is the top
    eigenvector of E(x).
    """
    if not frame.localizable:
        raise UnsupportedFrameError("localizing states require a localizable frame")
    if not 0 <= x < frame.povm.size:
        raise ValueError(f"sample point {x} is outside range({frame.povm.size})")
    labels = frame.povm.labels
    if labels is not None:
        # E(x) projects onto the indices labelled x: norm 1, or 0 if there are none
        hits = np.flatnonzero(labels == x)
        top = float(hits.size > 0)
        v = np.zeros(frame.dim, dtype=complex)
        v[hits[:1]] = 1.0
    else:
        e = frame.povm.effect(x)
        vals, vecs = np.linalg.eigh((e + dagger(e)) / 2)
        top, v = vals[-1], vecs[:, -1]
    if abs(top - 1.0) > tol:
        raise UnsupportedFrameError(
            f"effect at sample point {x} has norm {top:.6f}; cannot localize there"
        )
    return np.outer(v, np.conj(v))


def born(povm: POVM, rho: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Outcome distribution mu(x) = tr[rho E(x)] of a POVM in a state."""
    rho = as_operator(rho)
    if rho.shape[0] != povm.dim:
        raise ValueError(f"state dim {rho.shape[0]} does not match POVM dim {povm.dim}")
    if abs(np.trace(rho) - 1) > tol or not is_hermitian(rho, tol):
        raise ValueError("born requires a density operator (unit trace, Hermitian)")
    return povm._pairings(rho)
