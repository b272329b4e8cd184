"""The relativization map and the machinery built on it: relative-orientation
observables, restriction, conditioned relativization, preduals,
product-relative states, and the homogeneous-space extension.

For a principal frame R with effects E(g) and a system representation U_S,
the relativization channel sends a system operator A to

    yen(A) = sum_g E(g) (x) U_S(g) A U_S(g)^dag,

an invariant framed operator on the composite space.  Its predual maps
composite trace-class operators back to the system and is the workhorse for
relative states and frame changes.
"""

from __future__ import annotations

import numpy as np

from .operators import (
    DEFAULT_TOL,
    as_operator,
    contract_factor,
    is_density,
    kron,
    op_norm,
    permute_factors,
)
from .quantum import (
    CosetSampleSpace,
    Frame,
    GroupSpace,
    POVM,
    UnitaryRep,
    UnsupportedFrameError,
    born,
)


class PreconditionError(ValueError):
    """Raised when an operand fails a mathematical precondition, carrying the
    measured deviation."""

    def __init__(self, message: str, deviation: float):
        self.deviation = deviation
        super().__init__(f"{message} (deviation {deviation:.3e})")


def _layout(dims, slot: int) -> tuple:
    """(before, frame, after): the factor dims before ``slot``, at it and
    after it, each multiplied out."""
    dims = [int(d) for d in dims]
    return int(np.prod(dims[:slot])), dims[slot], int(np.prod(dims[slot + 1:]))


def _place(povm: POVM, blocks: np.ndarray, dims, slot: int) -> np.ndarray:
    """sum_x E(x) at factor ``slot`` of ``dims`` (x) blocks[x] on the other
    factors: the relativization kernel, given the relativized blocks.

    A labelled PVM puts blocks[labels[i]] on the diagonal block of frame
    index i; any other POVM takes the dense sum of Kronecker products.
    """
    b, f, a = _layout(dims, slot)
    if povm.labels is not None:
        out = np.zeros((b, f, a, b, f, a), dtype=complex)
        idx = np.arange(f)
        out[:, idx, :, :, idx, :] = blocks[povm.labels].reshape(f, b, a, b, a)
        return out.reshape(b * f * a, b * f * a)
    out = np.zeros((b * f * a, b * f * a), dtype=complex)
    for e, block in zip(povm.effects, blocks):
        out += kron(e, block)
    return permute_factors(out, (f, b, a), (1, 0, 2)) if b > 1 else out


def _extract(povm: POVM, omega: np.ndarray, dims, slot: int) -> np.ndarray:
    """The stack over outcomes x of Tr_slot[(E(x) at ``slot``) omega]: the
    predual kernel, before the dual group action.

    A labelled PVM sums the diagonal blocks of the frame indices labelled
    x, as one product of its 0/1 indicator rows with the stacked blocks;
    any other POVM contracts each effect against the frame factor.
    """
    b, f, a = _layout(dims, slot)
    if povm.labels is not None:
        idx = np.arange(f)
        diag = omega.reshape(b, f, a, b, f, a)[:, idx, :, :, idx, :].reshape(f, -1)
        return (povm.indicator @ diag).reshape(povm.size, b * a, b * a)
    return np.array([contract_factor(omega, dims, slot, e) for e in povm.effects])


class YenMap:
    """The relativization channel of a principal frame against a system rep:
    the one-frame case of ``MultiFrameScenario.yen_total``, with the frame
    at slot 0."""

    def __init__(self, frame: Frame, sys_rep: UnitaryRep) -> None:
        if not frame.principal:
            raise UnsupportedFrameError(
                "relativization needs a principal frame; use HomogeneousYenMap "
                "for frames on coset spaces"
            )
        if sys_rep.group != frame.group:
            raise ValueError("frame and system must represent the same group")
        self.frame = frame
        self.sys_rep = sys_rep
        self.dim_frame = frame.dim
        self.dim_sys = sys_rep.dim
        self.dim_total = frame.dim * sys_rep.dim

    def apply(self, a: np.ndarray) -> np.ndarray:
        """sum_g E(g) (x) g.A; unital, completely positive, invariant."""
        a = as_operator(a)
        if a.shape[0] != self.dim_sys:
            raise ValueError(f"operand dim {a.shape[0]} does not match system dim {self.dim_sys}")
        return _place(self.frame.povm, self.sys_rep.orbit(a), (self.dim_frame, self.dim_sys), 0)

    def predual(self, omega: np.ndarray) -> np.ndarray:
        """The unique map with tr[predual(W) A] = tr[W apply(A)].

        Closed form: sum_g U_S(g)^dag Tr_R[(E(g) (x) 1) W] U_S(g).
        """
        omega = as_operator(omega)
        if omega.shape[0] != self.dim_total:
            raise ValueError(
                f"operand dim {omega.shape[0]} does not match composite dim {self.dim_total}"
            )
        blocks = _extract(self.frame.povm, omega, (self.dim_frame, self.dim_sys), 0)
        return self.sys_rep.orbit(blocks, dual=True).sum(axis=0)

    def conditioned(self, omega: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Restriction of apply(a) by a frame state: sum_g mu_omega(g) g.A,
        which depends on omega only through its frame outcome distribution."""
        mu = born(self.frame.povm, omega)
        return np.tensordot(mu, self.sys_rep.orbit(as_operator(a)), axes=1)

    def matrix(self) -> np.ndarray:
        """The channel as a matrix on column-vectorized operators (oracle use)."""
        d_in = self.dim_sys
        cols = []
        for j in range(d_in * d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[j // d_in, j % d_in] = 1.0
            cols.append(self.apply(unit).reshape(-1))
        return np.stack(cols, axis=1)


def relative_orientation(frame1: Frame, frame2: Frame) -> POVM:
    """The observable of relative orientation of frame2 with respect to
    frame1: sample space G, effects sum_g E1(g) (x) g.E2(x)."""
    if frame1.group != frame2.group:
        raise ValueError("frames must share one group")
    if not (frame1.principal and frame2.principal):
        raise UnsupportedFrameError("relative orientation needs principal frames")
    labels1, labels2 = frame1.povm.labels, frame2.povm.labels
    perms2 = frame2.rep.permutations
    if labels1 is not None and labels2 is not None and perms2 is not None:
        # Every effect is diagonal: index (i, k) lies in E1(g) with g =
        # labels1[i], and in g.E2(x) when U2(g)^-1 = U2(g^-1) sends k to an
        # index labelled x.
        inverse = perms2[frame1.group.inverse[labels1]]
        return POVM._sharp(GroupSpace(frame1.group), labels2[inverse].reshape(-1))
    ym = YenMap(frame1, frame2.rep)
    effects = [ym.apply(e) for e in frame2.povm.effects]
    return POVM(GroupSpace(frame1.group), effects)


def restrict(omega: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The omega-restriction map: A_R (x) A_S -> tr[omega A_R] A_S, extended
    linearly; computed as Tr_R[(omega (x) 1) A]."""
    omega = as_operator(omega)
    a = as_operator(a)
    d_r = omega.shape[0]
    if a.shape[0] % d_r != 0:
        raise ValueError(
            f"composite dim {a.shape[0]} is not a multiple of the frame dim {d_r}"
        )
    d_s = a.shape[0] // d_r
    return contract_factor(a, (d_r, d_s), 0, omega)


def product_relative_state(frame: Frame, sys_rep: UnitaryRep, omega: np.ndarray,
                           rho: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """The system state smeared by the frame's orientation distribution:
    sum_g mu_omega(g) U(g)^dag rho U(g), equal to YenMap.predual(omega (x) rho)."""
    if not is_density(omega, tol):
        raise ValueError("omega must be a density operator")
    if not is_density(rho, tol):
        raise ValueError("rho must be a density operator")
    mu = born(frame.povm, omega)
    return np.tensordot(mu, sys_rep.orbit(rho, dual=True), axes=1)


# ---------------------------------------------------------------------------
# Homogeneous-space relativization
# ---------------------------------------------------------------------------

def subgroup_variance(rep: UnitaryRep, members, a: np.ndarray) -> float:
    """max over the listed elements of || h.A - A ||."""
    a = as_operator(a)
    return max(op_norm(rep.act_op(h, a) - a) for h in members)


class HomogeneousYenMap:
    """Relativization against a frame on a coset space G/H; accepts only
    H-invariant system operators, on which the coset-wise conjugation is
    independent of the representative choice."""

    def __init__(self, frame: Frame, sys_rep: UnitaryRep, tol: float = DEFAULT_TOL) -> None:
        if not isinstance(frame.povm.space, CosetSampleSpace):
            raise UnsupportedFrameError(
                "homogeneous relativization needs a frame on a coset space"
            )
        if sys_rep.group != frame.group:
            raise ValueError("frame and system must represent the same group")
        self.frame = frame
        self.sys_rep = sys_rep
        self.cosets = frame.povm.space.cosets
        self.tol = tol
        self.dim_total = frame.dim * sys_rep.dim

    def apply(self, a: np.ndarray) -> np.ndarray:
        """sum_{gH} E(gH) (x) gH.A of an H-invariant A; independent of the
        chosen coset representatives."""
        a = as_operator(a)
        dev = subgroup_variance(self.sys_rep, self.cosets.subgroup, a)
        if dev > self.tol:
            raise PreconditionError(
                "operand is not invariant under the isotropy subgroup", dev
            )
        blocks = self.sys_rep.orbit(a)[list(self.cosets.reps)]
        return _place(self.frame.povm, blocks, (self.frame.dim, self.sys_rep.dim), 0)


def relational_span_report(frame: Frame, sys_rep: UnitaryRep) -> dict:
    """Compare the span of relativized H-invariant operators with the
    framed-and-invariant operators, without asserting equality.

    For principal frames the relativized span is known to exhaust the framed
    invariant operators; on proper coset spaces both sides are computed and
    reported per instance.
    """
    from .opequiv import EffectContext, average_over, fixed_subspace, framed_subspace
    from .operators import HermitianBasis

    sys_basis = HermitianBasis(sys_rep.dim)
    if isinstance(frame.povm.space, CosetSampleSpace):
        members = list(frame.povm.space.cosets.subgroup)
        ym = HomogeneousYenMap(frame, sys_rep)
        h_inv = [average_over(sys_rep, members, b) for b in sys_basis.matrices]
        relativized = [ym.apply(b) for b in h_inv]
    else:
        ym = YenMap(frame, sys_rep)
        relativized = [ym.apply(b) for b in sys_basis.matrices]
    rel_ctx = EffectContext(relativized, dim=frame.dim * sys_rep.dim)
    target = fixed_subspace(framed_subspace(frame, sys_rep.dim), [frame.rep, sys_rep])
    contained = all(
        op_norm(row - target.project(row)) <= 1e-9 for row in rel_ctx.span_basis
    )
    return {
        "relativized_rank": rel_ctx.rank,
        "relational_rank": target.rank,
        "relativized_inside_relational": contained,
        "equal": contained and rel_ctx.rank == target.rank,
    }
