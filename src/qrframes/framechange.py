"""Frame-change maps between internal relative descriptions.

A multi-frame scenario fixes a total space H_1 (x) ... (x) H_N (x) H_S with a
diagonal group action and one covariant frame observable per frame factor.
The localized frame-change map out of frame j lifts a relative state by
attaching the localizing state of frame j, applies the predual relativization
of the target frame, and projects onto the classes framed by the source
observable, all at the size of a complement: the lifted state is a product,
so its predual factorizes.  The map is affine, well defined on classes,
invertible between localizable frames, and composable across three frames.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional, Sequence, Union

import numpy as np

from .operators import DEFAULT_TOL, HermitianBasis, as_operator
from .opequiv import Context, EffectContext, ProductContext
from .quantum import Frame, UnitaryRep, UnsupportedFrameError, localizing_state, trivial_rep
from .relativize import _extract, _layout, _place, relative_orientation


class MultiFrameScenario:
    """Frames plus an optional system factor under one diagonal group action."""

    def __init__(self, frames: Sequence[Frame], system_rep: Optional[UnitaryRep] = None) -> None:
        if len(frames) < 1:
            raise ValueError("a scenario needs at least one frame")
        group = frames[0].group
        for i, f in enumerate(frames):
            if f.group != group:
                raise ValueError(f"frame {i} represents a different group")
            if not f.principal:
                raise UnsupportedFrameError("scenario frames must be principal")
        if system_rep is not None and system_rep.group != group:
            raise ValueError("system representation must share the frames' group")
        self.group = group
        self.frames = list(frames)
        self.system_rep = system_rep
        self.factor_reps = [f.rep for f in frames] + (
            [system_rep] if system_rep is not None else []
        )
        self.dims = tuple(r.dim for r in self.factor_reps)
        self.n_factors = len(self.dims)
        self.total_dim = int(np.prod(self.dims))
        self._rest_reps: dict = {}
        self._contexts: dict = {}

    def complement(self, *exclude: int) -> list:
        """Factor positions not in ``exclude``, in order."""
        return [k for k in range(self.n_factors) if k not in exclude]

    def complement_dims(self, *exclude: int) -> tuple:
        return tuple(self.dims[k] for k in self.complement(*exclude))

    def rest_rep(self, *exclude: int) -> UnitaryRep:
        """Tensor representation on the factors not in ``exclude`` (cached);
        the empty product is the 1-dim trivial representation."""
        key = frozenset(exclude)
        if key not in self._rest_reps:
            reps = [self.factor_reps[k] for k in self.complement(*exclude)]
            self._rest_reps[key] = (reduce(UnitaryRep.tensor, reps) if reps
                                    else trivial_rep(self.group))
        return self._rest_reps[key]

    def _check_frame_index(self, j: int) -> None:
        if not 0 <= j < len(self.frames):
            raise ValueError(f"frame index {j} out of range")

    def yen_total(self, j: int, a_rest: np.ndarray) -> np.ndarray:
        """Relativize an operator on the complement of frame j into the total
        space: sum_g E_j(g) at slot j (x) g.A on the rest."""
        self._check_frame_index(j)
        a_rest = as_operator(a_rest)
        rest_rep = self.rest_rep(j)
        if a_rest.shape[0] != rest_rep.dim:
            raise ValueError("operand does not match the complement dimension")
        return _place(self.frames[j].povm, rest_rep.orbit(a_rest), self.dims, j)

    def yen_predual_total(self, j: int, omega: np.ndarray) -> np.ndarray:
        """Predual of yen_total: total trace class -> complement of slot j."""
        self._check_frame_index(j)
        omega = as_operator(omega)
        if omega.shape[0] != self.total_dim:
            raise ValueError("operand does not match the total dimension")
        blocks = _extract(self.frames[j].povm, omega, self.dims, j)
        return self.rest_rep(j).orbit(blocks, dual=True).sum(axis=0)

    def framing_context(self, reference: int, framed: Sequence[int]) -> ProductContext:
        """Context on the complement of ``reference`` whose generators put the
        listed frames' effects at their slots and a Hermitian basis everywhere
        else, kept as one small context per slot."""
        self._check_frame_index(reference)
        framed = sorted({int(k) for k in framed})
        for k in framed:
            self._check_frame_index(k)
            if k == reference:
                raise ValueError("the reference frame cannot also be framed")
        key = (reference, tuple(framed))
        if key not in self._contexts:
            self._contexts[key] = ProductContext([
                EffectContext(self.frames[pos].povm) if pos in framed
                else EffectContext(HermitianBasis(self.dims[pos]))
                for pos in self.complement(reference)
            ])
        return self._contexts[key]

    def __repr__(self) -> str:
        return (f"MultiFrameScenario({self.group.name}, {len(self.frames)} frames, "
                f"dims={self.dims})")


class FramedRelativeState:
    """A relative state (matrix on the complement of its reference frame)
    considered up to the operational equivalence of its framing context."""

    def __init__(self, scenario: MultiFrameScenario, reference: int,
                 matrix: np.ndarray, framed: Sequence[int],
                 context: Optional[Context] = None) -> None:
        self.scenario = scenario
        self.reference = int(reference)
        self.matrix = as_operator(matrix)
        self.framed = tuple(sorted(int(k) for k in framed))
        expected = int(np.prod(scenario.complement_dims(self.reference)))
        if self.matrix.shape[0] != expected:
            raise ValueError(
                f"state dim {self.matrix.shape[0]} does not match the complement "
                f"dim {expected} of frame {reference}"
            )
        self.context = context if context is not None else scenario.framing_context(
            self.reference, self.framed
        )

    def class_deviation(self, other: Union["FramedRelativeState", np.ndarray]) -> float:
        """max over the framing context's generators f of |tr[(self - other) f]|;
        a state operand must share this state's reference and framed frames."""
        if isinstance(other, FramedRelativeState):
            if other.reference != self.reference or other.framed != self.framed:
                raise ValueError("states live in different framed descriptions")
            other = other.matrix
        return self.context.class_deviation(self.matrix, as_operator(other))

    def __repr__(self) -> str:
        return (f"FramedRelativeState(reference={self.reference}, "
                f"framed={self.framed}, dim={self.matrix.shape[0]})")


def frame_change(scenario: MultiFrameScenario, src: int, dst: int,
                 state: Union[FramedRelativeState, np.ndarray],
                 localize_at: Optional[int] = None,
                 tol: float = DEFAULT_TOL) -> FramedRelativeState:
    """The localized frame-change map from frame ``src`` to frame ``dst``.

    Lifts through the exact localizing state omega of the source frame (at
    the identity unless ``localize_at`` says otherwise), relativizes with
    respect to the target frame, and projects onto the source-framed classes.
    With B_x = Tr_dst[(E_dst(x) at dst) rho] on the other slots, the predual
    of omega (x) rho is sum_g (g.omega) (x) (g.B_g), omega at the src slot:
    one (s**2, |G|) @ (|G|, r**2) product of the two flattened orbits, whose
    axes a transpose puts in slot order.  The projection, which raises
    ``ValueError`` on a non-Hermitian result, acts at the source slot only:
    a labelled source keeps each diagonal entry as its label-class mean and
    drops the off-diagonal blocks, and any other source projects onto the
    span of its effects.
    """
    scenario._check_frame_index(src)
    scenario._check_frame_index(dst)
    if src == dst:
        raise ValueError("source and target frames must differ")
    if not scenario.frames[src].localizable:
        raise UnsupportedFrameError("frame changes require a localizable source frame")
    if isinstance(state, FramedRelativeState) and state.reference != src:
        raise ValueError(f"state is relative to frame {state.reference}, not to {src}")
    matrix = state.matrix if isinstance(state, FramedRelativeState) else as_operator(state)
    if matrix.shape[0] != int(np.prod(scenario.complement_dims(src))):
        raise ValueError(f"state dim {matrix.shape[0]} does not match the complement of {src}")
    point = scenario.group.identity if localize_at is None else int(localize_at)
    omega = localizing_state(scenario.frames[src], point, tol)
    blocks = _extract(scenario.frames[dst].povm, matrix, scenario.complement_dims(src),
                      scenario.complement(src).index(dst))
    frame_orbit = scenario.frames[src].rep.orbit(omega, dual=True)
    rest_orbit = scenario.rest_rep(src, dst).orbit(blocks, dual=True)
    before, s, after = _layout(scenario.complement_dims(dst), scenario.complement(dst).index(src))
    n = frame_orbit.shape[0]
    # out[(s, t), (i, k, j, l)] = sum_g frame_orbit[g, s, t] rest_orbit[g, (i, k), (j, l)]
    out = (frame_orbit.reshape(n, s * s).T @ rest_orbit.reshape(n, -1)).reshape(
        s, s, before, after, before, after).transpose(2, 0, 3, 4, 1, 5)
    ctx = scenario.framing_context(dst, (src,))
    return FramedRelativeState(scenario, dst, ctx.project(out.reshape(before * s * after, -1)),
                               framed=(src,), context=ctx)


def coherent_frame_change_unitary(scenario: MultiFrameScenario, src: int = 0,
                                  dst: int = 1) -> np.ndarray:
    """The coherent change-of-frame unitary sum_g |g^-1><g| (x) U_S(g) for a
    pair of ideal frames in the left-right convention.

    U_S is the scenario's cached ``rest_rep(src, dst)``, the empty product
    being 1-dimensional, and its matrices are scattered into the blocks
    (g^-1, g).  Maps the complement of the source slot to the complement of
    the target slot; valid for the leading two frame slots, where both
    complements list the other frame factor first.
    """
    if {src, dst} != {0, 1}:
        raise ValueError("the coherent unitary is defined for the leading frame pair")
    for k in (src, dst):
        f = scenario.frames[k]
        if not f.ideal or f.rep.kind != "left_right":
            raise UnsupportedFrameError(
                "the coherent unitary needs ideal frames in the left-right convention"
            )
    mats = scenario.rest_rep(src, dst).matrices
    n, r = mats.shape[0], mats.shape[1]
    out = np.zeros((n, r, n, r), dtype=complex)
    out[scenario.group.inverse, :, np.arange(n), :] = mats
    return out.reshape(n * r, n * r)


def operational_agreement(scenario: MultiFrameScenario, state: np.ndarray) -> float:
    """Deviation between the operational frame change 0 -> 1 and the coherent
    unitary pipeline on one input state, at the level of source-framed
    pairings."""
    state = as_operator(state)
    u = coherent_frame_change_unitary(scenario, 0, 1)
    return frame_change(scenario, 0, 1, state).class_deviation(u @ state @ np.conj(u).T)


def compose_check(scenario: MultiFrameScenario, state: np.ndarray) -> float:
    """Deviation between changing from the first frame to the third directly
    and composing through the second, paired against the jointly framed
    generators (slots 0, 1, 2 of the scenario)."""
    if len(scenario.frames) < 3:
        raise ValueError("composition needs at least three frames")
    for k in (0, 1):
        if not scenario.frames[k].localizable:
            raise UnsupportedFrameError("composition requires localizable frames 1 and 2")
    direct = frame_change(scenario, 0, 2, state)
    via = frame_change(scenario, 1, 2, frame_change(scenario, 0, 1, state))
    joint = scenario.framing_context(2, framed=(0, 1))
    return joint.class_deviation(direct.matrix, via.matrix)


def triangular_reconstruction(frame1: Frame, frame2: Frame, rho_rel1: np.ndarray,
                              sys_rep: UnitaryRep, omega_joint: np.ndarray,
                              orientation=None) -> np.ndarray:
    """Reconstruct the state relative to a second external frame by weighting
    the group orbit of the first relative state with the relative-orientation
    distribution of a joint frame state:

        sum_h mu(h) U_S(h)^dag rho U_S(h),  mu = born(E2 * E1, omega_joint).
    """
    rho_rel1 = as_operator(rho_rel1)
    if orientation is None:
        orientation = relative_orientation(frame1, frame2)
    mu = orientation._pairings(as_operator(omega_joint))
    if abs(mu.sum() - 1.0) > 1e-6:
        raise ValueError("joint state must be normalized")
    return np.tensordot(mu, sys_rep.orbit(rho_rel1, dual=True), axes=1)
