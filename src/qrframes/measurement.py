"""Measurement-theoretic checkers: probability reproducibility, relational
reproducibility, and their realization by relative-orientation observables.

A measurement scheme couples a pointer system R to the measured system S by a
unitary interaction; the scheme reproduces a target observable when pointer
statistics after the interaction match the target statistics on every input
state.  Both conditions are checked as exact operator identities obtained by
conditioning on the pointer state, so no state sampling is needed.

Each checker is a generator that yields one ``(deviation, where)`` pair per
outcome (and per rotation h), ``where`` naming it; ``operators.worst_case``
drains it into the worst deviation, the trial count and the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .groups import FiniteGroup
from .operators import DEFAULT_TOL, as_operator, dagger, is_density, op_norm, worst_case
from .quantum import (
    Frame,
    POVM,
    UnitaryRep,
    UnsupportedFrameError,
    canonical_pvm,
    left_regular_rep,
    localizing_state,
)
from .relativize import PreconditionError, relative_orientation, restrict


@dataclass(frozen=True, eq=False)
class MeasurementScheme:
    """Pointer coupling (U, f, E_R, omega_p) for a target observable E_S.

    Immutable after construction: no field can be rebound, and the
    interaction and the pointer state are read-only copies.
    """

    interaction: np.ndarray
    pointer_povm: POVM
    pointer_state: np.ndarray
    outcome_map: Sequence[int]
    target: POVM

    def __post_init__(self) -> None:
        u = np.array(as_operator(self.interaction))
        d = self.pointer_povm.dim * self.target.dim
        if u.shape[0] != d:
            raise ValueError(f"interaction dim {u.shape[0]} != pointer*system dim {d}")
        if op_norm(u @ dagger(u) - np.eye(d)) > 1e-9:
            raise ValueError("interaction is not unitary")
        omega = np.array(as_operator(self.pointer_state))
        if omega.shape != (self.pointer_povm.dim,) * 2:
            raise ValueError(f"pointer state shape {omega.shape} is not the pointer dim squared")
        if not is_density(omega, 1e-6):
            raise ValueError("pointer state must be a density operator")
        f = self._checked_map(self.outcome_map, "outcome map")
        u.setflags(write=False)
        omega.setflags(write=False)
        object.__setattr__(self, "interaction", u)
        object.__setattr__(self, "pointer_state", omega)
        object.__setattr__(self, "outcome_map", f)

    def _checked_map(self, f: Sequence[int], name: str) -> tuple:
        """``f`` as a tuple, once it is total on the pointer sample space
        and lands in the target sample space."""
        f = tuple(int(x) for x in f)
        if len(f) != self.pointer_povm.size:
            raise ValueError(f"{name} must be total on the pointer sample space")
        if any(not 0 <= x < self.target.size for x in f):
            raise ValueError(f"{name} hits outcomes outside the target sample space")
        return f

    def reproduced(self, omega: np.ndarray,
                   read_out: Optional[Sequence[int]] = None) -> np.ndarray:
        """The stack over target outcomes y of Tr_R[(omega (x) 1) U (E_R(X_y)
        (x) 1) U^dag], X_y the pointer outcomes that ``read_out`` (by default
        the outcome map) sends to y.  In Kraus form, with omega = sum_v l_v
        |v><v| and K_v = (<v| (x) 1) U, it sums l_v K_v (E_R(x) (x) 1) K_v^dag;
        exact zeros l_v are dropped, so a pure pointer state costs one K_v.
        A ``read_out`` that is not total on the pointer sample space, or
        leaves the target sample space, raises ValueError.
        """
        read_out = np.asarray(self.outcome_map if read_out is None
                              else self._checked_map(read_out, "read-out map"), dtype=np.intp)
        pointer = self.pointer_povm
        d_r, d_s = pointer.dim, self.target.dim
        lam, vecs = np.linalg.eigh(as_operator(omega))
        keep = lam != 0
        # kraus[v, s, x, t] = <v, s| U |x, t>
        kraus = np.tensordot(vecs[:, keep].conj(),
                             self.interaction.reshape(d_r, d_s, d_r, d_s), axes=(0, 0))
        weighted = kraus * lam[keep, None, None, None]
        if pointer.labels is not None:
            # E_R(x) is diagonal: one term per pointer index i, read as f(labels[i])
            singles = np.einsum("vsit,vuit->isu", weighted, kraus.conj(), optimize=True)
            read_out = read_out[pointer.labels]
        else:
            sandwiched = np.tensordot(weighted, np.asarray(pointer.effects), axes=(2, 1))
            singles = np.einsum("vstey,vuyt->esu", sandwiched, kraus.conj(), optimize=True)
        out = np.zeros((self.target.size, d_s, d_s), dtype=complex)
        np.add.at(out, read_out, singles)
        return out


def check_prc(scheme: MeasurementScheme):
    """Probability reproducibility: conditioning the evolved pointer effect on
    the pointer state must return the target effect, for every outcome y."""
    for y, effect in enumerate(scheme.reproduced(scheme.pointer_state)):
        yield op_norm(effect - scheme.target.effect(y)), {"y": y}


def commutation_deviation(scheme: MeasurementScheme, rep_r: UnitaryRep):
    """Yield || [U, U_R(g) (x) 1] || for every frame rotation g."""
    d_s = scheme.target.dim
    for g in rep_r.group.elements():
        ug = np.kron(rep_r.mat(g), np.eye(d_s, dtype=complex))
        yield op_norm(scheme.interaction @ ug - ug @ scheme.interaction), {"g": g}


def check_rrc(scheme: MeasurementScheme, rep_r: UnitaryRep, tol: float = DEFAULT_TOL):
    """Relational reproducibility: rotating the pointer preparation to
    U(h) omega U(h)^dag while rotating the read-out set to h.X must leave the
    reproduced statistics unchanged, for every h and outcome y.

    Requires the interaction to commute with frame rotations up to ``tol``;
    the rotated preparation moves the pointer's localization from e to h.
    """
    dev, _, where = worst_case(commutation_deviation(scheme, rep_r))
    if not dev <= tol:
        raise PreconditionError(
            f"interaction does not commute with frame rotations (worst at g={where['g']})", dev
        )
    for h in rep_r.group.elements():
        omega_h = rep_r.act_op(h, scheme.pointer_state)
        # the read-out set of y moves to h.X_y: z is read as f(h^-1.z)
        read_out = [scheme.outcome_map[scheme.pointer_povm.act(rep_r.group.inv(h), z)]
                    for z in range(scheme.pointer_povm.size)]
        for y, effect in enumerate(scheme.reproduced(omega_h, read_out)):
            yield op_norm(effect - scheme.target.effect(y)), {"h": h, "y": y}


def rrc_relative_orientation(frame_r: Frame, system: Frame):
    """Exact relational reproducibility of the relative-orientation observable.

    With the pointer localized at the identity, for every h and every sample
    point x the conditioned effect of E_S * E_R at h.x under the rotated
    pointer state equals E_S(x).
    """
    if not (frame_r.localizable and frame_r.principal):
        raise UnsupportedFrameError(
            "relative-orientation reproducibility needs a localizable principal frame"
        )
    orientation = relative_orientation(frame_r, system)
    omega = localizing_state(frame_r, frame_r.group.identity)
    for h in frame_r.group.elements():
        restricted = _restricted(frame_r.rep.act_state(h, omega), orientation)
        for x in range(system.povm.size):
            lhs = restricted[orientation.act(h, x)]
            yield op_norm(lhs - system.povm.effect(x)), {"h": h, "x": x}


def _restricted(omega: np.ndarray, povm: POVM) -> np.ndarray:
    """The stack over outcomes y of restrict(omega, E(y)), E a POVM on the
    composite of omega's space and a system.

    For a labelled PVM only omega's diagonal enters: restrict(omega, E(y))
    is diagonal with entry k equal to sum_i omega[i, i] [labels[i, k] == y].
    """
    d_r = omega.shape[0]
    d_s = povm.dim // d_r
    if povm.labels is None:
        return np.array([restrict(omega, povm.effect(y)) for y in range(povm.size)])
    diag = np.zeros((povm.size, d_s), dtype=complex)
    np.add.at(diag, (povm.labels.reshape(d_r, d_s), np.arange(d_s)),
              np.diagonal(omega)[:, None])
    return diag[:, :, None] * np.eye(d_s)


def canonical_scheme(group: FiniteGroup) -> MeasurementScheme:
    """The package's reference fixture on L2(G) (x) L2(G).

    The pointer carries the left-regular representation with its canonical
    PVM and starts at |e><e|; the interaction is the relative shift
    U|g,h> = |g h^-1, h>, which writes the system value into the pointer,
    commutes with frame rotations U_R(k) (x) 1, and reproduces the canonical
    PVM on the system exactly.
    """
    n = group.order
    # |g, h> at g * n + h goes to |g h^-1, h>
    u = np.zeros((n * n, n * n), dtype=complex)
    u[group.cayley[:, group.inverse] * n + np.arange(n), np.arange(n * n).reshape(n, n)] = 1.0
    rep = left_regular_rep(group)
    pointer = canonical_pvm(rep)
    target = canonical_pvm(rep)
    omega_p = np.zeros((n, n), dtype=complex)
    omega_p[group.identity, group.identity] = 1.0
    return MeasurementScheme(
        interaction=u,
        pointer_povm=pointer,
        pointer_state=omega_p,
        outcome_map=list(range(n)),
        target=target,
    )
