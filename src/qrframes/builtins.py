"""Built-in groups and small concrete representations.

Every verification suite must run without authoring files, so this module
catalogs the groups z1..z8, d3..d5, s3, s4 and q8, and gives each one a small
(dimension <= 3) unitary representation to serve as the system factor.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup, cyclic_group, dihedral_group, quaternion_group, symmetric_group
from .quantum import UnitaryRep

BUILTIN_NAMES = (
    "z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8",
    "d3", "d4", "d5", "s3", "s4", "q8",
)


def builtin_group(name: str) -> FiniteGroup:
    key = name.strip().lower()
    if key.startswith("z") and key[1:].isdigit():
        n = int(key[1:])
        if 1 <= n <= 8:
            return cyclic_group(n)
    if key.startswith("d") and key[1:].isdigit():
        n = int(key[1:])
        if 3 <= n <= 5:
            return dihedral_group(n)
    if key in ("s3", "s4"):
        return symmetric_group(int(key[1]))
    if key == "q8":
        return quaternion_group()
    raise ValueError(f"unknown builtin group {name!r}; choose one of {', '.join(BUILTIN_NAMES)}")


def character_rep(group: FiniteGroup, exponents) -> UnitaryRep:
    """Diagonal representation of a cyclic group: U(g) = diag(w^(g*k_j)) with
    w the primitive |G|-th root of unity and k_j the given exponents."""
    n = group.order
    w = np.exp(2j * np.pi / n)
    mats = [np.diag([w ** (g * int(k)) for k in exponents]) for g in range(n)]
    return UnitaryRep(group, mats)


def permutation_rep(group: FiniteGroup) -> UnitaryRep:
    """Permutation matrices of a symmetric group built by symmetric_group."""
    perms = getattr(group, "permutations", None)
    if perms is None:
        raise ValueError("permutation_rep needs a group built by symmetric_group")
    return UnitaryRep.from_permutations(group, perms)


def standard_rep_symmetric(group: FiniteGroup) -> UnitaryRep:
    """The (n-1)-dimensional standard representation of S_n: the permutation
    action compressed onto the complement of the uniform vector."""
    perm = permutation_rep(group)
    n = perm.dim
    basis = np.linalg.qr(np.column_stack([np.ones(n)] + [np.eye(n)[:, k] for k in range(n - 1)]))[0]
    q = basis[:, 1:]
    mats = [q.T @ perm.mat(g) @ q for g in group.elements()]
    return UnitaryRep(group, mats)


def sign_rep(group: FiniteGroup, extra_dim: int = 2) -> UnitaryRep:
    """diag(1, sgn(pi)) representation of a symmetric group; the sign is the
    determinant of the permutation matrix."""
    signs = np.rint(np.linalg.det(permutation_rep(group).matrices).real)
    mats = [np.diag([1.0] + [s] * (extra_dim - 1)) for s in signs]
    return UnitaryRep(group, mats)


def dihedral_standard_rep(group: FiniteGroup) -> UnitaryRep:
    """The 2-dimensional rotation/reflection representation of a dihedral
    group built by dihedral_group (rotations first, then reflections)."""
    order = group.order
    if order % 2 != 0:
        raise ValueError("dihedral_standard_rep needs a dihedral group")
    n = order // 2
    mats = []
    for k in range(n):
        t = 2 * np.pi * k / n
        mats.append(np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex))
    for k in range(n):
        t = -2 * np.pi * k / n       # reflection angles run against the rotations
        mats.append(np.array([[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]], dtype=complex))
    return UnitaryRep(group, mats)


def quaternion_2d_rep(group: FiniteGroup) -> UnitaryRep:
    """The faithful 2-dimensional representation of Q8 by quaternion units."""
    eye = np.eye(2, dtype=complex)
    qi = 1j * np.array([[1, 0], [0, -1]], dtype=complex)
    qj = 1j * np.array([[0, -1j], [1j, 0]], dtype=complex)
    qk = 1j * np.array([[0, 1], [1, 0]], dtype=complex)
    table = [eye, -eye, qi, -qi, qj, -qj, qk, -qk]
    return UnitaryRep(group, table)


def _pad_to_three(rep: UnitaryRep) -> UnitaryRep:
    """The 2-dim ``rep`` direct sum the 1-dim trivial rep."""
    mats = np.zeros((rep.group.order, 3, 3), dtype=complex)
    mats[:, :2, :2] = rep.matrices
    mats[:, 2, 2] = 1.0
    return UnitaryRep._trusted(rep.group, mats)


def standard_system_rep(group: FiniteGroup, dim: int = 2) -> UnitaryRep:
    """A small concrete representation of a builtin group at the given
    dimension (2 or 3), used as the system factor in verification suites."""
    name = group.name
    if name.startswith("z"):
        n = group.order
        return character_rep(group, [k % n for k in range(dim)])
    if name.startswith("s"):
        n = int(name[1])
        if dim == n - 1:
            return standard_rep_symmetric(group)
        if dim == n:
            return permutation_rep(group)
        return sign_rep(group, extra_dim=dim)
    if name.startswith("d") or name == "q8":
        base = dihedral_standard_rep(group) if name.startswith("d") else quaternion_2d_rep(group)
        return base if dim == 2 else _pad_to_three(base)
    raise ValueError(f"no standard system representation for group {name!r} at dim {dim}")
