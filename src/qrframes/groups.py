"""Finite groups as validated Cayley tables, with 0-based element indices.

Group elements are plain integers in ``range(order)``; all group data is
precomputed into tables at construction time so that later operations are
branch-free lookups.  Permutation groups compose with the right factor applied
first, matching the matrix convention ``U(s) U(t) = U(s . t)``.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np


class GroupError(ValueError):
    """Raised when a table fails the group axioms or a subset is not a subgroup."""


class FiniteGroup:
    """A finite group given by its Cayley table.

    The table is validated exhaustively on construction: every row and column
    must be a permutation, there must be a two-sided identity, every element a
    two-sided inverse, and the product must be associative.
    """

    def __init__(
        self,
        cayley: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> None:
        table = np.asarray(cayley, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupError(f"cayley table must be square, got shape {table.shape}")
        n = table.shape[0]
        if n < 1:
            raise GroupError("group order must be positive")
        full = np.arange(n)
        for i in range(n):
            if not np.array_equal(np.sort(table[i]), full):
                raise GroupError(f"cayley row {i} not a permutation")
        for j in range(n):
            if not np.array_equal(np.sort(table[:, j]), full):
                raise GroupError(f"cayley column {j} not a permutation")

        # (ab)c == a(bc), checked over all triples at once.
        left = table[table]            # left[a, b, c] = (ab)c
        right = table[:, table]        # right[a, b, c] = a(bc)
        if not np.array_equal(left, right):
            a, b, c = np.argwhere(left != right)[0]
            raise GroupError(f"associativity fails at triple ({a}, {b}, {c})")

        identity = None
        for e in range(n):
            if np.array_equal(table[e], full) and np.array_equal(table[:, e], full):
                identity = e
                break
        if identity is None:
            raise GroupError("table has no two-sided identity")

        inverse = np.empty(n, dtype=np.int64)
        for g in range(n):
            right_inv = int(np.nonzero(table[g] == identity)[0][0])
            if table[right_inv, g] != identity:
                raise GroupError(f"element {g} has no two-sided inverse")
            inverse[g] = right_inv

        if labels is not None:
            labels = [str(x) for x in labels]
            if len(labels) != n:
                raise GroupError(f"got {len(labels)} labels for order {n}")

        table.setflags(write=False)
        inverse.setflags(write=False)
        self.order: int = n
        self.cayley: np.ndarray = table
        self.identity: int = identity
        self.inverse: np.ndarray = inverse
        self.labels = labels
        self.name = name or f"group{n}"

    def mul(self, g: int, h: int) -> int:
        """Product g*h by table lookup."""
        self._check(g)
        self._check(h)
        return int(self.cayley[g, h])

    def inv(self, g: int) -> int:
        self._check(g)
        return int(self.inverse[g])

    def elements(self) -> range:
        return range(self.order)

    def _check(self, g: int) -> None:
        if not 0 <= int(g) < self.order:
            raise ValueError(f"element index {g} out of range for order {self.order}")

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        """Structural equality: same Cayley table, labels aside."""
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.cayley, other.cayley)

    def __hash__(self) -> int:
        return hash((self.order, self.cayley.tobytes()))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup:
    """A validated subgroup, stored as a sorted tuple of element indices."""

    def __init__(self, parent: FiniteGroup, members: Sequence[int]) -> None:
        mem = sorted({int(m) for m in members})
        for m in mem:
            parent._check(m)
        if parent.identity not in mem:
            raise GroupError("subgroup must contain the identity")
        memset = set(mem)
        for a in mem:
            if parent.inv(a) not in memset:
                raise GroupError(f"subgroup not closed under inverse at element {a}")
            for b in mem:
                if parent.mul(a, b) not in memset:
                    raise GroupError(f"subgroup not closed under product at ({a}, {b})")
        self.parent = parent
        self.members: tuple = tuple(mem)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return int(g) in self.members

    def __iter__(self):
        return iter(self.members)

    def __repr__(self) -> str:
        return f"Subgroup({self.members} of {self.parent.name})"

    @property
    def is_trivial(self) -> bool:
        return self.members == (self.parent.identity,)


class CosetSpace:
    """Left cosets G/H with the left-multiplication action g.(kH) = (gk)H."""

    def __init__(self, parent: FiniteGroup, subgroup: Subgroup) -> None:
        if subgroup.parent is not parent:
            raise GroupError("subgroup does not belong to the given group")
        n = parent.order
        coset_of = np.full(n, -1, dtype=np.int64)
        reps = []
        for g in range(n):
            if coset_of[g] < 0:
                coset_of[parent.cayley[g, list(subgroup.members)]] = len(reps)
                reps.append(g)
        # g.(kH) = (gk)H: the coset of g * reps[c]
        action = coset_of[parent.cayley[:, reps]]
        coset_of.setflags(write=False)
        action.setflags(write=False)
        self.parent = parent
        self.subgroup = subgroup
        self.reps: tuple = tuple(reps)
        self.coset_of: np.ndarray = coset_of
        self.action: np.ndarray = action

    @property
    def n_cosets(self) -> int:
        return len(self.reps)

    def act(self, g: int, coset: int) -> int:
        return int(self.action[g, coset])

    def members(self, coset: int) -> tuple:
        return tuple(int(g) for g in np.flatnonzero(self.coset_of == coset))

    def __repr__(self) -> str:
        return f"CosetSpace({self.parent.name}/{self.subgroup.members}, {self.n_cosets} cosets)"


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with addition mod n."""
    if n < 1:
        raise GroupError(f"cyclic group order must be >= 1, got {n}")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(table, labels=[str(k) for k in range(n)], name=f"z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are rotations r^k, n..2n-1 are s*r^k."""
    if n < 1:
        raise GroupError(f"dihedral parameter must be >= 1, got {n}")
    order = 2 * n
    table = np.empty((order, order), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            table[a, b] = (a + b) % n                      # r^a r^b
            table[a, n + b] = n + (b - a) % n              # r^a (s r^b) = s r^(b-a)
            table[n + a, b] = n + (a + b) % n              # (s r^a) r^b = s r^(a+b)
            table[n + a, n + b] = (b - a) % n              # (s r^a)(s r^b) = r^(b-a)
    labels = [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]
    return FiniteGroup(table, labels=labels, name=f"d{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n (n <= 5) on permutations of range(n), right factor applied first.

    Elements are enumerated in lexicographic order of their image tuples, so
    the identity permutation has index 0.  The image tuples are kept on the
    returned group as ``group.permutations``.
    """
    if not 1 <= n <= 5:
        raise GroupError(f"symmetric_group supports 1 <= n <= 5, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.empty((order, order), dtype=np.int64)
    for i, s in enumerate(perms):
        for j, t in enumerate(perms):
            table[i, j] = index[tuple(s[t[k]] for k in range(n))]
    group = FiniteGroup(table, labels=[str(p) for p in perms], name=f"s{n}")
    group.permutations = tuple(perms)
    return group


def quaternion_group() -> FiniteGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k} under quaternion multiplication."""
    # element = (sign, axis) with axis 0=1, 1=i, 2=j, 3=k
    axis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    elems = [(s, a) for a in range(4) for s in (1, -1)]
    idx = {q: i for i, q in enumerate(elems)}
    order = 8
    table = np.empty((order, order), dtype=np.int64)
    for i, (s1, a1) in enumerate(elems):
        for j, (s2, a2) in enumerate(elems):
            sgn, axis = axis_mul[(a1, a2)]
            table[i, j] = idx[(s1 * s2 * sgn, axis)]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, labels=labels, name="q8")
