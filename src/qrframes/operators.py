"""Dense complex matrix primitives: tensor products, partial traces,
positivity and effect tests, and the Hilbert-Schmidt geometry of Hermitian
matrices.

Operators are plain complex numpy arrays.  A factor shape is an ordered tuple
of tensor-factor dimensions whose product must equal the matrix dimension it
annotates; it is passed explicitly wherever a matrix is read as living on a
tensor product.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

DEFAULT_TOL = 1e-9


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries.

    A complex array comes back as the same object.  Finiteness is decided
    by one BLAS pass, the inner product sum_ij |m_ij|**2 taken in memory
    order (no copy of a C- or F-ordered operand).  Under IEEE arithmetic
    an inf or NaN entry makes that sum non-finite, so a finite sum proves
    every entry finite.  Only a non-finite sum, from such an entry or from
    finite entries whose squares overflow (|m_ij| above about 1e154),
    falls back to the per-entry test, so exactly the operands with an inf
    or NaN entry are rejected.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    flat = m.ravel(order="K")
    if not np.isfinite(np.vdot(flat, flat)) and not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    return m


def check_factor_shape(dims: Sequence[int], dim: int) -> tuple:
    """Validate a factor shape against the matrix dimension it annotates."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    prod = 1
    for d in dims:
        prod *= d
    if prod != dim:
        raise ValueError(f"factor shape {dims} has product {prod}, expected {dim}")
    return dims


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with (kron(A,B))_((i,k),(j,l)) = A_ij B_kl."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def permute_factors(a: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of ``a``.

    ``a`` acts on the product of ``dims``; the output acts on the product of
    ``[dims[k] for k in order]``, with factor ``order[k]`` of the input placed
    at slot ``k`` of the output.
    """
    a = as_operator(a)
    dims = check_factor_shape(dims, a.shape[0])
    n = len(dims)
    order = [int(k) for k in order]
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of {n} factors")
    t = a.reshape(dims + dims)
    t = t.transpose([*order, *[n + k for k in order]])
    d = a.shape[0]
    return np.ascontiguousarray(t.reshape(d, d))


def embed_factors(op: np.ndarray, dims: Sequence[int], positions: Sequence[int]) -> np.ndarray:
    """Embed ``op`` (acting on the listed factor positions, in that order)
    into the full product space, padding the remaining factors with identity.
    """
    op = as_operator(op)
    dims = tuple(int(d) for d in dims)
    positions = [int(p) for p in positions]
    if len(set(positions)) != len(positions) or any(not 0 <= p < len(dims) for p in positions):
        raise ValueError(f"invalid factor positions {positions} for {len(dims)} factors")
    sub = 1
    for p in positions:
        sub *= dims[p]
    if op.shape[0] != sub:
        raise ValueError(f"operator dim {op.shape[0]} does not match factors {positions} of {dims}")
    rest = [k for k in range(len(dims)) if k not in positions]
    rest_dim = 1
    for k in rest:
        rest_dim *= dims[k]
    big = np.kron(op, np.eye(rest_dim, dtype=complex))
    # big is ordered positions + rest; send factor f of big back to slot f.
    src_order = positions + rest
    inverse = [src_order.index(k) for k in range(len(dims))]
    return permute_factors(big, [dims[f] for f in src_order], inverse)


def partial_trace(a: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all factors not in ``keep``; kept factors stay in their order.

    Satisfies tr[partial_trace(A) B] = tr[A embed(B)] for every B on the kept
    factors, and is trace preserving.
    """
    a = as_operator(a)
    dims = check_factor_shape(dims, a.shape[0])
    n = len(dims)
    keep = sorted({int(k) for k in keep})
    if any(not 0 <= k < n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    t = a.reshape(dims + dims)
    row = list(range(n))
    col = [n + k if k in keep else k for k in range(n)]
    out = [*(k for k in keep), *(n + k for k in keep)]
    res = np.einsum(t, row + col, out)
    d = 1
    for k in keep:
        d *= dims[k]
    return res.reshape(d, d)


def contract_factor(a: np.ndarray, dims: Sequence[int], pos: int,
                    op: np.ndarray) -> np.ndarray:
    """partial_trace(embed(op, pos) @ a, dims, keep=rest) without the full
    embedded product: contracts factor ``pos`` of ``a`` against ``op``.
    """
    a = as_operator(a)
    dims = check_factor_shape(dims, a.shape[0])
    n = len(dims)
    pos = int(pos)
    if not 0 <= pos < n:
        raise ValueError(f"factor position {pos} out of range")
    op = as_operator(op)
    if op.shape[0] != dims[pos]:
        raise ValueError(f"operator dim {op.shape[0]} does not match factor {pos}")
    rest = [k for k in range(n) if k != pos]
    t = a.reshape(dims + dims)
    # out[r, c] = sum_{i,j} op[i, j] * a[(j at pos, r), (i at pos, c)]
    row = [1 if k == pos else 2 + rest.index(k) for k in range(n)]
    col = [0 if k == pos else 2 + len(rest) + rest.index(k) for k in range(n)]
    out = [2 + i for i in range(len(rest))] + [2 + len(rest) + i for i in range(len(rest))]
    res = np.einsum(op, [0, 1], t, row + col, out)
    d = 1
    for k in rest:
        d *= dims[k]
    return res.reshape(d, d)


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a)).T


def pair_trace(a: np.ndarray, b: np.ndarray) -> complex:
    """tr[a b] without forming the product."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a * b.T))


def worst_case(deviations: Iterator) -> Tuple[float, int, Optional[dict]]:
    """Drain a generator of deviations into ``(worst, trials, witness)``.

    A yield is a float or a ``(float, where)`` pair; a bare float's ``where``
    is ``{"index": i}``.  ``worst`` is the largest of 0.0 and the deviations,
    NaN if any is NaN (the built-in ``max(0.0, nan)`` is 0.0); ``trials``
    counts the yields unless the generator returns a count; ``witness`` is the
    ``where`` of the first yield with the largest deviation, NaN beating any
    number, or None if nothing was yielded.
    """
    top, witness, count = -math.inf, None, 0
    while True:
        try:
            item = next(deviations)
        except StopIteration as stop:
            trials = count if stop.value is None else int(stop.value)
            return (top if math.isnan(top) else max(0.0, top)), trials, witness
        dev, where = item if isinstance(item, tuple) else (item, {"index": count})
        dev = float(dev)
        if count == 0 or dev > top or (math.isnan(dev) and not math.isnan(top)):
            top, witness = dev, where
        count += 1


def op_norm(a: np.ndarray) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a, dtype=complex)
    return bool(np.max(np.abs(a - dagger(a))) <= tol) if a.size else True


def _herm_eigs(a: np.ndarray) -> np.ndarray:
    a = as_operator(a)
    return np.linalg.eigvalsh((a + dagger(a)) / 2)


def is_positive(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian within tol and eigenvalues >= -tol."""
    if not is_hermitian(a, tol):
        return False
    return bool(np.min(_herm_eigs(a)) >= -tol)


def is_effect(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Positive with eigenvalues <= 1 + tol."""
    if not is_hermitian(a, tol):
        return False
    eigs = _herm_eigs(a)
    return bool(np.min(eigs) >= -tol and np.max(eigs) <= 1 + tol)


def is_density(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Positive with unit trace."""
    if not is_positive(a, tol):
        return False
    return bool(abs(np.trace(np.asarray(a, dtype=complex)) - 1) <= tol)


class HermitianBasis:
    """The fixed Hilbert-Schmidt orthonormal basis of Hermitian dim x dim
    matrices: matrix units E_ii first, then (E_ij + E_ji)/sqrt(2) and
    i(E_ij - E_ji)/sqrt(2) over pairs i < j in lexicographic order.

    ``to_coords``/``from_coords`` convert between Hermitian matrices and real
    coordinate vectors of length dim**2 in this basis.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        self.size = self.dim * self.dim
        iu = np.triu_indices(self.dim, k=1)
        self._rows, self._cols = iu

    def to_coords(self, a: np.ndarray) -> np.ndarray:
        """Coordinates of a Hermitian matrix, or of each matrix in a stack
        (shape ``(..., dim, dim)`` gives ``(..., dim**2)``)."""
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrix, got {a.shape}")
        off = a[..., self._rows, self._cols]
        return np.concatenate([
            np.diagonal(a, axis1=-2, axis2=-1).real,
            np.sqrt(2.0) * off.real,
            np.sqrt(2.0) * off.imag,
        ], axis=-1)

    def from_coords(self, v: np.ndarray) -> np.ndarray:
        """The Hermitian matrix of a coordinate vector, or the stack of
        matrices of a stack of vectors."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.size,):
            raise ValueError(f"expected coordinate vector of length {self.size}")
        n = self.dim
        n_off = len(self._rows)
        a = np.zeros(v.shape[:-1] + (n, n), dtype=complex)
        a[..., np.arange(n), np.arange(n)] = v[..., :n]
        sym = v[..., n:n + n_off] / np.sqrt(2.0)
        anti = v[..., n + n_off:] / np.sqrt(2.0)
        a[..., self._rows, self._cols] = sym + 1j * anti
        a[..., self._cols, self._rows] = sym - 1j * anti
        return a

    @property
    def matrices(self) -> list:
        """The basis as explicit matrices, in coordinate order."""
        return list(self.from_coords(np.eye(self.size)))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + dagger(g)) / 2


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, np.conj(v))
