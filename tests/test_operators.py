import math

import numpy as np
import pytest

from qrframes import (
    HermitianBasis,
    contract_factor,
    embed_factors,
    is_density,
    is_effect,
    is_positive,
    kron,
    op_norm,
    partial_trace,
    permute_factors,
    worst_case,
)
from qrframes.operators import dagger, pair_trace, random_density, random_hermitian


def _yielding(items, returns=None):
    yield from items
    return returns


def test_worst_case_first_of_tied_deviations_is_the_witness():
    assert worst_case(_yielding([0.1, (0.5, {"h": 1}), (0.5, {"h": 2}), 0.5])) == (
        0.5, 4, {"h": 1})


def test_worst_case_nan_beats_a_larger_number_and_names_its_yield():
    worst, trials, witness = worst_case(_yielding([(7.0, {"g": 0}), (float("nan"), {"g": 1}),
                                                   (9.0, {"g": 2}), float("nan")]))
    assert math.isnan(worst)
    assert (trials, witness) == (4, {"g": 1})


def test_worst_case_only_negative_deviations_keep_the_floor_and_a_witness():
    # the floor is 0.0, but the witness is the first argmax over the yields
    assert worst_case(_yielding([-3.0, -0.5, -1.0, -0.5])) == (0.0, 4, {"index": 1})


def test_worst_case_mixed_bare_and_located_yields():
    # a bare float is located by its index among all yields
    assert worst_case(_yielding([(0.1, {"y": 0}), 0.4, (0.2, {"y": 2})])) == (
        0.4, 3, {"index": 1})
    assert worst_case(_yielding([0.1, 0.2, (0.3, {"h": 0, "y": 4})])) == (
        0.3, 3, {"h": 0, "y": 4})


def test_worst_case_return_value_overrides_the_count():
    assert worst_case(_yielding([0.25, 0.5], returns=12)) == (0.5, 12, {"index": 1})


def test_worst_case_empty_generator():
    assert worst_case(_yielding([])) == (0.0, 0, None)
    assert worst_case(_yielding([], returns=3)) == (0.0, 3, None)


def test_kron_identity_blocks():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_index_formula_oracle(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    k = kron(a, b)
    for i in range(2):
        for j in range(2):
            for p in range(3):
                for q in range(3):
                    assert k[i * 3 + p, j * 3 + q] == pytest.approx(a[i, j] * b[p, q])


def test_kron_block_placement():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    k = kron(np.diag([1.0, 0.0]), x)
    assert np.allclose(k[:2, :2], x)
    assert np.allclose(k[2:, :], 0)


def test_kron_trace_multiplicative(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.trace(kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


def test_kron_associative(rng):
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2))
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_partial_trace_product_case(rng):
    omega = random_hermitian(rng, 3)
    rho = random_hermitian(rng, 4)
    out = partial_trace(kron(omega, rho), (3, 4), keep=[1])
    assert np.allclose(out, np.trace(omega) * rho)
    out_r = partial_trace(kron(omega, rho), (3, 4), keep=[0])
    assert np.allclose(out_r, np.trace(rho) * omega)


def test_partial_trace_all_factors(rng):
    a = random_hermitian(rng, 6)
    out = partial_trace(a, (2, 3), keep=[])
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(np.trace(a))


def test_partial_trace_duality_oracle(rng):
    # tr[pt(A) B] = tr[A (1 (x) B)] checked against a matrix-unit double loop
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    reduced = partial_trace(a, (2, 3), keep=[1])
    for p in range(3):
        for q in range(3):
            unit = np.zeros((3, 3), dtype=complex)
            unit[p, q] = 1.0
            lhs = np.trace(reduced @ unit)
            rhs = np.trace(a @ kron(np.eye(2), unit))
            assert lhs == pytest.approx(rhs)


def test_partial_trace_preserves_trace(rng):
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    for keep in ([0], [1], [2], [0, 2]):
        assert np.trace(partial_trace(a, (2, 3, 2), keep)) == pytest.approx(np.trace(a))


def test_partial_trace_bad_shape():
    with pytest.raises(ValueError, match="factor shape"):
        partial_trace(np.eye(6), (2, 2), keep=[0])


def test_permute_factors_swap_oracle(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    swapped = permute_factors(kron(a, b), (2, 3), [1, 0])
    assert np.allclose(swapped, kron(b, a))


def test_permute_factors_three_way(rng):
    mats = [rng.normal(size=(d, d)) for d in (2, 3, 2)]
    full = kron(kron(mats[0], mats[1]), mats[2])
    rolled = permute_factors(full, (2, 3, 2), [2, 0, 1])
    assert np.allclose(rolled, kron(kron(mats[2], mats[0]), mats[1]))


def test_embed_factors(rng):
    op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    emb = embed_factors(op, (2, 3, 2), [1])
    assert np.allclose(emb, kron(kron(np.eye(2), op), np.eye(2)))
    pair = rng.normal(size=(6, 6))
    emb2 = embed_factors(pair, (2, 3, 2), [2, 1])  # op ordered (factor2, factor1)
    # kron(pair, I) carries factor order (f2, f1, f0); realign to canonical
    expected = permute_factors(kron(pair, np.eye(2)), (2, 3, 2), [2, 1, 0])
    assert np.allclose(emb2, expected)
    # duality oracle: pairing with a product state singles out the factors
    rho = [rng.normal(size=(d, d)) for d in (2, 3, 2)]
    lhs = np.trace(emb2 @ kron(kron(rho[0], rho[1]), rho[2]))
    rhs = np.trace(pair @ kron(rho[2], rho[1])) * np.trace(rho[0])
    assert lhs == pytest.approx(rhs)


def test_contract_factor_matches_embed_oracle(rng):
    dims = (2, 3, 2)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    for pos in range(3):
        op = rng.normal(size=(dims[pos], dims[pos])) + 1j * rng.normal(size=(dims[pos], dims[pos]))
        direct = contract_factor(a, dims, pos, op)
        keep = [k for k in range(3) if k != pos]
        oracle = partial_trace(embed_factors(op, dims, [pos]) @ a, dims, keep)
        assert np.allclose(direct, oracle)


def test_positivity_flags():
    assert is_positive(np.eye(3))
    assert is_effect(np.eye(3))
    assert not is_density(np.eye(3))
    assert is_density(np.eye(3) / 3)
    assert is_positive(np.diag([1.0, -1e-12]), tol=1e-9)
    assert not is_positive(np.diag([1.0, -1e-6]), tol=1e-9)
    assert not is_effect(np.diag([1.5, 0.0]))
    assert not is_positive(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_positivity_construction_oracle(rng):
    for _ in range(1000):
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert is_positive(dagger(b) @ b)


def test_hs_inner_and_norm():
    assert np.vdot(np.eye(4), np.eye(4)) == pytest.approx(4.0)
    proj = np.diag([1.0, 0.0, 0.0])
    assert op_norm(proj) == pytest.approx(1.0)
    assert op_norm(np.zeros((2, 2))) == pytest.approx(0.0)


def test_pair_trace_oracle(rng):
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert pair_trace(a, b) == pytest.approx(np.trace(a @ b))


def test_hermitian_basis_dim2_explicit():
    basis = HermitianBasis(2)
    mats = basis.matrices
    expected = [
        np.diag([1.0, 0.0]),
        np.diag([0.0, 1.0]),
        np.array([[0, 1], [1, 0]]) / np.sqrt(2),
        np.array([[0, 1j], [-1j, 0]]) / np.sqrt(2),
    ]
    assert len(mats) == 4
    for got, want in zip(mats, expected):
        assert np.allclose(got, want)


def test_hermitian_basis_orthonormal():
    basis = HermitianBasis(3)
    mats = basis.matrices
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            assert np.vdot(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_hermitian_basis_reconstruction(rng):
    basis = HermitianBasis(4)
    for _ in range(20):
        a = random_hermitian(rng, 4)
        coords = basis.to_coords(a)
        rebuilt = sum(c * m for c, m in zip(coords, basis.matrices))
        assert np.max(np.abs(rebuilt - a)) <= 1e-10
        assert np.allclose(basis.from_coords(coords), a)
        # coefficients are the HS inner products and are real
        for c, m in zip(coords, basis.matrices):
            assert np.vdot(m, a) == pytest.approx(c, abs=1e-12)


def test_random_density_is_density(rng):
    for dim in (2, 5):
        assert is_density(random_density(rng, dim))
