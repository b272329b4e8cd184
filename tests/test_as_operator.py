"""as_operator's finiteness verdict and its no-copy contract.

The verdict comes from one inner product, with a per-entry fallback when
that sum is not finite; these tests pin that it rejects exactly the operands
with an inf or NaN entry, whatever the memory layout, and that a complex
operand is neither copied nor changed.
"""

import tracemalloc

import numpy as np
import pytest

from qrframes.operators import as_operator

SIZES = (3, 576)
LAYOUTS = ("C", "F", "strided")


def _operand(rng, n, layout, fill=None):
    """A finite complex n x n operand in the given memory layout: C order,
    F order (a transpose) or a strided view that skips every other row and
    column of a larger array."""
    shape = (2 * n, 2 * n) if layout == "strided" else (n, n)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if fill is not None:
        m[:] = fill
    if layout == "F":
        m = m.T
    elif layout == "strided":
        m = m[::2, ::2]
    assert m.shape == (n, n)
    assert m.flags.c_contiguous == (layout == "C")
    assert m.flags.f_contiguous == (layout == "F")
    return m


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("part", ("real", "imag"))
def test_one_non_finite_entry_is_rejected(rng, n, layout, bad, part):
    m = _operand(rng, n, layout)
    i, j = n // 2, n - 1
    m[i, j] = complex(bad, m[i, j].imag) if part == "real" else complex(m[i, j].real, bad)
    with pytest.raises(ValueError, match="non-finite"):
        as_operator(m)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_non_finite_entry_among_overflowing_squares_is_rejected(rng, n, layout):
    # the squared norm overflows anyway, so the per-entry test decides
    m = _operand(rng, n, layout, fill=1e200 - 1e200j)
    m[0, n - 1] = complex(1e200, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        as_operator(m)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_finite_entries_with_overflowing_squares_are_accepted(rng, n, layout):
    m = _operand(rng, n, layout, fill=1e200 - 1e200j)
    m[0, 0] = -1e200
    before = m.copy()
    out = as_operator(m)
    assert out is m
    assert np.array_equal(out, before)


def test_real_overflowing_entries_are_accepted():
    m = np.full((4, 4), 1e200)
    m[1, 2] = -1.5e300
    out = as_operator(m)
    assert out.dtype == complex
    assert np.array_equal(out, m)


def test_non_finite_entry_outside_a_strided_view_is_not_read(rng):
    parent = rng.standard_normal((8, 8)) + 0j
    parent[1::2, :] = np.nan
    view = parent[::2, ::2]
    assert as_operator(view) is view


@pytest.mark.parametrize("layout", ("C", "F"))
def test_contiguous_complex_operand_is_returned_without_a_copy(rng, layout):
    m = _operand(rng, 576, layout)
    tracemalloc.start()
    try:
        out = as_operator(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is m
    # a copy of the operand would allocate m.nbytes (5.3 MB) at once
    assert peak < m.nbytes // 4


@pytest.mark.parametrize("shape", ((3,), (2, 3), (2, 2, 2)))
def test_non_square_operand_is_rejected(shape):
    with pytest.raises(ValueError, match="square matrix"):
        as_operator(np.zeros(shape))
