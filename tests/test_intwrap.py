import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_abft.intwrap import exact_matmul, int_max, int_min, wrap


def test_wrap_identity_in_range():
    for v in (-128, -1, 0, 1, 127):
        assert wrap(v, 8) == v


def test_wrap_overflow():
    assert wrap(128, 8) == -128
    assert wrap(-129, 8) == 127
    assert wrap((1 << 23) - 1 + 1, 24) == -(1 << 23)


def test_wrap_ndarray():
    arr = np.array([127, 128, -128, -129, 255, 256])
    assert wrap(arr, 8).tolist() == [127, -128, -128, 127, -1, 0]


@given(st.integers(-(1 << 40), 1 << 40), st.integers(2, 48))
def test_wrap_is_congruent_and_in_range(v, width):
    w = wrap(v, width)
    assert int_min(width) <= w <= int_max(width)
    assert (w - v) % (1 << width) == 0


def exact(a, b):
    """The product over Python ints, as nested lists."""
    return (a.astype(object) @ b.astype(object)).tolist()


def operands(data, shape, width):
    """An int64 array of ``shape`` in the signed ``width``-bit range: all at its
    bottom, all at its top, or mixed, with both ends often drawn."""
    lo, hi = int_min(width), int_max(width)
    fill = data.draw(st.sampled_from([lo, hi, None]))
    if fill is not None:
        return np.full(shape, fill, dtype=np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pick = rng.random(shape)
    return np.select([pick < 0.25, pick < 0.5], [lo, hi], rng.integers(lo, hi + 1, shape))


# (width, k): with both operands ``width`` bits wide, peak * k = 2^(2 width - 2) k
# is just below, at and just above 2^53
BOUNDARY = [(25, 31), (25, 32), (25, 33), (26, 7), (26, 8), (26, 9), (27, 1), (27, 2), (27, 3)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_matmul_at_the_float64_bound(data):
    width, k = data.draw(st.sampled_from(BOUNDARY))
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a, b = operands(data, (m, k), width), operands(data, (k, n), width)
    got = exact_matmul(a, b, 1 << 2 * width - 2)
    assert got.dtype == np.int64 and got.tolist() == exact(a, b)


def test_float64_alone_rounds_past_the_bound():
    """The case above the bound that float64 BLAS gets wrong, and exact_matmul does not."""
    top = int_max(26)
    a, b = np.full((1, 9), top), np.full((9, 1), top)   # sum 9 (2^25 - 1)^2 is odd, past 2^53
    assert (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64).tolist() != exact(a, b)
    assert exact_matmul(a, b, 1 << 50).tolist() == exact(a, b)


# (k, n) and the rows each BLAS call takes, 2^18 // (k n): one block for any
# row count, and blocks of 256, 32, 16, 2 and 1 rows; 1-column operands
# included, and one whose 1-row blocks would be dot products past 10,000
SHAPES = [(1, 1), (4, 32), (32, 1), (32, 32), (128, 128), (8192, 1), (16384, 1), (512, 256),
          (256, 1024)]


@pytest.mark.parametrize("k, n", SHAPES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_exact_matmul_in_row_blocks(k, n, data):
    step = (1 << 18) // (k * n)
    m = data.draw(st.sampled_from([1, 2, step - 1, step, step + 1, 3 * step + 1]).filter(
        lambda rows: 1 <= rows <= 800))
    a, b = operands(data, (m, k), 12), operands(data, (k, n), 12)
    assert exact_matmul(a, b, 1 << 22).tolist() == exact(a, b)
