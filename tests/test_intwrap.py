import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_abft import DenseMatrix, golden_result
from sparse_abft.intwrap import blas_matmul, exact_matmul, int_max, int_min, slice_plan, wrap


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
    got = exact_matmul(a, b, 1 << width - 1, 1 << width - 1)
    assert got.dtype == np.int64 and got.tolist() == exact(a, b)


def test_float64_alone_rounds_past_the_bound():
    """The case above the bound that float64 BLAS gets wrong, and exact_matmul does not."""
    top = int_max(26)
    a, b = np.full((1, 9), top), np.full((9, 1), top)   # sum 9 (2^25 - 1)^2 is odd, past 2^53
    assert (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64).tolist() != exact(a, b)
    assert exact_matmul(a, b, top, top).tolist() == exact(a, b)


# (k, n): BLAS calls take at most max(128, 8192 // n) inner terms by 512
# columns by the rows that fit 2^18 multiply-adds. One block for any row
# count, row blocks of 2048, 8192, 256, 16, 8 and 4 rows, 1-column blocks of 32
# whole 8192-term rows or of half rows, and inner or column blocks too
SHAPES = [(1, 1), (4, 32), (32, 1), (32, 32), (128, 128), (8192, 1), (16384, 1), (512, 256),
          (256, 1024)]


def row_block(k, n):
    """The rows of a ``blas_matmul`` block: those of ``n`` columns by equal
    inner blocks of up to ``max(128, 8192 // n)`` terms that fit 2^18."""
    nb = min(n, 512)
    kb = -(-k // -(-k // max(128, 8192 // nb)))
    return (1 << 18) // (kb * nb)


@pytest.mark.parametrize("k, n", SHAPES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_exact_matmul_in_row_blocks(k, n, data):
    step = row_block(k, n)
    m = data.draw(st.sampled_from([1, 2, step - 1, step, step + 1, 3 * step + 1]).filter(
        lambda rows: 1 <= rows <= 800))
    a, b = operands(data, (m, k), 12), operands(data, (k, n), 12)
    assert exact_matmul(a, b, 1 << 11, 1 << 11).tolist() == exact(a, b)


@pytest.mark.parametrize("m, k", [(4096, 8192), (64, (1 << 18) + 1024)])
def test_tall_one_column_products_take_32_rows_a_call(monkeypatch, m, k):
    """A 1-column product runs in calls of at most 2^18 multiply-adds, and each
    takes 32 rows of A: whole rows up to 8192 terms, as one gemv each, and equal
    inner blocks of them past that (here k n passes 2^18). Row ``i`` of A is
    all ``i``, a zero-stride view that costs no memory."""
    calls = []

    def spy(original):
        def product(x, y, *args, **kwargs):
            calls.append(np.shape(x))
            return original(x, y, *args, **kwargs)
        return product

    a = np.broadcast_to(np.arange(m, dtype=np.float64)[:, None], (m, k))
    b = (np.arange(k, dtype=np.float64) % 7 - 3)[:, None]
    for name in ("dot", "matmul"):
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    out = blas_matmul(a, b, np.empty((m, 1)))
    monkeypatch.undo()
    assert out[:, 0].tolist() == (np.arange(m) * b.sum()).tolist()
    assert all(rows == 32 and (cols == k or k > 8192) and rows * cols <= 1 << 18
               for rows, cols in calls)
    assert sum(rows * cols for rows, cols in calls) == m * k


@pytest.mark.parametrize("m, k, n", [(3, 200, 0), (0, 300, 600), (2, 0, 600), (0, 0, 0)])
def test_empty_products(m, k, n):
    """A product with no rows, columns or inner terms is an m x n block of zeros."""
    got = exact_matmul(np.ones((m, k), np.int64), np.ones((k, n), np.int64), 1, 1)
    assert got.dtype == np.int64 and got.shape == (m, n) and not got.any()


def wrap64(values):
    """Nested lists of Python ints, each reduced to signed 64-bit range."""
    return [[(x + (1 << 63)) % (1 << 64) - (1 << 63) for x in row] for row in values]


# (m, k, n): small products, and products with k n past 2^18, which take
# inner, column and row blocks
SHAPES_BY_SIZE = {
    "small": st.tuples(st.integers(1, 5), st.integers(1, 40), st.integers(1, 5)),
    "large": st.sampled_from([(2, 2304, 128), (1, 640, 1024), (3, 1024, 300)]),
}


@pytest.mark.parametrize("size", SHAPES_BY_SIZE)
@pytest.mark.parametrize("width", [8, 30, 53, 60, 63])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_exact_products_match_python_ints_at_any_width(width, size, data):
    """``exact_matmul`` equals the Python-int product modulo 2^64, and
    ``golden_result`` it wrapped, its elements summing to the total modulo
    the output width, at input widths
    from int8 to int64 range, below and past 2^18 multiply-adds a block."""
    m, k, n = data.draw(SHAPES_BY_SIZE[size])
    a, b = operands(data, (m, k), width), operands(data, (k, n), width)
    want = exact(a, b)
    peak = 1 << width - 1
    assert exact_matmul(a, b, peak, peak).tolist() == wrap64(want)
    out_width = data.draw(st.sampled_from([24, 63]))
    golden = golden_result(DenseMatrix(m, k, a), DenseMatrix(k, n, b), out_width)
    half = 1 << out_width - 1
    assert golden.data.tolist() == [[(x + half) % (2 * half) - half for x in row]
                                            for row in want]
    assert (int(golden.data.sum()) - sum(map(sum, want))) % (2 * half) == 0


def test_slice_plan_splits_only_past_the_float64_bound():
    """One slice each while peak_a peak_b terms < 2^53; past it, digits narrow
    enough that terms products of two sum below 2^53, and enough of them to
    hold every operand value (all 64 bits for int64 range)."""
    assert slice_plan(1 << 7, 1 << 7, 2304) == (64, 1, 1)
    assert slice_plan(1 << 26, 1 << 26, 1) == (64, 1, 1)
    assert slice_plan(1 << 26, 1 << 26, 2) == (26, 2, 2)
    assert slice_plan(1 << 7, 1 << 62, 2304) == (21, 1, 4)
    for peak_a, peak_b, terms in ((1 << 29, 1 << 30, 12), (1 << 62, 1 << 63, 1024)):
        width, count_a, count_b = slice_plan(peak_a, peak_b, terms)
        assert terms << 2 * width - 2 < 1 << 53
        assert all(count * width >= min(peak.bit_length() + 2, 64)
                   for peak, count in ((peak_a, count_a), (peak_b, count_b)))
