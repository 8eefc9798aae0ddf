import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_abft import DenseMatrix, golden_result, oracle
from sparse_abft.intwrap import slice_plan, wrap
from sparse_abft.oracle import matmul_ref
from sparse_abft.sparsity import ShapeError

from conftest import as_dense, zero_dense


def python_dot(a, w):
    """dot(colsum(A), rowsum(W)) in Python ints: the identity's other side."""
    return sum(sum(int(x) for x in a.data[:, j]) * sum(int(x) for x in w.data[j])
               for j in range(a.cols))


def test_worked_example(worked_example):
    _, a, w_dense, _ = worked_example
    assert matmul_ref(a, w_dense, 24).data.tolist() == [[-2, 16], [-2, 36]]
    assert int(golden_result(a, w_dense, 24).data.sum()) == python_dot(a, w_dense) == 48


def test_identity_matrix():
    a = as_dense(np.eye(4, dtype=np.int64))
    w = as_dense([[1, 2], [3, 4], [5, 6], [7, 8]])
    assert matmul_ref(a, w, 24) == w


def test_zero_weights():
    a = as_dense([[1, 2], [3, 4]])
    assert matmul_ref(a, zero_dense(2, 3), 24) == zero_dense(2, 3)
    z = zero_dense(2, 2)
    assert int(golden_result(z, z, 24).data.sum()) == python_dot(z, z) == 0


def test_wraparound_at_out_width():
    a = as_dense([[127] * 64])
    w = as_dense([[127]] * 64)
    true_value = 64 * 127 * 127  # 1032256, fits 24 bits
    assert matmul_ref(a, w, 24).data[0, 0] == true_value
    assert matmul_ref(a, w, 16).data[0, 0] == ((true_value + 2**15) % 2**16) - 2**15


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul_ref(zero_dense(2, 3), zero_dense(4, 2), 24)
    with pytest.raises(ShapeError):
        golden_result(zero_dense(2, 3), zero_dense(4, 2), 24)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_identity_holds_on_random_pairs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    a = DenseMatrix(n, 16, rng.integers(-128, 128, size=(n, 16)))
    w = DenseMatrix(16, 16, rng.integers(-128, 128, size=(16, 16)))
    total = int(golden_result(a, w, 24).data.sum())
    assert total == python_dot(a, w)
    # recompute one side with plain Python arithmetic as a second opinion
    slow = sum(
        int(a.data[i, j]) * int(w.data[j, c])
        for i in range(a.rows) for j in range(16) for c in range(16)
    )
    assert slow == total


def test_totals_past_int64_are_exact():
    """The true total is 2^70 + 15: both int64 sides of the identity wrap to
    15, so they agree modulo 2^64, and the product wraps to 15 at 24 bits."""
    a = as_dense([[2**40, 3]])
    w = as_dense([[2**30], [5]])
    assert python_dot(a, w) == 2**70 + 15
    assert golden_result(a, w, 24).data.tolist() == [[15]]


def signed_operands(bits, m=4, k=8, n=3):
    """An m x k A and a k x n W of random signed ``bits``-bit values."""
    rng = np.random.default_rng(bits)
    lo, hi = -(1 << bits - 1), 1 << bits - 1
    return (DenseMatrix(m, k, rng.integers(lo, hi, size=(m, k))),
            DenseMatrix(k, n, rng.integers(lo, hi, size=(k, n))))


@pytest.mark.parametrize("bits", [40, 62])
def test_total_matches_brute_force_on_wide_operands(bits):
    """Past ``max(rows, cols) peak = 2^63`` the column and row sums wrap in
    int64; the identity holds modulo 2^64 and every product element is the
    brute-force sum, wrapped at the output width."""
    a, w = signed_operands(bits)
    brute = [[sum(int(a.data[i, j]) * int(w.data[j, c]) for j in range(8)) for c in range(3)]
             for i in range(4)]
    golden = golden_result(a, w, 63)
    assert golden.data.tolist() == [[wrap(x, 63) for x in row] for row in brute]
    assert (int(golden.data.sum()) - python_dot(a, w)) % (1 << 63) == 0


@pytest.mark.parametrize("bits", [7, 40])
def test_wrong_product_raises_at_any_operand_width(monkeypatch, bits):
    """The identity checks the int64 product ``golden_result`` returns, so a
    product one off in every element raises however wide the operands, and
    also where k n is past 2^18 and the product takes blocks: there every
    float64 BLAS call is at most 2^18 multiply-adds, and together they do
    each slice pair's whole product."""
    true_product = oracle.exact_matmul
    sizes = []

    def spy(original):
        def product(x, y, *args, **kwargs):
            if np.ndim(x) == np.ndim(y) == 2 and np.result_type(x, y) == np.float64:
                sizes.append(x.shape[0] * x.shape[1] * y.shape[1])
            return original(x, y, *args, **kwargs)
        return product

    monkeypatch.setattr(oracle, "exact_matmul", lambda *args: true_product(*args) + 1)
    for name in ("dot", "matmul"):
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    for shape in ((4, 8, 3), (20, 2304, 256)):
        a, w = signed_operands(bits, *shape)
        sizes.clear()
        with pytest.raises(RuntimeError, match="checksum identity must hold"):
            golden_result(a, w, 24)
    width, count_a, count_w = slice_plan(1 << bits - 1, 1 << bits - 1, a.cols)
    pairs = sum((i + j) * width < 64 for i in range(count_a) for j in range(count_w))
    assert pairs == (1 if bits == 7 else 4)
    assert sizes and max(sizes) <= 1 << 18
    assert sum(sizes) == pairs * a.rows * a.cols * w.cols


def test_matmul_ref_checks_the_identity(monkeypatch):
    """``matmul_ref`` is ``golden_result``'s product, so a wrong product raises
    there too instead of becoming the reference a run is compared with."""
    a, w = signed_operands(7)
    assert matmul_ref(a, w, 24) == golden_result(a, w, 24)
    true_product = oracle.exact_matmul
    monkeypatch.setattr(oracle, "exact_matmul", lambda *args: true_product(*args) + 1)
    with pytest.raises(RuntimeError, match="checksum identity must hold"):
        matmul_ref(a, w, 24)


def test_product_past_the_float64_bound_is_exact():
    """3 (2^26 + 1)^2 is odd and above 2^53, where float64 rounds; one below it is not."""
    for value, k in ((2**26 + 1, 3), (2**26 - 1, 2)):
        a = as_dense([[value] * k])
        w = as_dense([[-value]] * k)
        assert matmul_ref(a, w, 63).data[0, 0] == -k * value**2


def test_golden_result_fields(worked_example):
    _, a, w_dense, _ = worked_example
    g = golden_result(a, w_dense, 24)
    assert isinstance(g, DenseMatrix) and (g.rows, g.cols) == (2, 2)
    assert g.data.tolist() == [[-2, 16], [-2, 36]] and int(g.data.sum()) == 48


# a wrong golden product: one added to every element of a product; prints
# the optimize flag, whether 40-bit operands raised, then, if small ones do
# not raise, the wrong total (138, the true one is 134)
WRONG_PRODUCT = """
import sys
import numpy as np
from sparse_abft import DenseMatrix, golden_result, oracle

true_product = oracle.exact_matmul
oracle.exact_matmul = lambda *args: true_product(*args) + 1
a = DenseMatrix(2, 2, np.array([[1, 2], [3, 4]]))
w = DenseMatrix(2, 2, np.array([[5, 6], [7, 8]]))
print(sys.flags.optimize, flush=True)
try:
    golden_result(DenseMatrix(2, 2, a.data << 35), DenseMatrix(2, 2, w.data << 35), 24)
except RuntimeError:
    print("40-bit operands raised", flush=True)
print(golden_result(a, w, 24).data.sum())
"""


def test_identity_check_survives_python_O(tmp_path):
    """Under ``python -O`` a golden product that breaks the checksum identity
    still raises, at 40-bit operands too, instead of giving a plausible
    wrong product."""
    script = tmp_path / "wrong_product.py"
    script.write_text(WRONG_PRODUCT)
    src = str(pathlib.Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stdout.splitlines() == ["1", "40-bit operands raised"], done.stdout
    assert done.returncode != 0
    assert "checksum identity must hold modulo 2^64" in done.stderr
