"""Ground-truth matrix multiplication and checksum identities.

The oracle computes the true product and wraps it only at the declared output
width. Its product is ``intwrap.exact_matmul``'s: float64 BLAS in one-thread
blocks of at most 2^18 multiply-adds, over the operands while ``max|A| max|W|
k < 2^53`` keeps every partial sum an exact float64, else over signed-digit
slices recombined in int64, exact modulo ``2^64``. Before wrapping, the
product's int64 sum must equal ``dot(colsum(A), rowsum(W))`` in int64: both
sides are exact modulo ``2^64``.
"""

from __future__ import annotations

from .intwrap import exact_matmul, wrap
from .sparsity import DenseMatrix, ShapeError


def golden_result(a: DenseMatrix, w_dense: DenseMatrix, out_width: int) -> DenseMatrix:
    """The product wrapped at ``out_width`` bits, after checking the
    output-checksum identity: the product's elements sum to
    dot(colsum(A), rowsum(W)) modulo 2^64, the modulus the product is exact to."""
    if a.cols != w_dense.rows:
        raise ShapeError(f"inner dimensions differ: {a.cols} vs {w_dense.rows}")
    a_data, w_data = a.data, w_dense.data
    peak_a, peak_w = (max(int(x.max(initial=0)), -int(x.min(initial=0))) for x in (a_data, w_data))
    product = exact_matmul(a_data, w_data, peak_a, peak_w)
    if product.sum() != a_data.sum(axis=0) @ w_data.sum(axis=1):   # kept under python -O
        raise RuntimeError("checksum identity must hold modulo 2^64")
    return DenseMatrix(a.rows, w_dense.cols, wrap(product, out_width), owned=True)


def matmul_ref(a: DenseMatrix, w_dense: DenseMatrix, out_width: int) -> DenseMatrix:
    """Exact integer product, each element wrapped to out_width bits: ``golden_result``'s."""
    return golden_result(a, w_dense, out_width)
