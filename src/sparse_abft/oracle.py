"""Ground-truth matrix multiplication and checksum identities.

The oracle computes with 64-bit intermediates and wraps only at the declared
output width, so it can distinguish the mathematically true product from the
value the architecture produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intwrap import wrap
from .sparsity import DenseMatrix, ShapeError


def matmul_ref(a: DenseMatrix, w_dense: DenseMatrix, out_width: int) -> DenseMatrix:
    """Exact integer product, each element wrapped to out_width bits."""
    if a.cols != w_dense.rows:
        raise ShapeError(f"inner dimensions differ: {a.cols} vs {w_dense.rows}")
    product = a.data @ w_dense.data
    return DenseMatrix(a.rows, w_dense.cols, wrap(product, out_width))


def checksum_identity(a: DenseMatrix, w_dense: DenseMatrix):
    """Both sides of the output-checksum identity, over unbounded integers.

    Returns (sum of all product elements, dot(colsum(A), rowsum(W)), equal).
    """
    if a.cols != w_dense.rows:
        raise ShapeError(f"inner dimensions differ: {a.cols} vs {w_dense.rows}")
    total = int((a.data @ w_dense.data).sum())
    colsum_a = a.data.sum(axis=0)
    rowsum_w = w_dense.data.sum(axis=1)
    dot = int(colsum_a @ rowsum_w)
    return total, dot, total == dot


@dataclass(frozen=True)
class GoldenResult:
    """Everything a campaign needs to judge a faulty run."""

    product: DenseMatrix        # wrapped at the architectural output width
    total_checksum: int         # unbounded sum of all product elements


def golden_result(a: DenseMatrix, w_dense: DenseMatrix, out_width: int) -> GoldenResult:
    product = matmul_ref(a, w_dense, out_width)
    total, dot, equal = checksum_identity(a, w_dense)
    assert equal, "checksum identity must hold over unbounded integers"
    return GoldenResult(product=product, total_checksum=total)
