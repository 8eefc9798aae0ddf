"""Two's-complement arithmetic helpers for width-bounded registers.

Every register in the simulated datapath has a declared bit width and wraps
on overflow. Values are Python/numpy signed integers; these helpers give the
signed range of a width, wrap values into it and multiply matrices exactly.
"""

from __future__ import annotations

import numpy as np


def int_min(width: int) -> int:
    return -(1 << (width - 1))


def int_max(width: int) -> int:
    return (1 << (width - 1)) - 1


def wrap(value, width: int, out=None):
    """Wrap an integer (or ndarray, into ``out`` or its one temporary) into
    signed two's-complement range; the bias-and-mask form keeps numpy from
    tripping over negative operands of ``&``."""
    out = value + (1 << width - 1) if out is None else np.add(value, 1 << width - 1, out=out)
    out &= (1 << width) - 1
    out -= 1 << width - 1
    return out


def check_ndarray_width(data: np.ndarray, width: int, what: str = "element") -> None:
    """Raise if any array element falls outside signed w-bit range."""
    lo, hi = int_min(width), int_max(width)
    if data.size and (data.min() < lo or data.max() > hi):
        bad = data[(data < lo) | (data > hi)].flat[0]
        raise ValueError(f"{what} {bad} outside signed {width}-bit range [{lo}, {hi}]")


def float64_exact(peak: int, terms: int, seed: int = 0) -> bool:
    """Whether float64 sums a value up to ``seed`` and ``terms`` products up to ``peak`` exactly."""
    return seed + terms * peak < 1 << 53


def blas_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = a @ b`` in float64, in row blocks of at most 2^18 multiply-adds (one
    thread): one ``np.dot`` when the whole product fits in one block."""
    step = max((1 << 18) // max(b.size, 1), 1)
    if len(a) <= step:
        return np.dot(a, b, out=out)
    for lo in range(0, len(a), step):
        np.dot(a[lo:lo + step], b, out=out[lo:lo + step])
    return out


def exact_matmul(a: np.ndarray, b: np.ndarray, peak: int) -> np.ndarray:
    """``a @ b`` of 2-D int64 arrays, given ``peak >= max |a_ik * b_kj|``: by
    ``blas_matmul`` while ``float64_exact(peak, k)``, else in int64, exact mod 2^64."""
    k, n = b.shape
    if not float64_exact(peak, k) or k * n > 1 << 18 or (n == 1 and k > 10_000):
        return a @ b
    return blas_matmul(a.astype(float), b.astype(float), np.empty((len(a), n))).astype(np.int64)
