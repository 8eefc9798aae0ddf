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


def wrap(value, width: int):
    """Wrap an integer (or ndarray) into signed two's-complement range.

    Works on Python ints and int64 ndarrays alike; the bias-and-mask form
    keeps numpy from tripping over negative operands of ``&``.
    """
    bias = 1 << (width - 1)
    mask = (1 << width) - 1
    return ((value + bias) & mask) - bias


def check_ndarray_width(data: np.ndarray, width: int, what: str = "element") -> None:
    """Raise if any array element falls outside signed w-bit range."""
    lo, hi = int_min(width), int_max(width)
    if data.size and (data.min() < lo or data.max() > hi):
        bad = data[(data < lo) | (data > hi)].flat[0]
        raise ValueError(f"{what} {bad} outside signed {width}-bit range [{lo}, {hi}]")


def exact_matmul(a: np.ndarray, b: np.ndarray, peak: int) -> np.ndarray:
    """``a @ b`` of 2-D int64 arrays, given ``peak >= max |a_ik * b_kj|``: in
    float64 BLAS while ``peak * k < 2^53`` keeps it exact, in calls of at most
    2^18 multiply-adds (one OpenBLAS thread), else in int64, exact mod 2^64."""
    k, n = b.shape
    if peak * k >= 1 << 53 or k * n > 1 << 18 or (n == 1 and k > 10_000):
        return a @ b
    step, b = (1 << 18) // max(k * n, 1), b.astype(np.float64)
    out = np.empty((len(a), n), dtype=np.int64)
    for lo in range(0, len(a), step):
        out[lo:lo + step] = a[lo:lo + step].astype(np.float64) @ b
    return out
