"""Two's-complement arithmetic helpers for width-bounded registers.

Every register in the simulated datapath has a declared bit width and wraps
on overflow. Values are carried as Python/numpy signed integers; these
helpers give the signed range of a width and wrap values into it.
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
