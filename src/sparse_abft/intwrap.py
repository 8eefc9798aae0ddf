"""Two's-complement arithmetic helpers for width-bounded registers.

Every register in the simulated datapath has a declared bit width and wraps
on overflow. Values are Python/numpy signed integers; these helpers give the
signed range of a width, wrap values into it, split them into signed
digits and multiply matrices exactly.
"""

from __future__ import annotations

import itertools

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


def signed_digit(value, width: int, count: int, k):
    """Signed ``width``-bit digit ``k`` of ``value`` among ``count``, least significant first:
    ``((value + B) >> k width & (2^width - 1)) - 2^(width - 1)``, with the bias ``B = sum(2^(j
    width + width - 1) for j < count)``. ``value`` fits iff ``0 <= value + B < 2^(count width)``;
    else its digits sum to it modulo that, or, with ``B`` taken modulo 2^64, modulo 2^64 for
    int64 values once ``count width >= 64``."""
    biased = np.asarray(value) + wrap(sum(1 << j * width + width - 1 for j in range(count)), 64)
    return (biased >> np.multiply(k, width) & (1 << width) - 1) - (1 << width - 1)


def slice_plan(peak_a: int, peak_b: int, terms: int) -> tuple:
    """``(width, count_a, count_b)``: operands of magnitude at most ``peak_a`` and
    ``peak_b`` as ``count`` signed ``width``-bit digit slices, so that ``terms``
    products of two slices sum exactly in float64 (Ozaki, Ogita, Oishi and Rump,
    Numer. Algorithms 2012); one slice each, the operands, while ``terms peak_a peak_b < 2^53``."""
    if terms * peak_a * peak_b < 1 << 53:
        return 64, 1, 1
    width = (54 - (terms - 1).bit_length()) // 2    # terms 2^(2 width - 2) < 2^53
    # below 2^(bits - 2) a value fits ceil(bits / width) digits; 64 bits reach any int64
    return width, *(-(-min(peak.bit_length() + 2, 64) // width) for peak in (peak_a, peak_b))


def slices(x: np.ndarray, width: int, count: int) -> np.ndarray:
    """``x`` as ``count`` float64 slices, ``(count, *x.shape)``: its signed
    ``width``-bit digits, least significant first, or ``x`` itself for one."""
    k = np.arange(count).reshape(-1, *[1] * x.ndim)
    return (signed_digit(x, width, count, k) if count > 1 else x[None]).astype(np.float64)


def exact_sum(product, a_slices, b_slices, width: int, out: np.ndarray) -> np.ndarray:
    """``out``: the sum in int64, modulo 2^64, of the exact float64 products of slices,
    ``product(a_i, b_j) 2^(width (i + j))``."""
    out[...] = product(a_slices[0], b_slices[0])
    for i, j in itertools.product(range(len(a_slices)), range(len(b_slices))):
        if 0 < (i + j) * width < 64:
            out += product(a_slices[i], b_slices[j]).astype(np.int64) << (i + j) * width
    return out


def blas_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = a @ b`` in float64, in blocks of at most 2^18 multiply-adds, which
    OpenBLAS runs on one thread: ``nb = min(n, 512)`` columns by equal inner blocks
    of up to ``max(128, 2^13 // nb)`` terms by the rows that fit, at least 32 while
    ``nb <= 64``; one ``np.dot`` for a product of one block of at most 128 terms."""
    (m, k), n = a.shape, b.shape[1]
    if (k <= 128 and n <= 512 and m * k * n <= 1 << 18) or not m * k * n:
        return np.dot(a, b, out=out)
    nb = min(n, 512)
    kb = -(-k // -(-k // max(128, (1 << 13) // nb)))
    mb = max((1 << 18) // (kb * nb), 1)
    for i, j in itertools.product(range(0, m, mb), range(0, n, nb)):
        block = np.matmul(a[i:i + mb, :kb], b[:kb, j:j + nb], out=out[i:i + mb, j:j + nb])
        for l in range(kb, k, kb):
            block += np.matmul(a[i:i + mb, l:l + kb], b[l:l + kb, j:j + nb])
    return out


def exact_matmul(a: np.ndarray, b: np.ndarray, peak_a: int, peak_b: int) -> np.ndarray:
    """``a @ b`` of 2-D int64 arrays with ``|a| <= peak_a`` and ``|b| <= peak_b``,
    exact modulo 2^64: ``blas_matmul`` on their ``slice_plan`` slices."""
    width, count_a, count_b = slice_plan(peak_a, peak_b, b.shape[0])
    part = np.empty((len(a), b.shape[1]))
    return exact_sum(lambda x, y: blas_matmul(x, y, part), slices(a, width, count_a),
                     slices(b, width, count_b), width, np.empty(part.shape, np.int64))
