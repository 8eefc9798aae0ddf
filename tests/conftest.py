"""Shared fixtures: the worked 2x4 example, random workload helpers and
targeted fault populations."""

from __future__ import annotations

import numpy as np
import pytest

from sparse_abft import (
    ArrayConfig,
    DenseMatrix,
    FaultSpec,
    SparsityPattern,
    StructuredSparseMatrix,
    enumerate_registers,
    prune_magnitude,
)
from sparse_abft.intwrap import wrap
from sparse_abft.registers import RegisterId, RegKind


@pytest.fixture
def tiny_cfg():
    """1x2 array: one PE row of four lanes, two output columns."""
    return ArrayConfig(rows=1, cols=2)


@pytest.fixture
def worked_example(tiny_cfg):
    """A = [[1,2,3,4],[5,6,7,8]], W columns (1@0, -1@2) and (2@1, 3@3).

    Product is [[-2, 16], [-2, 36]]; both checksum sides equal 48.
    """
    a = as_dense([[1, 2, 3, 4], [5, 6, 7, 8]])
    w_dense = as_dense([[1, 0], [0, 2], [-1, 0], [0, 3]])
    w = StructuredSparseMatrix(tiny_cfg.pattern, w_dense)
    return tiny_cfg, a, w_dense, w


def as_dense(values) -> DenseMatrix:
    """The DenseMatrix of a 2-D array or nested list."""
    data = np.asarray(values, dtype=np.int64)
    return DenseMatrix(*data.shape, data)


def zero_dense(rows: int, cols: int) -> DenseMatrix:
    return DenseMatrix(rows, cols, np.zeros((rows, cols), dtype=np.int64))


def packed_block(sw, block_row: int, col: int):
    """(mask, values, indexes) of one block of a packed matrix, trimmed to
    its stored entries."""
    k = int(sw.counts[block_row, col])
    return (int(sw.masks[block_row, col]), sw.values[block_row, col, :k].tolist(),
            sw.indexes[block_row, col, :k].tolist())


def random_inputs(rng: np.random.Generator, rows: int, k: int, width: int = 8) -> DenseMatrix:
    lo = -(1 << width - 1)
    hi = (1 << width - 1) - 1
    return DenseMatrix(rows, k, rng.integers(lo, hi + 1, size=(rows, k)))


def random_weights(rng: np.random.Generator, k: int, cols: int, pattern: SparsityPattern,
                   width: int = 8):
    """Pruned weights with |w| <= 2^(width-1) - 1, inside the overflow envelope."""
    hi = (1 << width - 1) - 1
    dense = DenseMatrix(k, cols, rng.integers(-hi, hi + 1, size=(k, cols)))
    return prune_magnitude(dense, pattern)


def loop_digits(value, digit_count, digit_width):
    """Signed digits of an int or an int64 array, least-significant first,
    the top digit wrapping: the former loop form of the digit rule, kept as
    the reference of ``CheckerState.digit_wave``."""
    digits = []
    remaining = value if isinstance(value, np.ndarray) else int(value)
    for _ in range(digit_count - 1):
        digit = wrap(remaining, digit_width)
        digits.append(digit)
        remaining = (remaining - digit) >> digit_width
    digits.append(wrap(remaining, digit_width))
    return digits


def random_faults(rng, cfg, window, count, kinds=tuple(RegKind)):
    """``count`` faults over ``[0, window)``, each on a register of a random kind."""
    by_kind = {}
    for reg, width in enumerate_registers(cfg).entries:
        by_kind.setdefault(reg.kind, []).append((reg, width))
    kinds = [k for k in kinds if k in by_kind]
    faults = []
    for _ in range(count):
        entries = by_kind[kinds[rng.integers(len(kinds))]]
        reg, width = entries[rng.integers(len(entries))]
        faults.append(FaultSpec(int(rng.integers(window)), reg, int(rng.integers(width))))
    return faults


# ----------------------------------------------------------------------
# targeted fault populations for the silent-fault mechanism checks

def silent_pipe_targets(cfg: ArrayConfig, w_tile) -> list:
    """Input-pipe registers whose lane is never selected at or east of them.

    A flip there rides the bundle east but no multiplexer ever picks the
    lane, so it cannot reach any partial sum or checksum.
    """
    # selected[r, c, lane]: some stored weight of PE (r, c) reads the lane;
    # stored values are never zero and unused slots always are
    selected = ((w_tile.indexes[..., None] == np.arange(cfg.pattern.m))
                & (w_tile.values != 0)[..., None]).any(axis=2)
    col_index = np.arange(cfg.cols)
    last_selected = np.where(selected, col_index[:, None], -1).max(axis=1)   # (rows, m)
    rows, lanes, cols = np.nonzero(col_index > last_selected[:, :, None])
    return [RegisterId(RegKind.INPUT_PIPE, r, c, lane)
            for r, lane, c in zip(rows.tolist(), lanes.tolist(), cols.tolist())]


def idle_slot_registers(cfg: ArrayConfig) -> list:
    """Weight/index slots beyond the active pattern (idle in 1:4 mode)."""
    regs = []
    for r in range(cfg.rows):
        for c in range(cfg.cols):
            for j in range(cfg.pattern.n, cfg.slots):
                regs.append(RegisterId(RegKind.WEIGHT, r, c, j))
                if cfg.index_width > 0:
                    regs.append(RegisterId(RegKind.INDEX, r, c, j))
    return regs
