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
    enumerate_registers,
    pack,
    prune_magnitude,
)
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
    a = DenseMatrix.from_array([[1, 2, 3, 4], [5, 6, 7, 8]])
    w_dense = DenseMatrix.from_array([[1, 0], [0, 2], [-1, 0], [0, 3]])
    w = pack(w_dense, tiny_cfg.pattern)
    return tiny_cfg, a, w_dense, w


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


def random_faults(rng, cfg, window, count, kinds=tuple(RegKind)):
    """``count`` faults over ``[0, window)``, each on a register of a random kind."""
    by_kind = {}
    for entry in enumerate_registers(cfg).entries:
        by_kind.setdefault(entry.reg.kind, []).append(entry)
    kinds = [k for k in kinds if k in by_kind]
    faults = []
    for _ in range(count):
        entries = by_kind[kinds[rng.integers(len(kinds))]]
        entry = entries[rng.integers(len(entries))]
        faults.append(FaultSpec(int(rng.integers(window)), entry.reg,
                                int(rng.integers(entry.width_bits))))
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
