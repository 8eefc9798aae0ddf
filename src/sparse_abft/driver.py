"""Full multiplication runs: tile sequencing on one simulator instance.

The cycle counter runs continuously across tiles (weight reloads between
tiles are instantaneous and outside the active window), so a fault cycle
sampled over the whole run lands in whichever tile owns that cycle. Array
and checker registers are deliberately not reset between tiles: the drain
bubbles flush them naturally, and late-drain corruption survives into the
next tile exactly as it would in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArrayConfig
from .intwrap import wrap
from .registers import enumerate_registers
from .sparsity import DenseMatrix, ShapeError, StructuredSparseMatrix
from .systolic import SimState, tile_active_cycles
from .tiling import Tile, tile_plan


@dataclass
class RunResult:
    outputs: DenseMatrix
    rounds: list
    flagged: bool
    total_cycles: int


def total_active_cycles(cfg: ArrayConfig, a_rows: int, k: int, cols: int) -> int:
    """Length of the fault-injection window for a full multiplication."""
    plan = tile_plan(a_rows, k, cols, cfg)
    return len(plan.tiles) * tile_active_cycles(cfg, a_rows)


def _slice_a_tile(a: DenseMatrix, tile: Tile, cfg: ArrayConfig) -> DenseMatrix:
    k_lo, k_hi = tile.k_range
    data = np.zeros((a.rows, cfg.tile_k), dtype=np.int64)
    data[:, : k_hi - k_lo] = a.data[:, k_lo:k_hi]
    return DenseMatrix(a.rows, cfg.tile_k, data)


def _slice_w_tile(w: StructuredSparseMatrix, tile: Tile, cfg: ArrayConfig) -> StructuredSparseMatrix:
    k_lo, k_hi = tile.k_range
    c_lo, c_hi = tile.col_range
    data = np.zeros((cfg.tile_k, cfg.cols), dtype=np.int64)
    data[: k_hi - k_lo, : c_hi - c_lo] = w.dense.data[k_lo:k_hi, c_lo:c_hi]
    return StructuredSparseMatrix(cfg.pattern, DenseMatrix(cfg.tile_k, cfg.cols, data))


def run_multiplication(
    cfg: ArrayConfig,
    a: DenseMatrix,
    w: StructuredSparseMatrix,
    faults=(),
    watch=None,
    trace_sink=None,
) -> RunResult:
    """Run C = A W on the simulated array, tile by tile.

    Outputs of tiles sharing output columns (inner-dimension chunks) are
    accumulated host-side with wraparound at the column output width, which
    is congruent to the single-pass architectural result. A fault past the
    last active cycle would never fire and a watched register the array
    lacks could never be read, so both raise ValueError before any cycle.
    """
    if w.pattern != cfg.pattern:
        raise ShapeError(f"weight pattern {w.pattern} != array pattern {cfg.pattern}")
    if a.cols != w.rows:
        raise ShapeError(f"inner dimensions differ: A has {a.cols}, W has {w.rows}")
    a.check_width(cfg.input_width)

    plan = tile_plan(a.rows, a.cols, w.cols, cfg)
    window = total_active_cycles(cfg, a.rows, a.cols, w.cols)
    faults = list(faults)
    for spec in faults:
        if spec.cycle >= window:
            raise ValueError(f"fault at cycle {spec.cycle} would never fire: "
                             f"the run has {window} active cycles")
    for reg in watch or ():
        enumerate_registers(cfg).width_of(reg)
    state = SimState(cfg)
    if watch:
        state.watch = list(watch)
        state.trace_sink = trace_sink
    state.schedule_faults(faults)

    result = np.zeros((a.rows, w.cols), dtype=np.int64)
    rounds = []
    for tile in plan.tiles:
        a_tile = _slice_a_tile(a, tile, cfg)
        w_tile = _slice_w_tile(w, tile, cfg)
        tile_res = state.run_tile(a_tile, w_tile)
        c_lo, c_hi = tile.col_range
        result[:, c_lo:c_hi] = wrap(
            result[:, c_lo:c_hi] + tile_res.outputs.data[:, : c_hi - c_lo],
            cfg.col_out_width,
        )
        rounds.extend(tile_res.rounds)

    return RunResult(
        outputs=DenseMatrix(a.rows, w.cols, result),
        rounds=rounds,
        flagged=any(r.flag for r in rounds),
        total_cycles=state.cycle,
    )
