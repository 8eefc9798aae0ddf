"""Full multiplication runs: tile sequencing on one simulator instance.

The cycle counter runs continuously across tiles (weight reloads between
tiles are instantaneous and outside the active window), so a fault cycle
sampled over the whole run lands in whichever tile owns that cycle. Array
and checker registers are deliberately not reset between tiles: the drain
bubbles flush them naturally, and late-drain corruption survives into the
next tile exactly as it would in hardware.

Faulty runs of one workload can share a ``Reference``: its tile operands and
one fault-free run. The engine is deterministic, so from an equal state, on
equal inputs and with no fault, a run repeats the reference exactly: where
it is ``SimState.in_step`` with the reference, ``run_tile`` has it ``take``
the reference's state at the end of the whole tile, or else of each round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArrayConfig
from .intwrap import check_ndarray_width, wrap
from .registers import enumerate_registers
from .sparsity import DenseMatrix, ShapeError, StructuredSparseMatrix
from .systolic import SimState, check_reference, tile_active_cycles
from .tiling import tile_plan


@dataclass
class RunResult:
    outputs: DenseMatrix
    rounds: list
    total_cycles: int

    @property
    def flagged(self) -> bool:
        return any(r.flag for r in self.rounds)


@dataclass(frozen=True)
class Reference:
    """A workload, its tile operands and its fault-free run on them: per tile,
    outputs, rounds, bottom-row sums and the state after each round."""

    inputs: tuple       # (cfg, A, W) it ran on
    operands: list      # (Tile, A slice, packed W tile) of each tile, in run order
    results: list       # TileResult of each tile, with its states kept


def total_active_cycles(cfg: ArrayConfig, a_rows: int, k: int, cols: int) -> int:
    """Length of the fault-injection window for a full multiplication."""
    plan = tile_plan(a_rows, k, cols, cfg)
    return len(plan.tiles) * tile_active_cycles(cfg, a_rows)


def _padded(data: np.ndarray, rows: int, cols: int) -> DenseMatrix:
    out = np.zeros((rows, cols), dtype=np.int64)
    out[: data.shape[0], : data.shape[1]] = data
    return DenseMatrix(rows, cols, out, owned=True)


def tile_operands(cfg: ArrayConfig, a: DenseMatrix, w: StructuredSparseMatrix) -> list:
    """``(tile, A slice, packed W tile)`` of each tile, zero-padded; one A slice per inner chunk."""
    if w.pattern != cfg.pattern:
        raise ShapeError(f"weight pattern {w.pattern} != array pattern {cfg.pattern}")
    if a.cols != w.rows:
        raise ShapeError(f"inner dimensions differ: A has {a.cols}, W has {w.rows}")
    check_ndarray_width(a.data, cfg.input_width, "matrix element")
    tiles = tile_plan(a.rows, a.cols, w.cols, cfg).tiles
    if (a.cols, w.cols) == (cfg.tile_k, cfg.cols):   # one tile, nothing to pad
        return [(tiles[0], a, w)]
    chunks = {t.k_range: _padded(a.data[:, slice(*t.k_range)], a.rows, cfg.tile_k) for t in tiles}
    return [(t, chunks[t.k_range], StructuredSparseMatrix(cfg.pattern, _padded(
        w.dense.data[slice(*t.k_range), slice(*t.col_range)], cfg.tile_k, cfg.cols)))
        for t in tiles]


def reference_run(cfg: ArrayConfig, a: DenseMatrix, w: StructuredSparseMatrix) -> Reference:
    """The fault-free run, its states kept round by round, that faulty runs of
    ``A W`` reuse (module docstring)."""
    operands, state = tile_operands(cfg, a, w), SimState(cfg)
    results = [state.run_tile(a_tile, w_tile, keep=True) for _, a_tile, w_tile in operands]
    return Reference((cfg, a, w), operands, results)


def run_multiplication(
    cfg: ArrayConfig,
    a: DenseMatrix,
    w: StructuredSparseMatrix,
    faults=(),
    watch=None,
    trace_sink=None,
    reference: Reference | None = None,
) -> RunResult:
    """Run C = A W on the simulated array, tile by tile.

    Outputs of tiles sharing output columns (inner-dimension chunks) are
    accumulated host-side with wraparound at the column output width, which
    is congruent to the single-pass architectural result. A fault before the
    first or past the last active cycle would never fire, a watched register
    the array lacks could never be read and a watch list with no trace sink
    would be written nowhere, so each raises ValueError before any cycle.
    A traced run clocks every cycle; others take the tiles and rounds no fault
    reaches from ``reference``, the ``reference_run`` (which checks them) of
    cfg, A, W; a reference run on other inputs raises ValueError.
    """
    check_reference(reference, cfg, a, w)
    reuse = reference is not None and not watch
    operands = reference.operands if reuse else tile_operands(cfg, a, w)
    window = total_active_cycles(cfg, a.rows, a.cols, w.cols)
    faults = list(faults)
    for spec in faults:
        if not 0 <= spec.cycle < window:
            raise ValueError(f"fault at cycle {spec.cycle} would never fire: "
                             f"the run has {window} active cycles")
    for reg in watch or ():
        enumerate_registers(cfg).width_of(reg)
    if watch and trace_sink is None:
        raise ValueError("a watch list needs a trace_sink to write its trace to")
    state = SimState(cfg)
    if watch:
        state.watch, state.trace_sink = list(watch), trace_sink
    state.schedule_faults(faults)

    result = np.empty((a.rows, w.cols), dtype=np.int64)
    for i, (tile, a_tile, w_tile) in enumerate(operands):
        c_lo, c_hi = tile.col_range
        part = state.run_tile(a_tile, w_tile, reference.results[i] if reuse else None).outputs.data
        if tile.k_range[0]:   # chunk 0, first in the plan, is copied: wrapped already
            part = wrap(result[:, c_lo:c_hi] + part[:, : c_hi - c_lo], cfg.col_out_width)
        result[:, c_lo:c_hi] = part[:, : c_hi - c_lo]
    return RunResult(DenseMatrix(a.rows, w.cols, result, owned=True), state.round_results,
                     state.cycle)
