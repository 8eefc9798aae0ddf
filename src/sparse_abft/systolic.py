"""Cycle-accurate weight-stationary sparse tensor array.

Timing model
------------
All registers update synchronously once per clock edge; combinational logic
reads the values latched at the previous edge. The chosen latency constants
(any consistent set preserves functional results, this one is the contract
for reproducible fault placement):

* input bundles hop one column east per cycle, partial sums hop one row
  south per cycle;
* a wave presented at the west edge on cycle ``p`` reaches PE row ``r`` on
  cycle ``p + r`` (skewed arrival, realized by the feeder);
* PE (r, c) computes with that wave on cycle ``p + r + c + 1`` and its
  bottom-of-column result for column ``c`` is live on cycle ``p + R + c + 1``,
  which is when it is captured as an output (data waves) and fed to the OC
  chain;
* the OC chain output for the wave reaches the corner accumulators on cycle
  ``p + R + C + 1``.

Wave schedule
-------------
A "wave" is either one data row of the input matrix or one checksum digit
row. Waves are presented back to back: after every ``rows_per_round`` data
rows (and at end of tile) the feeder switches to the ``digits_per_round``
digit waves of the finished round, then streaming resumes immediately. Only
the end of a tile appends ``R + C + 1`` bubble cycles to flush the pipeline.

Which wave is presented on which cycle depends only on the configuration and
the tile's row count, so ``wave_schedule`` computes it once per tile. Before
the first edge, ``run_tile`` derives every per-cycle input of the one clock
path ``_clock`` from it: the west bundles, the data and last-digit row
masks, the corner tags and the trace labels. Outputs are captured by one
scatter of the recorded bottom-row partial sums after the last edge. Digit
bundles alone are read while clocking, from the IC accumulators as they
stand when the wave enters a row, so a fault there reaches the digits.

Wave identities (which cycle carries which row) are scheduler bookkeeping,
not architectural state, so they are not fault-injectable; every register
that holds data is, via its RegisterId.

Faults scheduled at cycle ``T`` are applied right after cycle ``T``'s edge:
the corrupted value is what cycle ``T + 1`` reads. Weight loading is modeled
as instantaneous and happens outside the cycle count, matching a fault model
that only targets the compute/checksum phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checker import CheckerState
from .config import ArrayConfig
from .intwrap import check_ndarray_width, wrap
from .registers import RegisterId, RegKind, enumerate_registers
from .sparsity import DenseMatrix, ShapeError, StructuredSparseMatrix


class StateError(RuntimeError):
    """Operation incompatible with the simulator's state (inputs before any weights)."""


@dataclass(frozen=True)
class TpeState:
    """Snapshot of one tensor PE's registers."""

    weights: tuple
    indexes: tuple
    input_pipe: tuple
    psum: int


@dataclass
class TileResult:
    outputs: DenseMatrix
    rounds: list


def wave_schedule(cfg: ArrayConfig, a_rows: int):
    """The wave presented at the west edge on each cycle of one tile.

    Returns ``(data, digit)``, one entry per cycle: the input row of a data
    wave and the digit index of a checksum digit wave, ``-1`` where the
    cycle carries neither (the closing flush bubbles).
    """
    t, d = cfg.rows_per_round, cfg.digits_per_round
    rounds = -(-a_rows // t)
    cycles = a_rows + rounds * d + cfg.rows + cfg.cols + 1
    data = np.full(cycles, -1, dtype=np.int64)
    digit = np.full(cycles, -1, dtype=np.int64)
    rows = np.arange(a_rows)
    data[rows + rows // t * d] = rows
    # the digit waves of round q follow its last row and q earlier rounds' digits
    round_ends = np.minimum(np.arange(1, rounds + 1) * t, a_rows)
    digit[(round_ends + np.arange(rounds) * d)[:, None] + np.arange(d)] = np.arange(d)
    return data, digit


def tile_active_cycles(cfg: ArrayConfig, a_rows: int) -> int:
    """Cycles one tile occupies: all waves plus the pipeline flush."""
    return len(wave_schedule(cfg, a_rows)[0])


def _lagged(waves: np.ndarray, lags) -> np.ndarray:
    """``waves[t - lag]`` for every cycle ``t`` (rows) and lag (columns);
    ``-1`` where that reaches before the tile's first cycle."""
    at = np.arange(len(waves))[:, None] - np.asarray(lags)
    return np.where(at >= 0, waves[at], -1)


class SimState:
    """Every register of the array and checker, plus scheduler bookkeeping."""

    def __init__(self, cfg: ArrayConfig):
        self.cfg = cfg
        self.cycle = 0

        m, slots = cfg.pattern.m, cfg.slots
        self.weights = np.zeros((cfg.rows, cfg.cols, slots), dtype=np.int64)
        self.indexes = np.zeros((cfg.rows, cfg.cols, slots), dtype=np.int64)
        self.pipe = np.zeros((cfg.rows, cfg.cols, m), dtype=np.int64)
        self.psum = np.zeros((cfg.rows, cfg.cols), dtype=np.int64)
        self.checker = CheckerState(cfg)
        # an index register can encode lanes past m-1 when m is not a power
        # of two; those selections wrap around like a mux with tied inputs
        self._lane_wraps = (1 << cfg.index_width) > m
        self._row_grid = np.arange(cfg.rows)[:, None, None]
        self._col_grid = np.arange(cfg.cols)[None, :, None]

        self.loaded = False
        self._loaded_tile = None
        self.round_results: list = []
        self.pending_faults: dict = {}   # cycle -> [FaultSpec]

        self.watch: list[RegisterId] = []
        self.trace_sink = None

    # ------------------------------------------------------------------
    # register access

    def _storage(self, reg: RegisterId):
        """(array, index, width) of one register.

        The corner accumulators are checker attributes and come back as
        ``(None, attribute name, width)``. The width comes from the register
        table, which raises ValueError for registers this array lacks.
        """
        width = enumerate_registers(self.cfg).width_of(reg)
        k, ck = reg.kind, self.checker
        if k is RegKind.PSUM:
            return self.psum, (reg.row, reg.col), width
        if k is RegKind.IC_ACC:
            return ck.ic, (reg.row, reg.lane), width
        if k is RegKind.OC_PIPE:
            return ck.oc, reg.col, width
        if k in (RegKind.CKSUM_ACTUAL, RegKind.CKSUM_PREDICTED):
            return None, k.value, width
        arr = {RegKind.WEIGHT: self.weights, RegKind.INDEX: self.indexes,
               RegKind.INPUT_PIPE: self.pipe}[k]
        return arr, (reg.row, reg.col, reg.lane), width

    def read_register(self, reg: RegisterId) -> int:
        arr, key, _ = self._storage(reg)
        return getattr(self.checker, key) if arr is None else int(arr[key])

    def write_register(self, reg: RegisterId, value: int) -> None:
        arr, key, width = self._storage(reg)
        value = int(wrap(value, width)) if reg.signed else int(value) & ((1 << width) - 1)
        if arr is None:
            setattr(self.checker, key, value)
        else:
            arr[key] = value

    def _check_bit(self, reg: RegisterId, bit: int) -> None:
        width = enumerate_registers(self.cfg).width_of(reg)
        if not 0 <= bit < width:
            raise ValueError(f"bit {bit} out of range for {width}-bit register {reg.name}")

    def flip_register_bit(self, reg: RegisterId, bit: int) -> None:
        self._check_bit(reg, bit)
        self.write_register(reg, self.read_register(reg) ^ (1 << bit))

    def tpe_state(self, row: int, col: int) -> TpeState:
        return TpeState(
            weights=tuple(int(v) for v in self.weights[row, col]),
            indexes=tuple(int(v) for v in self.indexes[row, col]),
            input_pipe=tuple(int(v) for v in self.pipe[row, col]),
            psum=int(self.psum[row, col]),
        )

    # ------------------------------------------------------------------
    # fault scheduling

    def schedule_faults(self, faults) -> None:
        for spec in faults:
            if spec.cycle < self.cycle:
                raise ValueError(f"fault cycle {spec.cycle} already passed (now {self.cycle})")
            self._check_bit(spec.register, spec.bit)
            self.pending_faults.setdefault(spec.cycle, []).append(spec)

    # ------------------------------------------------------------------
    # clocking

    def load_weights(self, w_tile: StructuredSparseMatrix) -> None:
        """Weight-loading phase: latch one tile's packed weights and indexes.

        Overwrites every weight/index slot, which also clears any fault that
        landed there earlier (faults persist only until overwritten).
        """
        cfg = self.cfg
        if w_tile.pattern != cfg.pattern:
            raise ShapeError(f"tile pattern {w_tile.pattern} != array pattern {cfg.pattern}")
        if w_tile.rows != cfg.tile_k or w_tile.cols != cfg.cols:
            raise ShapeError(
                f"weight tile is {w_tile.rows}x{w_tile.cols}, "
                f"array expects {cfg.tile_k}x{cfg.cols}"
            )
        n = cfg.pattern.n
        self.weights[:] = 0
        self.indexes[:] = 0
        self.weights[:, :, :n] = w_tile.values
        self.indexes[:, :, :n] = w_tile.indexes
        self.loaded = True
        self._loaded_tile = w_tile

    def step(self, west_inputs=None) -> None:
        """Raw clock edge with explicit per-row west bundles (or bubbles).

        The inputs are not waves of any schedule, so they are not
        IC-accumulated, captured, or corner-accumulated. Intended for
        PE-level unit tests and single-cycle experiments; orchestrated runs
        go through run_tile.
        """
        cfg = self.cfg
        if west_inputs is None:
            west = np.zeros((cfg.rows, cfg.pattern.m), dtype=np.int64)
            label = "Drain" if self.loaded else "WeightLoad"
        else:
            if not self.loaded:
                raise StateError("cannot stream inputs before weights are loaded")
            west = np.asarray(west_inputs, dtype=np.int64)
            if west.shape != (cfg.rows, cfg.pattern.m):
                raise ShapeError(
                    f"west inputs shape {west.shape} != ({cfg.rows}, {cfg.pattern.m})"
                )
            check_ndarray_width(west, cfg.input_width, "west input")
            label = "Stream"
        none_rows = np.zeros(cfg.rows, dtype=bool)
        self._clock(west, none_rows, none_rows, False, -1, label)

    def _clock(self, west, is_data, is_last_digit, corner_data, corner_digit, label) -> None:
        """One clock edge.

        ``west`` holds the bundle entering each PE row, ``is_data`` and
        ``is_last_digit`` mark the rows receiving a data wave or a round's
        last digit wave, and ``corner_data``/``corner_digit`` tag the wave
        whose OC chain output reaches the corner on this cycle.
        """
        cfg = self.cfg
        ck = self.checker
        T = self.cycle
        n_act = cfg.pattern.n

        bottom = self.psum[cfg.rows - 1]
        chain_out = int(ck.oc[cfg.cols - 1])

        # tensor PE grid
        idx = self.indexes[:, :, :n_act]
        if self._lane_wraps:
            idx = idx % cfg.pattern.m
        sel = self.pipe[self._row_grid, self._col_grid, idx]
        prod = (sel * self.weights[:, :, :n_act]).sum(axis=2)
        psum_next = np.empty_like(self.psum)
        psum_next[0] = prod[0]
        psum_next[1:] = self.psum[:-1] + prod[1:]
        psum_next = wrap(psum_next, cfg.col_out_width)
        pipe_next = np.empty_like(self.pipe)
        pipe_next[:, 0, :] = west
        pipe_next[:, 1:, :] = self.pipe[:, :-1, :]

        # IC accumulators: add data bundles, clear after the last digit wave
        ic_next = ck.ic.copy()
        if is_data.any():
            ic_next[is_data] = wrap(ck.ic[is_data] + west[is_data], cfg.ic_width)
        if is_last_digit.any():
            ic_next[is_last_digit] = 0

        # OC chain: running west-to-east sum of bottom-of-column results
        oc_next = np.empty_like(ck.oc)
        oc_next[0] = bottom[0]
        oc_next[1:] = ck.oc[:-1] + bottom[1:]
        oc_next = wrap(oc_next, cfg.oc_width)

        # commit
        self.psum = psum_next
        self.pipe = pipe_next
        ck.ic = ic_next
        ck.oc = oc_next
        if corner_data:
            ck.actual_accumulate(chain_out)
        elif corner_digit >= 0:
            ck.predicted_accumulate(chain_out, corner_digit)
            if corner_digit == cfg.digits_per_round - 1:
                self.round_results.append(ck.compare_and_reset(len(self.round_results)))

        if self.trace_sink is not None and self.watch:
            for reg in self.watch:
                self.trace_sink.write(f"{T},{label},{reg.name},{self.read_register(reg)}\n")

        self.cycle = T + 1
        for spec in self.pending_faults.pop(T, ()):
            self.flip_register_bit(spec.register, spec.bit)

    # ------------------------------------------------------------------
    # orchestrated flow

    def run_tile(self, a_tile: DenseMatrix, w_tile: StructuredSparseMatrix, faults=()) -> TileResult:
        """Stream one tile: weight load, skewed rows, checksum rounds, drain.

        Reloads ``w_tile`` unless the very same tile is already resident, so
        back-to-back calls with shared weights keep the loaded registers
        (including any injected corruption, as real hardware would).
        """
        cfg = self.cfg
        R, C, m = cfg.rows, cfg.cols, cfg.pattern.m
        if a_tile.cols != cfg.tile_k:
            raise ShapeError(f"input tile is {a_tile.rows}x{a_tile.cols}, "
                             f"array expects width {cfg.tile_k}")
        if a_tile.rows < 1:
            raise ShapeError("input tile must have at least one row")
        a_tile.check_width(cfg.input_width)
        if not (self.loaded and self._loaded_tile == w_tile):
            self.load_weights(w_tile)
        self.schedule_faults(faults)

        data, digit = wave_schedule(cfg, a_tile.rows)
        cycles = len(data)
        pe_rows = np.arange(R)
        # PE row r receives on cycle t the wave presented on cycle t - r
        row_data = _lagged(data, pe_rows)
        row_digit = _lagged(digit, pe_rows)
        is_data = row_data >= 0
        west = a_tile.data.reshape(a_tile.rows, R, m)[row_data, pe_rows]
        west[~is_data] = 0  # row index -1 picked the last row: no data wave there
        is_digit = row_digit >= 0
        is_last_digit = row_digit == cfg.digits_per_round - 1
        has_digit = is_digit.any(axis=1).tolist()
        # the corner accumulates, on cycle t, the wave presented at t - (R+C+1)
        corner_data = (_lagged(data, R + C + 1).ravel() >= 0).tolist()
        corner_digit = _lagged(digit, R + C + 1).ravel().tolist()
        labels = ["Stream" if d >= 0 else f"ChecksumDigit({k})" if k >= 0 else "Drain"
                  for d, k in zip(data.tolist(), digit.tolist())]

        first_round = len(self.round_results)
        bottoms = np.empty((cycles, C), dtype=np.int64)
        for t in range(cycles):
            bundle = west[t]
            if has_digit[t]:
                rows = is_digit[t]
                bundle[rows] = self.checker.digit_wave(pe_rows[rows], row_digit[t, rows])
            bottoms[t] = self.psum[R - 1]
            self._clock(bundle, is_data[t], is_last_digit[t], corner_data[t], corner_digit[t],
                        labels[t])

        # a row presented on cycle p leaves column c at the bottom on cycle
        # p + R + 1 + c; skewed[s, c] = bottoms[s + c, c] lines those up
        skewed = np.diagonal(sliding_window_view(bottoms, C, axis=0), axis1=1, axis2=2)
        outputs = skewed[np.flatnonzero(data >= 0) + R + 1]
        return TileResult(outputs=DenseMatrix(a_tile.rows, C, outputs),
                          rounds=self.round_results[first_round:])
