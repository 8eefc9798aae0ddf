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
the tile's row count, so ``wave_schedule`` computes it once per tile, and
``run_tile`` derives from it every per-cycle input: the west data bundles,
the data and digit row masks and the corner tags.

Segments
--------
Between two fault events the datapath is a fixed shift-and-add network, so
``run_tile`` clocks a tile as a few segments of consecutive cycles, each in
whole-array operations by ``SimState._advance``, the one clock path. A
segment ends after every cycle that has scheduled faults (their flips follow
that cycle's edge), after every cycle on which the corner compares a round
(which bounds the temporaries to about one round), and after every cycle
while registers are watched (each trace line follows its cycle's edge).
``step`` is a one-cycle segment. Within a segment:

* the IC accumulators are running sums of data bundles that restart after
  each round's last digit wave, and digit bundles are split from those sums;
* the bundle at PE ``(r, c)`` on cycle ``t`` is the one that entered row
  ``r`` on cycle ``t - c - 1``, so one row's products are one matmul of its
  bundle stream with its lane weights, read along a skewed diagonal;
* a partial sum or OC chain register holds the diagonal sum of the products
  (or bottom-row results) that moved into it, plus the value that stood at
  the top of that diagonal when the segment began.

Every adder wraps at its register width. Wrapping is reduction modulo
``2^width``, which is compatible with addition, and int64 arithmetic is exact
modulo ``2^64``, so for widths below 64 wrapping a diagonal sum once gives
the value that wrapping on every edge would. The corner accumulators take one sum per
segment, carried as Python ints, which have no width to overflow.

Wave identities (which cycle carries which row) are scheduler bookkeeping,
not architectural state, so they are not fault-injectable; every register
that holds data is, via its RegisterId.

Faults scheduled at cycle ``T`` are applied right after cycle ``T``'s edge:
the corrupted value is what cycle ``T + 1`` reads. Weight loading is modeled
as instantaneous and happens outside the cycle count, matching a fault model
that only targets the compute/checksum phases.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

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


@dataclass(frozen=True)
class Segment:
    """Inputs of ``L`` consecutive cycles, one leading entry per cycle.

    ``west`` holds the bundle entering each PE row (zero for bubbles; digit
    bundles are split from the IC accumulators while clocking), ``is_data``
    marks the rows whose bundle is a data wave, ``row_digit`` the checksum
    digit entering each row (-1 none), ``corner_data`` and
    ``corner_digit`` tag the wave whose OC chain output reaches the corner,
    and ``labels`` name each cycle in traces.
    """

    west: np.ndarray            # (L, R, m)
    is_data: np.ndarray         # (L, R) bool
    row_digit: np.ndarray       # (L, R)
    corner_data: np.ndarray     # (L,) bool
    corner_digit: np.ndarray    # (L,)
    labels: list

    def part(self, lo: int, hi: int) -> "Segment":
        """Cycles ``[lo, hi)`` of this segment."""
        return Segment(*(getattr(self, f.name)[lo:hi] for f in fields(self)))


def _skewed(x: np.ndarray) -> np.ndarray:
    """View ``out[s, c] = x[s + c, c]`` of a C-contiguous ``(S, C)`` array."""
    rows, cols = x.shape
    step = x.strides[0]
    return np.ndarray((rows - cols + 1, cols), x.dtype, x, 0, (step, step + x.itemsize))


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
        self._pe_rows = np.arange(cfg.rows)[:, None]
        self._reversed_cols = np.arange(cfg.cols)[::-1]

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
        idle = np.zeros((1, cfg.rows), dtype=bool)
        self._advance(Segment(west[None], idle, np.full((1, cfg.rows), -1), np.zeros(1, dtype=bool),
                              np.full(1, -1), [label]))

    def _lane_weights(self) -> np.ndarray:
        """``(R, m, C)``: the weight each PE applies to each input lane, the
        columns in reverse order (see ``_advance``)."""
        cfg = self.cfg
        lw = np.zeros((cfg.rows, cfg.pattern.m, cfg.cols), dtype=np.int64)
        for j in range(cfg.pattern.n):
            # an index register can encode lanes past m-1 when m is not a
            # power of two; those selections wrap around like a mux with
            # tied inputs. Each (row, col) appears once per slot.
            lw[self._pe_rows, self.indexes[:, :, j] % cfg.pattern.m, self._reversed_cols] += \
                self.weights[:, :, j]
        return lw

    def _advance(self, seg: Segment) -> np.ndarray:
        """Clock the ``L`` cycles of ``seg`` from the current state.

        Writes the trace line of a one-cycle segment, applies the faults
        scheduled for the last cycle and returns the ``(L, C)`` bottom-row
        partial sums standing before each cycle's edge.
        """
        cfg, ck = self.cfg, self.checker
        R, C = cfg.rows, cfg.cols
        L = len(seg.west)

        # IC accumulators before each edge and after the last, wrapped where
        # read: running sums of data bundles, restarting after each
        # last-digit wave
        ic = np.empty((L + 1,) + ck.ic.shape, dtype=np.int64)
        ic[0] = ck.ic
        np.multiply(seg.west, seg.is_data[:, :, None], out=ic[1:])
        np.cumsum(ic, axis=0, out=ic)
        # in time order, so a later restart also removes the earlier ones
        for t, r in zip(*np.nonzero(seg.row_digit == cfg.digits_per_round - 1)):
            ic[t + 1:, r] -= ic[t + 1, r]
        cyc, row = np.nonzero(seg.row_digit >= 0)

        # the bundle at PE (r, c) before edge t0 + i is stream[r, C + i - 1 - c]:
        # the pipe as it stands (east end first), then the segment's bundles
        stream = np.empty((R, C + L, cfg.pattern.m), dtype=np.int64)
        stream[:, :C] = self.pipe[:, ::-1]
        stream[:, C:] = seg.west.transpose(1, 0, 2)
        stream[row, C + cyc] = ck.digit_wave(wrap(ic[cyc, row], cfg.ic_width),
                                             seg.row_digit[cyc, row])
        # sums[s] adds up one diagonal of the PE columns: the psum standing
        # at its top when the segment starts plus the products added on its
        # way south. sums[:L] are the bottom-row psums before each edge and
        # sums[L + R - 1 - r] is PE row r's psum after the last edge.
        lane_weights = self._lane_weights()
        sums = np.zeros((L + R, C), dtype=np.int64)
        for r in range(R):
            # reversed weight columns put product (i, c) at skewed[i, C-1-c]
            products = _skewed(stream[r] @ lane_weights[r])[:L, ::-1]
            sums[R - r:R - r + L] += products
            sums[R - 1 - r] += self.psum[r]

        # OC chain, the same diagonal sums over columns: one row of chain
        # holds the OC value standing on top, then the bottom-row results
        chain = np.zeros((2 * C - 1 + L, C), dtype=np.int64)
        chain[C - 1] = ck.oc
        chain[C:C + L] = bottoms = wrap(sums[:L], cfg.col_out_width)
        chain_out = wrap(_skewed(chain).sum(axis=1), cfg.oc_width)

        # commit
        self.psum = wrap(sums[L:][::-1], cfg.col_out_width)
        self.pipe = stream[:, L:][:, ::-1].copy()
        ck.ic = wrap(ic[L], cfg.ic_width)
        ck.oc = chain_out[L:][::-1].copy()
        chain_out = chain_out[:L]
        if seg.corner_data.any():
            ck.actual_accumulate(sum(chain_out[seg.corner_data].tolist()))
        for k in range(cfg.digits_per_round):
            digit_k = seg.corner_digit == k
            if digit_k.any():
                ck.predicted_accumulate(sum(chain_out[digit_k].tolist()), k)
        if seg.corner_digit[-1] == cfg.digits_per_round - 1:
            self.round_results.append(ck.compare_and_reset(len(self.round_results)))

        T = self.cycle + L - 1
        if self.trace_sink is not None and self.watch:
            for reg in self.watch:
                self.trace_sink.write(f"{T},{seg.labels[-1]},{reg.name},{self.read_register(reg)}\n")
        self.cycle = T + 1
        for spec in self.pending_faults.pop(T, ()):
            self.flip_register_bit(spec.register, spec.bit)
        return bottoms

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
        is_data = row_data >= 0
        west = a_tile.data.reshape(a_tile.rows, R, m)[row_data, pe_rows]
        west[~is_data] = 0  # row index -1 picked the last row: no data wave there
        # the corner accumulates, on cycle t, the wave presented at t - (R+C+1)
        corner_digit = _lagged(digit, R + C + 1).ravel()
        watched = self.trace_sink is not None and bool(self.watch)
        labels = ([("Stream" if d >= 0 else f"ChecksumDigit({k})" if k >= 0 else "Drain")
                   for d, k in zip(data.tolist(), digit.tolist())] if watched
                  else [""] * cycles)
        tile = Segment(west, is_data, _lagged(digit, pe_rows),
                       _lagged(data, R + C + 1).ravel() >= 0, corner_digit, labels)

        if watched:
            ends = range(1, cycles + 1)
        else:
            start = self.cycle
            ends = {cycles, *(np.flatnonzero(corner_digit == cfg.digits_per_round - 1) + 1).tolist(),
                    *(t - start + 1 for t in self.pending_faults if t < start + cycles)}
        first_round = len(self.round_results)
        bottoms = np.empty((cycles, C), dtype=np.int64)
        lo = 0
        for hi in sorted(ends):
            bottoms[lo:hi] = self._advance(tile.part(lo, hi))
            lo = hi

        # a row presented on cycle p leaves column c at the bottom on cycle
        # p + R + 1 + c; skewed[s, c] = bottoms[s + c, c] lines those up
        outputs = _skewed(bottoms)[np.flatnonzero(data >= 0) + R + 1]
        return TileResult(outputs=DenseMatrix(a_tile.rows, C, outputs),
                          rounds=self.round_results[first_round:])
