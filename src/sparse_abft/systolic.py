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
the tile's row count, so every per-cycle input derived from ``wave_schedule``
is built once per configuration and row count and shared read-only;
``run_tile`` only gathers the west data bundles of its own input tile.

Segments
--------
Between two fault events the datapath is a fixed shift-and-add network, so
``run_tile`` clocks a tile as a few segments of consecutive cycles, each in
whole-array operations by ``SimState._advance``, the one clock path. A
segment ends after every cycle that has scheduled faults (their flips follow
that cycle's edge) and after every cycle on which the corner compares a round
(which bounds the temporaries to about one round; the last round compares on
the tile's last cycle). Tracing reads watched registers after every edge
from the segment's intermediates, in cycle order before its flips, so it
does not cut segments. ``step`` is a one-cycle segment. Within a segment:

* the IC accumulators are running sums of data bundles that restart after
  each round's last digit wave, and digit bundles are split from those sums;
* the bundle at PE ``(r, c)`` on cycle ``t`` is the one that entered row
  ``r`` on cycle ``t - c - 1``, so one row's products are one matmul of its
  bundle stream with its lane weights, read along a skewed diagonal;
* a partial sum or OC chain register holds the diagonal sum of the products
  (or bottom-row results) that moved into it, plus the value that stood at
  the top of that diagonal when the segment began.

Every adder wraps at its register width. Wrapping is reduction modulo
``2^width``, which is compatible with addition, so for widths below 64 wrapping
a diagonal sum once gives the value that wrapping on every edge would, if the
sum is exact modulo ``2^64``. Bundle values and weights stand in
``input_width``-bit registers, whose bits a fault flips but never widens, and
at most ``n`` slots feed a lane: faulted or not, a product is at most ``peak =
n 2^(2 input_width - 2)`` and a psum at most ``2^(col_out_width - 1)``. While
``R m peak + 2^(col_out_width - 1) < 2^53`` (2^23.2 on 8x32 at the default
widths) float64 holds every partial sum of a diagonal, so the sums run in
float64, each row's products by ``blas_matmul`` on one OpenBLAS thread, and
become int64 once. Past it (``col_out_width`` above 53, or wide operands) they
are int64 sums, exact modulo ``2^64``, of each row's ``exact_matmul``. The
corner adds are Python ints, with no width to overflow: each OC output reaching
the corner, weighted by ``2^(input_width * d)`` for digit ``d`` (a data wave is
digit 0 of ``actual``), summed digit by digit; a traced corner accumulator
reads their running sums.

Wave identities (which cycle carries which row) are scheduler bookkeeping,
not architectural state, so they are not fault-injectable; every register
that holds data is, via its RegisterId.

Faults scheduled at cycle ``T`` are applied right after cycle ``T``'s edge:
the corrupted value is what cycle ``T + 1`` reads. Weight loading is modeled
as instantaneous and happens outside the cycle count, matching a fault model
that only targets the compute/checksum phases.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .checker import CheckerState
from .config import ArrayConfig
from .intwrap import blas_matmul, check_ndarray_width, exact_matmul, float64_exact, wrap
from .registers import RegisterId, RegKind, enumerate_registers
from .sparsity import DenseMatrix, ShapeError, StructuredSparseMatrix


# the SimState attributes of the register kinds stored in arrays
_ARRAYS = tuple(kind.storage for kind in RegKind if kind.fields)


@dataclass
class TileResult:
    outputs: DenseMatrix
    rounds: list
    bottoms: np.ndarray | None = None   # keep: (cycles, C) bottom-row sums before each edge
    states: list | None = None          # keep: SimState after the weight load and each round

    def __post_init__(self):
        if self.states:   # a reference: what faulty runs read (take copies it) stays as it is
            for x in (self.bottoms, *(x for state in self.states for x in state._arrays())):
                x.flags.writeable = False

    def __reduce__(self):   # unpickled, a reference is sealed again
        return type(self), (self.outputs, self.rounds, self.bottoms, self.states)


@dataclass(frozen=True)
class Segment:
    """Inputs of ``L`` consecutive cycles, one leading entry per cycle.

    ``west`` holds the bundle entering each PE row (zero for bubbles; digit
    bundles are split from the IC accumulators while clocking), ``is_data``
    marks the rows whose bundle is a data wave, ``row_digit`` the checksum
    digit entering each row (-1 none), and ``corner_data`` and
    ``corner_digit`` tag the wave whose OC chain output reaches the corner.
    """

    west: np.ndarray            # (L, R, m)
    is_data: np.ndarray         # (L, R) bool
    row_digit: np.ndarray       # (L, R)
    corner_data: np.ndarray     # (L,) bool
    corner_digit: np.ndarray    # (L,)

    def part(self, lo: int, hi: int) -> "Segment":
        """Cycles ``[lo, hi)`` of this segment."""
        return Segment(*(x[lo:hi] for x in vars(self).values()))


class _Arena(threading.local):
    """This thread's flat buffers, grown on demand, as views for a tile's padded rows, west
    bundles, unkept bottoms and segment temporaries; never for registers, results or kept
    states. ``_ARENA`` serves steps and untraced tiles (a trace sink may run another
    simulation)."""

    def __call__(self, name: str, shape, dtype=np.int64, fill=None) -> np.ndarray:
        """Buffer ``name`` as a ``shape`` array, set to ``fill`` if given, until its next use."""
        size, buffers = np.dtype(dtype).itemsize * math.prod(shape), vars(self)
        if len(buffers.get(name, ())) < size:
            buffers[name] = np.empty(size, np.uint8)
        view = buffers[name][:size].view(dtype).reshape(shape)
        if fill is not None:
            view[...] = fill
        return view


_ARENA = _Arena()


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
    return _tile_schedule(cfg, a_rows)[1][-1]


def _lagged(waves: np.ndarray, lags) -> np.ndarray:
    """``waves[t - lag]`` for every cycle ``t`` (rows) and lag (columns);
    ``-1`` where that reaches before the tile's first cycle."""
    at = np.arange(len(waves))[:, None] - np.asarray(lags)
    return np.where(at >= 0, waves[at], -1)


@functools.lru_cache(maxsize=32)
def _tile_schedule(cfg: ArrayConfig, a_rows: int):
    """``(inputs, cuts, out_rows)`` of a tile: its ``Segment``, with ``west``
    indexing the bundles of its rows and an appended zero row, the cycle after
    each round's compare (the last round's is the tile's last cycle), and
    each output row's first bottom-row cycle."""
    R, C = cfg.rows, cfg.cols
    data, digit = wave_schedule(cfg, a_rows)
    # PE row r receives on cycle t the wave presented on cycle t - r; the
    # corner accumulates, on cycle t, the wave presented at t - (R+C+1)
    row_data, row_digit = _lagged(data, np.arange(R)), _lagged(digit, np.arange(R))
    corner_digit = _lagged(digit, R + C + 1).ravel()
    inputs = Segment(np.where(row_data >= 0, row_data, a_rows) * R + np.arange(R), row_data >= 0,
                     row_digit, _lagged(data, R + C + 1).ravel() >= 0, corner_digit)
    out_rows = np.flatnonzero(data >= 0) + R + 1
    for arr in (*vars(inputs).values(), out_rows):
        arr.flags.writeable = False
    cuts = np.flatnonzero(corner_digit == cfg.digits_per_round - 1) + 1
    return inputs, tuple(cuts.tolist()), out_rows


class SimState(CheckerState):
    """Every register of the array and, inherited, of the checker, plus
    scheduler bookkeeping."""

    def __init__(self, cfg: ArrayConfig):
        super().__init__(cfg)
        self.cycle = 0

        m, slots = cfg.pattern.m, cfg.slots
        self.weights = np.zeros((cfg.rows, cfg.cols, slots), dtype=np.int64)
        self.indexes = np.zeros((cfg.rows, cfg.cols, slots), dtype=np.int64)
        self.pipe = np.zeros((cfg.rows, cfg.cols, m), dtype=np.int64)
        self.psum = np.zeros((cfg.rows, cfg.cols), dtype=np.int64)

        self._loaded_tile = None         # the resident W tile
        self.round_results: list = []
        self.pending_faults: dict = {}   # cycle -> [FaultSpec]

        self.watch: list[RegisterId] = []
        self.trace_sink = None

    # ------------------------------------------------------------------
    # register access

    def _storage(self, reg: RegisterId):
        """(store, key, width) of one register, as its kind's row of the
        register table names them: its array and index or, for a kind with no
        index fields (a corner accumulator), this state's attribute dict and
        the attribute name. The width comes from the register map, which
        raises ValueError for registers this array lacks. Reads, writes (a
        flip is a read and a write) and traces find a register only here.
        """
        width = enumerate_registers(self.cfg).width_of(reg)
        k = reg.kind
        if not k.fields:
            return vars(self), k.storage, width
        return getattr(self, k.storage), tuple(getattr(reg, f) for f in k.fields), width

    def read_register(self, reg: RegisterId) -> int:
        store, key, _ = self._storage(reg)
        return int(store[key])

    def write_register(self, reg: RegisterId, value: int) -> None:
        store, key, width = self._storage(reg)
        store[key] = int(wrap(value, width)) if reg.signed else int(value) & ((1 << width) - 1)
        if store is self.weights or store is self.indexes:
            vars(self).pop("_lane_weights", None)

    def _check_bit(self, reg: RegisterId, bit: int) -> None:
        width = enumerate_registers(self.cfg).width_of(reg)
        if not 0 <= bit < width:
            raise ValueError(f"bit {bit} out of range for {width}-bit register {reg.name}")

    def flip_register_bit(self, reg: RegisterId, bit: int) -> None:
        self._check_bit(reg, bit)
        self.write_register(reg, self.read_register(reg) ^ (1 << bit))

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
        check_ndarray_width(w_tile.values, cfg.input_width, "weight")
        n = cfg.pattern.n
        self.weights[:] = 0
        self.indexes[:] = 0
        self.weights[:, :, :n] = w_tile.values
        self.indexes[:, :, :n] = w_tile.indexes
        self._loaded_tile = w_tile
        vars(self).pop("_lane_weights", None)

    # ------------------------------------------------------------------
    # snapshots: all that steers later cycles is every register, the cycle,
    # the round count (later rounds are numbered on) and the resident W tile
    # (run_tile keeps it when it recurs)

    def _arrays(self) -> tuple:
        return tuple(getattr(self, name) for name in _ARRAYS)

    def copy(self) -> "SimState":
        """An independent copy with no faults scheduled."""
        other = copy.copy(self)
        vars(other).update((name, getattr(self, name).copy()) for name in _ARRAYS)
        other.round_results, other.pending_faults = list(self.round_results), {}
        return other

    def matches(self, other: "SimState") -> bool:
        """Whether all that steers later cycles is equal in ``other``."""
        def key(s):
            return (s.cycle, len(s.round_results), s._loaded_tile, s.actual, s.predicted,
                    *(x.tobytes() for x in s._arrays()))
        return key(self) == key(other)

    def in_step(self, at: "SimState", end: int) -> bool:
        """Whether the cycles before ``end`` repeat a fault-free run standing
        at ``at``: no fault is pending before ``end`` and the state ``matches``."""
        return min(self.pending_faults, default=end) >= end and self.matches(at)

    def take(self, at: "SimState") -> None:
        """Become a copy of the fault-free state ``at``, adding the rounds it
        holds past this run's own; keep own faults, watch list and trace sink."""
        own = {k: vars(self)[k] for k in ("round_results", "pending_faults", "watch", "trace_sink")}
        self.__dict__ = vars(at.copy()) | own
        self.round_results += at.round_results[len(self.round_results):]

    def step(self, west_inputs=None) -> None:
        """Raw clock edge with explicit per-row west bundles (or bubbles).

        The inputs are not waves of any schedule, so they are not
        IC-accumulated, captured, or corner-accumulated; before any weight
        load they meet the zero weight and index registers. Intended for
        PE-level unit tests and single-cycle experiments; orchestrated runs
        go through run_tile.
        """
        cfg, shape = self.cfg, (self.cfg.rows, self.cfg.pattern.m)
        given = np.asarray(np.zeros(shape) if west_inputs is None else west_inputs)
        with np.errstate(invalid="ignore"):     # NaN, inf and 2^63 on are refused below
            west = given.astype(np.int64)
        if west.shape != shape:
            raise ShapeError(f"west inputs shape {west.shape} != {shape}")
        if (off := given[west != given]).size:
            raise ValueError(f"west input {off[0]} is not an int64 value")
        check_ndarray_width(west, cfg.input_width, "west input")
        seg = Segment(west[None], np.zeros((1, cfg.rows), bool), np.full((1, cfg.rows), -1),
                      np.zeros(1, bool), np.full(1, -1))
        # nothing a step computes outlives its _advance, so it shares the thread's arena
        self._advance(seg, _ARENA, None if west_inputs is None else "Stream")

    @functools.cached_property
    def _lane_weights(self) -> tuple:
        """``(R, m, C)`` in int64 and float64: the weight each PE applies to each
        input lane, columns reversed (see ``_advance``), summed over the used
        slots in one exact int64 ``np.add.at`` scatter. Dropped when a weight or
        index register is written, so it is rebuilt once per weight load."""
        cfg = self.cfg
        n, m = cfg.pattern.n, cfg.pattern.m
        lw = np.zeros((cfg.rows, m, cfg.cols), dtype=np.int64)
        rows, cols = np.arange(cfg.rows)[:, None, None], np.arange(cfg.cols)[::-1, None]
        # an index register can encode lanes past m-1 when m is not a power of
        # two; those selections wrap around like a mux with tied inputs. Slots
        # past n sit idle; used slots of one PE that select one lane add.
        np.add.at(lw, (rows, self.indexes[:, :, :n] % m, cols), self.weights[:, :, :n])
        return lw, lw.astype(np.float64)

    def _advance(self, seg: Segment, arena: _Arena, label: str | None = None) -> np.ndarray:
        """Clock the ``L`` cycles of ``seg`` from the current state, on ``arena``.

        Writes the segment's trace lines, applies the faults scheduled for
        the last cycle and returns the ``(L, C)`` bottom-row partial sums
        (on ``arena``) before each cycle's edge. Trace lines name each cycle
        after the wave entering PE row 0, unless ``label`` names them all.
        """
        cfg = self.cfg
        R, C, L = cfg.rows, cfg.cols, len(seg.west)
        traced = self.trace_sink is not None and bool(self.watch)

        # IC accumulators before each edge and after the last, wrapped where
        # read: running sums of data bundles, restarting after each
        # last-digit wave
        ic = arena("ic", (L + 1,) + self.ic.shape)
        ic[0] = self.ic
        np.multiply(seg.west, seg.is_data[:, :, None], out=ic[1:])
        np.cumsum(ic, axis=0, out=ic)

        # in float64 where the sums below are exact (module docstring)
        peak = cfg.pattern.n << 2 * cfg.input_width - 2   # bounds faulted runs too
        on_float = float64_exact(peak, R * cfg.pattern.m, 1 << cfg.col_out_width - 1)
        lw, psums = self._lane_weights[on_float], []
        # the bundle at PE (r, c) before edge t0 + i is stream[r, C + i - 1 - c]:
        # the pipe as it stands (east end first), then the segment's bundles,
        # with the digit bundles split from the IC accumulators
        stream = np.concatenate([self.pipe[:, ::-1], seg.west.swapaxes(0, 1)], 1,
                                out=arena("stream", (R, C + L, cfg.pattern.m), lw.dtype))
        cyc, row = np.nonzero(seg.row_digit >= 0)   # in cycle order
        if len(cyc):
            digits = seg.row_digit[cyc, row]
            # in time order, so a later restart also removes the earlier ones
            for t, r in zip(*(x[digits == cfg.digits_per_round - 1].tolist() for x in (cyc, row))):
                ic[t + 1:, r] -= ic[t + 1, r]
            stream[row, C + cyc] = self.digit_wave(wrap(ic[cyc, row], cfg.ic_width), digits)
        # sums[s] adds up one diagonal of the PE columns: the psum standing
        # at its top when the segment starts plus the products added on its
        # way south. sums[:L] are the bottom-row psums before each edge and
        # sums[L + R - 1 - r] is PE row r's psum after the last edge; while
        # rows below r are still missing, sums[R - r:R - r + L] are row r's
        # psums after each edge.
        buffer, sums = arena("buffer", (C + L, C), lw.dtype), arena("sums", (L + R, C), lw.dtype, 0)
        sums[:R] = self.psum[::-1]
        # reversed weight columns put a row's product (i, c) at skewed[i, C-1-c]
        skewed = _skewed(buffer)[:L, ::-1]
        for r in range(R):
            if on_float:
                blas_matmul(stream[r], lw[r], buffer)
            else:
                buffer[:] = exact_matmul(stream[r], lw[r], peak)
            sums[R - r:R - r + L] += skewed
            if traced:
                psums.append(sums[R - r:R - r + L].astype(np.int64))
        sums = arena("int_sums", sums.shape, fill=sums) if on_float else sums

        # OC chain, the same diagonal sums over columns, on the spent products
        # buffer: one row holds the OC value standing on top, then the bottom-row results
        chain = arena("buffer", (2 * C - 1 + L, C), fill=0)
        chain[C - 1] = self.oc
        bottoms = wrap(sums[:L], cfg.col_out_width, out=chain[C:C + L])
        chain_out = wrap(_skewed(chain).sum(axis=1), cfg.oc_width)
        compares = seg.corner_digit[-1] == cfg.digits_per_round - 1
        outs, w = chain_out[:L], cfg.input_width
        if traced:
            # each watched register after every edge, in cycle order, before
            # any flip; weights and indexes hold still
            columns = []
            for reg in self.watch:
                store, key, width = self._storage(reg)   # raises for registers this array lacks
                r, c, k = reg.row, reg.col, reg.kind
                if k is RegKind.INPUT_PIPE:
                    values = stream[r, C - c:C - c + L, reg.lane].astype(np.int64)
                elif k is RegKind.IC_ACC:
                    values = ic[1:, r, reg.lane]
                elif k is RegKind.PSUM:
                    values = psums[r][:, c]
                elif k is RegKind.OC_PIPE:
                    values = _skewed(chain)[C - c:C - c + L, :c + 1].sum(axis=1)
                elif k.fields:
                    values = np.full(L, store[key])
                else:
                    digits = seg.corner_data - 1 if k is RegKind.CKSUM_ACTUAL else seg.corner_digit
                    adds = [v << w * d if d >= 0 else 0
                            for v, d in zip(outs.tolist(), digits.tolist())]
                    running = itertools.accumulate(adds, initial=store[key])
                    values = np.array([*running][1:], dtype=object)
                    values[-1] *= not compares   # cleared on the compare edge
                columns.append((wrap(values, width) if reg.signed else values).tolist())
            labels = [label] * L if label is not None else [
                "Stream" if d else f"ChecksumDigit({k})" if k >= 0 else
                "Drain" if self._loaded_tile is not None else "WeightLoad"
                for d, k in zip(seg.is_data[:, 0].tolist(), seg.row_digit[:, 0].tolist())]
            names = [reg.name for reg in self.watch]
            lines = "".join(f"{self.cycle + i},{labels[i]},{name},{value}\n" for i, values in
                            enumerate(zip(*columns)) for name, value in zip(names, values))

        # commit: the last reads of arena
        self.psum = wrap(sums[L:][::-1], cfg.col_out_width)
        self.pipe = stream[:, L:][:, ::-1].astype(np.int64)
        self.ic = wrap(ic[L], cfg.ic_width)
        self.oc = chain_out[L:][::-1].copy()
        # corner adds (module docstring), summed digit by digit
        self.actual_accumulate(sum(outs[seg.corner_data].tolist()))
        self.predicted_accumulate(sum(sum(outs[seg.corner_digit == d].tolist()) << w * d
                                      for d in range(cfg.digits_per_round)))
        if compares:
            self.round_results.append(self.compare_and_reset(len(self.round_results)))

        if traced:   # after them: a sink may run another simulation
            self.trace_sink.write(lines)
        T = self.cycle + L - 1
        self.cycle = T + 1
        for spec in self.pending_faults.pop(T, ()):
            self.flip_register_bit(spec.register, spec.bit)
        return bottoms

    # ------------------------------------------------------------------
    # orchestrated flow

    def run_tile(self, a_tile: DenseMatrix, w_tile: StructuredSparseMatrix,
                 reference: TileResult | None = None, keep: bool = False) -> TileResult:
        """Stream one tile: weight load, skewed rows, checksum rounds, drain.

        Reloads ``w_tile`` unless the very same tile is already resident, so
        back-to-back calls with shared weights keep the loaded registers
        (including any injected corruption, as real hardware would). ``keep``
        also returns the state after the weight load and after each round,
        making the result, with its bottoms and kept registers read-only, a
        ``reference`` for faulty runs of the same tile.
        Such a run takes the whole tile, returning ``reference`` itself, or
        else each round, from the reference while it is ``in_step`` with the
        state at their start, and clocks the rest.
        """
        cfg = self.cfg
        if a_tile.cols != cfg.tile_k:
            raise ShapeError(f"input tile is {a_tile.rows}x{a_tile.cols}, "
                             f"array expects width {cfg.tile_k}")
        if a_tile.rows < 1:
            raise ShapeError("input tile must have at least one row")
        check_ndarray_width(a_tile.data, cfg.input_width, "matrix element")
        if self._loaded_tile != w_tile:
            self.load_weights(w_tile)

        inputs, cuts, out_rows = _tile_schedule(cfg, a_tile.rows)
        start, first_round, lo = self.cycle, len(self.round_results), 0
        if reference is not None and self.in_step(reference.states[0], start + cuts[-1]):
            self.take(reference.states[-1])
            return reference
        arena, shape = _ARENA if self.trace_sink is None else _Arena(), (cuts[-1], cfg.cols)
        # the appended zero row is the bundle of every cycle without a data wave
        rows = arena("rows", (a_tile.rows + 1, cfg.tile_k))
        rows[:-1], rows[-1] = a_tile.data, 0
        west = arena("west", (*inputs.west.shape, cfg.pattern.m))
        np.take(rows.reshape(-1, cfg.pattern.m), inputs.west, 0, west, "clip")   # in range; unbuffered
        tile = replace(inputs, west=west)

        states = [self.copy()] if keep else None
        bottoms = np.empty(shape, dtype=np.int64) if keep else arena("bottoms", shape)
        for k, hi in enumerate(cuts):
            if reference is not None and self.in_step(reference.states[k], start + hi):
                self.take(reference.states[k + 1])
                bottoms[lo:hi] = reference.bottoms[lo:hi]
            else:
                faults = (t - start + 1 for t in self.pending_faults if t < start + hi)
                for end in sorted({hi, *faults}):
                    bottoms[lo:end] = self._advance(tile.part(lo, end), arena)
                    lo = end
            if keep:
                states.append(self.copy())
            lo = hi

        # a row presented on cycle p leaves column c at the bottom on cycle
        # p + R + 1 + c; skewed[s, c] = bottoms[s + c, c] lines those up
        outputs = _skewed(bottoms)[out_rows]
        return TileResult(DenseMatrix(*outputs.shape, outputs, owned=True),
                          self.round_results[first_round:], bottoms if keep else None, states)
