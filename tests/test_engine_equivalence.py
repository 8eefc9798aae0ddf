"""The segment engine against a per-cycle reference engine.

``ReferenceEngine`` clocks one edge per Python call, exactly as the
simulator did before tiles were clocked in segments: it is kept here as the
reference the segment engine must match register for register. Both run on
``SimState`` objects; the reference only reads and writes their registers,
and takes its digit waves from the loop reference in ``conftest``, not from
the engine's ``digit_wave``.
"""

import io

import numpy as np
import pytest

from sparse_abft import (
    ArrayConfig,
    DenseMatrix,
    FaultSpec,
    SimState,
    enumerate_registers,
    parse_register,
    prune_magnitude,
)
from sparse_abft.intwrap import wrap
from sparse_abft.registers import RegKind
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4, SparsityPattern
from sparse_abft.systolic import (TileResult, _lagged, _tile_schedule, tile_active_cycles,
                                  wave_schedule)

from conftest import loop_digits, random_faults, random_inputs, random_weights

PATTERN_1_3 = SparsityPattern(1, 3)


class ReferenceEngine:
    """Per-cycle clock of a SimState: one ``clock`` call per edge."""

    def __init__(self, state: SimState):
        self.state = state

    def clock(self, west, is_data, is_last_digit, corner_data, corner_digit, label) -> None:
        st = self.state
        cfg = st.cfg
        T = st.cycle
        n_act, m = cfg.pattern.n, cfg.pattern.m

        bottom = st.psum[cfg.rows - 1]
        chain_out = int(st.oc[cfg.cols - 1])

        # tensor PE grid
        idx = st.indexes[:, :, :n_act]
        if (1 << cfg.index_width) > m:
            idx = idx % m
        sel = st.pipe[np.arange(cfg.rows)[:, None, None], np.arange(cfg.cols)[None, :, None], idx]
        prod = (sel * st.weights[:, :, :n_act]).sum(axis=2)
        psum_next = np.empty_like(st.psum)
        psum_next[0] = prod[0]
        psum_next[1:] = st.psum[:-1] + prod[1:]
        psum_next = wrap(psum_next, cfg.col_out_width)
        pipe_next = np.empty_like(st.pipe)
        pipe_next[:, 0, :] = west
        pipe_next[:, 1:, :] = st.pipe[:, :-1, :]

        # IC accumulators: add data bundles, clear after the last digit wave
        ic_next = st.ic.copy()
        if is_data.any():
            ic_next[is_data] = wrap(st.ic[is_data] + west[is_data], cfg.ic_width)
        if is_last_digit.any():
            ic_next[is_last_digit] = 0

        # OC chain: running west-to-east sum of bottom-of-column results
        oc_next = np.empty_like(st.oc)
        oc_next[0] = bottom[0]
        oc_next[1:] = st.oc[:-1] + bottom[1:]
        oc_next = wrap(oc_next, cfg.oc_width)

        st.psum = psum_next
        st.pipe = pipe_next
        st.ic = ic_next
        st.oc = oc_next
        if corner_data:
            st.actual_accumulate(chain_out)
        elif corner_digit >= 0:
            st.predicted_accumulate(chain_out << cfg.input_width * corner_digit)
            if corner_digit == cfg.digits_per_round - 1:
                st.round_results.append(st.compare_and_reset(len(st.round_results)))

        if st.trace_sink is not None and st.watch:
            for reg in st.watch:
                st.trace_sink.write(f"{T},{label},{reg.name},{st.read_register(reg)}\n")

        st.cycle = T + 1
        for spec in st.pending_faults.pop(T, ()):
            st.flip_register_bit(spec.register, spec.bit)

    def step(self, west=None) -> None:
        cfg = self.state.cfg
        none = np.zeros(cfg.rows, dtype=bool)
        if west is None:
            west = np.zeros((cfg.rows, cfg.pattern.m), dtype=np.int64)
            label = "Drain" if self.state._loaded_tile is not None else "WeightLoad"
        else:
            label = "Stream"
        self.clock(np.asarray(west, dtype=np.int64), none, none, False, -1, label)

    def run_tile(self, a_tile, w_tile, faults=()) -> TileResult:
        st = self.state
        cfg = st.cfg
        R, C, m, d = cfg.rows, cfg.cols, cfg.pattern.m, cfg.digits_per_round
        if st._loaded_tile != w_tile:
            st.load_weights(w_tile)
        st.schedule_faults(faults)

        data, digit = wave_schedule(cfg, a_tile.rows)
        cycles = len(data)
        pe_rows = np.arange(R)
        row_data = _lagged(data, pe_rows)
        row_digit = _lagged(digit, pe_rows)
        is_data = row_data >= 0
        west = a_tile.data.reshape(a_tile.rows, R, m)[row_data, pe_rows]
        west[~is_data] = 0
        is_digit = row_digit >= 0
        is_last_digit = row_digit == d - 1
        corner_data = (_lagged(data, R + C + 1).ravel() >= 0).tolist()
        corner_digit = _lagged(digit, R + C + 1).ravel().tolist()
        labels = ["Stream" if w >= 0 else f"ChecksumDigit({k})" if k >= 0 else "Drain"
                  for w, k in zip(data.tolist(), digit.tolist())]

        first_round = len(st.round_results)
        bottoms = np.empty((cycles, C), dtype=np.int64)
        for t in range(cycles):
            bundle = west[t]
            if is_digit[t].any():
                rows = is_digit[t]
                digits = np.stack(loop_digits(st.ic, d, cfg.input_width))
                bundle[rows] = digits[row_digit[t, rows], pe_rows[rows]]
            bottoms[t] = st.psum[R - 1]
            self.clock(bundle, is_data[t], is_last_digit[t], corner_data[t], corner_digit[t],
                       labels[t])

        rows = np.flatnonzero(data >= 0)
        outputs = bottoms[rows[:, None] + R + 1 + np.arange(C), np.arange(C)]
        return TileResult(outputs=DenseMatrix(a_tile.rows, C, outputs),
                          rounds=st.round_results[first_round:])


def registers(state: SimState) -> dict:
    return {
        "cycle": state.cycle,
        "weights": state.weights.tolist(),
        "indexes": state.indexes.tolist(),
        "pipe": state.pipe.tolist(),
        "psum": state.psum.tolist(),
        "ic": state.ic.tolist(),
        "oc": state.oc.tolist(),
        "actual": state.actual,
        "predicted": state.predicted,
        "rounds": [r.to_json_dict() for r in state.round_results],
        "pending": sorted(state.pending_faults),
    }


def run_both(cfg, tiles, faults, watch=()):
    """Run ``tiles`` on a segment-engine state and on a reference-engine
    state; assert equal registers after every tile and equal results."""
    states = []
    for _ in range(2):
        state = SimState(cfg)
        if watch:
            state.watch = [parse_register(name) for name in watch]
            state.trace_sink = io.StringIO()
        state.schedule_faults(faults)
        states.append(state)
    seg, ref = states
    reference = ReferenceEngine(ref)
    for a_tile, w_tile in tiles:
        got = seg.run_tile(a_tile, w_tile)
        want = reference.run_tile(a_tile, w_tile)
        assert got.outputs == want.outputs
        assert [r.to_json_dict() for r in got.rounds] == [r.to_json_dict() for r in want.rounds]
        assert registers(seg) == registers(ref)
    if watch:
        assert seg.trace_sink.getvalue() == ref.trace_sink.getvalue()
    return seg


def random_tiles(rng, cfg, count, max_rows):
    """``count`` tiles of one row count; weights repeat so some stay resident."""
    a_rows = int(rng.integers(1, max_rows + 1))
    w_tiles = [random_weights(rng, cfg.tile_k, cfg.cols, cfg.pattern, cfg.input_width)
               for _ in range(2)]
    return [(random_inputs(rng, a_rows, cfg.tile_k, cfg.input_width), w_tiles[i // 2 % 2])
            for i in range(count)]


CONFIGS = [
    dict(pattern=PATTERN_2_4),
    dict(pattern=PATTERN_1_4),
    dict(pattern=PATTERN_1_3),                               # index values wrap past lane 2
    dict(pattern=PATTERN_2_4, input_width=4, ic_width=8),    # 16-row rounds
    dict(pattern=PATTERN_1_3, input_width=4, ic_width=8),
    dict(pattern=PATTERN_2_4, ic_width=24),                  # 3 digits per round
]

# 30-bit operands with 100-bit corner accumulators
WIDE_CORNER = dict(input_width=30, ic_width=60, col_out_width=62, oc_width=62, cksum_width=100)


def full_scale_tile(cfg, a_rows):
    """Inputs and weights all at the largest positive value."""
    top = (1 << cfg.input_width - 1) - 1
    a = DenseMatrix.from_array(np.full((a_rows, cfg.tile_k), top))
    w = prune_magnitude(DenseMatrix.from_array(np.full((cfg.tile_k, cfg.cols), top)), cfg.pattern)
    return a, w


@pytest.mark.parametrize("widths", CONFIGS, ids=lambda w: ",".join(f"{k}={v}" for k, v in w.items()))
def test_random_tiles_with_faults_match_reference(widths):
    rng = np.random.default_rng(20260811)
    for trial in range(12):
        cfg = ArrayConfig(rows=int(rng.integers(1, 5)), cols=int(rng.integers(1, 7)), **widths)
        tiles = random_tiles(rng, cfg, 3, 40)
        window = sum(tile_active_cycles(cfg, a.rows) for a, _ in tiles)
        faults = random_faults(rng, cfg, window, int(rng.integers(0, 8)))
        run_both(cfg, tiles, faults)


def test_faults_on_every_kind_at_edges_of_tiles():
    """Faults at cycle 0, on the last cycle of each tile (carried into the
    next tile), on the run's last cycle, and several in one cycle."""
    rng = np.random.default_rng(7)
    cfg = ArrayConfig(rows=3, cols=4, input_width=4, ic_width=8)
    tiles = random_tiles(rng, cfg, 3, 40)
    per_tile = tile_active_cycles(cfg, tiles[0][0].rows)
    window = 3 * per_tile
    for kind in RegKind:
        for cycle in (0, per_tile - 1, per_tile, 2 * per_tile - 1, window - 1,
                      int(rng.integers(window))):
            faults = [FaultSpec(cycle, f.register, f.bit)
                      for f in random_faults(rng, cfg, window, 3, kinds=(kind,))]
            run_both(cfg, tiles, faults + random_faults(rng, cfg, window, 2))


def test_mid_round_faults_each_kind():
    rng = np.random.default_rng(11)
    cfg = ArrayConfig(rows=4, cols=6, input_width=4, ic_width=8)
    tiles = random_tiles(rng, cfg, 2, 50)
    window = sum(tile_active_cycles(cfg, a.rows) for a, _ in tiles)
    for kind in RegKind:
        for _ in range(4):
            run_both(cfg, tiles, random_faults(rng, cfg, window, 4, kinds=(kind,)))


@pytest.mark.parametrize("widths", CONFIGS + [WIDE_CORNER],
                         ids=lambda w: ",".join(f"{k}={v}" for k, v in w.items()))
def test_traced_run_matches_reference(widths):
    """Every register traced on every cycle, with faults at tile edges and
    on the cycles where the corner compares a round."""
    rng = np.random.default_rng(3)
    for rows, cols in ((3, 4), (1, 5)):
        cfg = ArrayConfig(rows=rows, cols=cols, **widths)
        tiles = random_tiles(rng, cfg, 3, 40)
        if widths is WIDE_CORNER:   # full-scale operands: corner sums leave the int64 range
            tiles = [full_scale_tile(cfg, 6)] * 3
        per_tile = tile_active_cycles(cfg, tiles[0][0].rows)
        window = 3 * per_tile
        _, digit = wave_schedule(cfg, tiles[0][0].rows)
        compares = np.flatnonzero(digit == cfg.digits_per_round - 1) + rows + cols + 1
        faults = []
        for cycle in (0, per_tile - 1, per_tile, 2 * per_tile - 1, window - 1,
                      *compares.tolist(), *(compares + per_tile).tolist()):
            faults += [FaultSpec(cycle, f.register, f.bit) for f in
                       random_faults(rng, cfg, 1, 1)
                       + random_faults(rng, cfg, 1, 1, kinds=(RegKind.CKSUM_ACTUAL,
                                                              RegKind.CKSUM_PREDICTED))]
        watch = [entry.reg.name for entry in enumerate_registers(cfg).entries]
        state = run_both(cfg, tiles, faults + random_faults(rng, cfg, window, 4), watch=watch)
        assert len(state.trace_sink.getvalue().splitlines()) == len(watch) * window


def test_step_matches_reference_from_random_state():
    rng = np.random.default_rng(5)
    for pattern in (PATTERN_2_4, PATTERN_1_3):
        cfg = ArrayConfig(rows=3, cols=4, pattern=pattern)
        states = [SimState(cfg) for _ in range(2)]
        w = random_weights(rng, cfg.tile_k, cfg.cols, pattern)
        for state in states:
            state.load_weights(w)
        for entry in enumerate_registers(cfg).entries:   # arbitrary values in every register
            value = int(rng.integers(1 << entry.width_bits))
            for state in states:
                state.write_register(entry.reg, value)
        faults = random_faults(rng, cfg, 12, 6)
        for state in states:
            state.schedule_faults(faults)
        seg, ref = states
        reference = ReferenceEngine(ref)
        for _ in range(12):
            west = None if rng.random() < 0.3 else rng.integers(-128, 128, (cfg.rows, pattern.m))
            seg.step(west)
            reference.step(west)
            assert registers(seg) == registers(ref)


def test_corner_sums_past_int64_are_exact():
    """30-bit operands at full scale: every wave's OC output is near 2^61,
    so one round's actual and predicted sums leave the int64 range, which
    the 100-bit corner accumulators hold exactly."""
    cfg = ArrayConfig(rows=2, cols=2, **WIDE_CORNER)
    a, w = full_scale_tile(cfg, 6)
    state = run_both(cfg, [(a, w)], [])
    (result,) = state.round_results
    assert result.actual >= 1 << 63 and result.predicted == result.actual
    rng = np.random.default_rng(9)
    window = tile_active_cycles(cfg, a.rows)
    for _ in range(10):
        run_both(cfg, [(a, w)], random_faults(rng, cfg, window, 3))


@pytest.mark.parametrize("widths", [CONFIGS[3], CONFIGS[5]],
                         ids=lambda w: ",".join(f"{k}={v}" for k, v in w.items()))
def test_one_cycle_segments_around_last_digits_and_compares(widths):
    """A fault on every cycle from two before each round's last digit wave
    enters row 0 to two after it enters the last row, and from two before to
    two after each compare: one-cycle segments that slice the cached digit
    cells (and the restarts after last digits) one by one."""
    rng = np.random.default_rng(13)
    for rows, cols in ((3, 4), (1, 2)):
        cfg = ArrayConfig(rows=rows, cols=cols, **widths)
        tiles = random_tiles(rng, cfg, 2, 40)
        per_tile = tile_active_cycles(cfg, tiles[0][0].rows)
        _, digit = wave_schedule(cfg, tiles[0][0].rows)
        last = np.flatnonzero(digit == cfg.digits_per_round - 1)
        compares = last + rows + cols + 1
        cycles = {t + tile * per_tile for p, q in zip(last.tolist(), compares.tolist())
                  for tile in range(2) for t in [*range(p - 2, p + rows + 2), *range(q - 2, q + 3)]}
        cycles = sorted(t for t in cycles if 0 <= t < 2 * per_tile)
        for trial in range(3):
            faults = [FaultSpec(t, f.register, f.bit) for t in cycles
                      for f in random_faults(rng, cfg, 1, 1)]
            watch = [e.reg.name for e in enumerate_registers(cfg).entries] if trial == 0 else ()
            run_both(cfg, tiles, faults, watch=watch)


def test_cached_schedule_is_read_only():
    """Every array ``_tile_schedule`` shares among the tiles of one shape,
    the digit cells included, refuses writes."""
    inputs, _, out_rows = _tile_schedule(ArrayConfig(rows=3, cols=4, input_width=4, ic_width=8), 40)
    arrays = [getattr(inputs, name) for name in
              ("west", "is_data", "row_digit", "corner_data", "corner_digit")]
    for arr in (*arrays, *inputs.cells, out_rows):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    assert len(inputs.cells[0]) and (inputs.row_digit[inputs.cells] >= 0).all()
