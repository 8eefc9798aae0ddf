import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_abft import (
    ArrayConfig,
    FaultSpec,
    SimState,
    SparsityPattern,
    StructuredSparseMatrix,
    enumerate_registers,
    golden_result,
    parse_register,
)
from sparse_abft.registers import RegisterId, RegKind
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4, ShapeError
from sparse_abft.systolic import _tile_schedule, tile_active_cycles, wave_schedule

from conftest import as_dense, random_inputs, random_weights, zero_dense


def traced_tile(cfg, a, w, names):
    """Run one tile watching ``names``; returns (state, result, {(cycle, name): value})."""
    state = SimState(cfg)
    state.watch = [parse_register(name) for name in names]
    state.trace_sink = io.StringIO()
    res = state.run_tile(a, w)
    values = {}
    for line in state.trace_sink.getvalue().splitlines():
        cycle, _, name, value = line.split(",")
        values[int(cycle), name] = int(value)
    return state, res, values


# ----------------------------------------------------------------------
# weight loading

def test_load_weights_maps_blocks_to_pes(worked_example):
    cfg, _, _, w = worked_example
    state = SimState(cfg)
    state.load_weights(w)
    assert state.weights[0, 0].tolist() == [1, -1] and state.indexes[0, 0].tolist() == [0, 2]
    assert state.weights[0, 1].tolist() == [2, 3] and state.indexes[0, 1].tolist() == [1, 3]


def test_load_weights_1_4_slot1_idle():
    cfg = ArrayConfig(rows=1, cols=2, pattern=PATTERN_1_4)
    w = StructuredSparseMatrix(PATTERN_1_4,
                               as_dense([[0, 0], [5, 0], [0, 0], [0, -7]]))
    state = SimState(cfg)
    state.load_weights(w)
    assert state.weights[0, 0].tolist() == [5, 0]
    assert state.indexes[0, 0].tolist() == [1, 0]
    assert state.weights[0, 1].tolist() == [-7, 0]
    # slot 1 holds (0, 0) in every PE
    assert all(state.read_register(parse_register(f"tpe.0.{c}.w.1")) == 0 for c in range(2))


def test_load_weights_zero_tile_yields_zero_outputs(tiny_cfg):
    state = SimState(tiny_cfg)
    w = StructuredSparseMatrix(PATTERN_2_4, zero_dense(4, 2))
    a = as_dense([[9, -9, 5, 77], [1, 2, 3, 4]])
    res = state.run_tile(a, w)
    assert res.outputs == zero_dense(2, 2)
    assert not any(r.flag for r in res.rounds)


def test_load_weights_shape_and_pattern_errors(tiny_cfg):
    state = SimState(tiny_cfg)
    for pattern, rows, cols in [(PATTERN_2_4, 8, 2),    # 2 block rows
                                (PATTERN_2_4, 4, 3),    # wrong cols
                                (PATTERN_1_4, 4, 2)]:   # wrong pattern
        with pytest.raises(ShapeError):
            state.load_weights(StructuredSparseMatrix(pattern, zero_dense(rows, cols)))


def test_load_weights_rejects_values_outside_input_width(tiny_cfg):
    """A weight register holds input_width bits; the engine's exact products rely on it."""
    state = SimState(tiny_cfg)
    def tile(first_row):
        return StructuredSparseMatrix(PATTERN_2_4, as_dense([first_row] + [[0, 0]] * 3))

    state.load_weights(tile([-128, 127]))
    for bad in (128, -129):
        with pytest.raises(ValueError, match="weight"):
            state.load_weights(tile([bad, 0]))


def loop_lane_weights(state):
    """The former per-slot form of ``SimState._lane_weights``, kept as its reference."""
    cfg = state.cfg
    lw = np.zeros((cfg.rows, cfg.pattern.m, cfg.cols), dtype=np.int64)
    rows, cols = np.arange(cfg.rows)[:, None], np.arange(cfg.cols)[::-1]
    for j in range(cfg.pattern.n):
        lw[rows, state.indexes[:, :, j] % cfg.pattern.m, cols] += state.weights[:, :, j]
    return lw


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["2:4", "1:4", "1:3", "2:3"]),
       st.sampled_from([8, 60]))
def test_lane_weights_match_per_slot_reference(seed, pattern_text, width):
    """After a weight load and after weight and index flips (idle slots
    included), the lane weights' float64 slices recombine to the per-slot
    sums. With m = 3 a 2-bit index can name lane 3, which wraps to lane 0;
    slots of one PE that select one lane add, which at width 60 take more
    than one float64 slice."""
    rng = np.random.default_rng(seed)
    pattern = SparsityPattern.parse(pattern_text)
    wide = dict(ic_width=60, col_out_width=63, oc_width=63) if width == 60 else {}
    cfg = ArrayConfig(rows=3, cols=4, pattern=pattern, input_width=width, **wide)
    state = SimState(cfg)

    def check():
        digit, _, lw = state._lane_weights
        assert lw.dtype == np.float64 and len(lw) == (1 if width == 8 else 3)
        assert np.array_equal(sum(x.astype(np.int64) << k * digit for k, x in enumerate(lw)),
                              loop_lane_weights(state))

    state.load_weights(random_weights(rng, cfg.tile_k, cfg.cols, pattern, width))
    check()
    regs = [entry for entry in enumerate_registers(cfg).entries
            if entry[0].kind in (RegKind.WEIGHT, RegKind.INDEX)]
    for _ in range(int(rng.integers(1, 12))):
        reg, bits = regs[rng.integers(len(regs))]
        state.flip_register_bit(reg, int(rng.integers(bits)))
    # one PE's used slots all select one lane, with top-range weights
    r, c = int(rng.integers(cfg.rows)), int(rng.integers(cfg.cols))
    for j in range(pattern.n):
        state.write_register(RegisterId(RegKind.INDEX, r, c, j), 3)
        state.write_register(RegisterId(RegKind.WEIGHT, r, c, j),
                             int(rng.integers(1 << width - 2, 1 << width - 1)))
    check()


# ----------------------------------------------------------------------
# raw stepping

def test_step_computes_psum_from_pipe(worked_example):
    cfg, _, _, w = worked_example
    state = SimState(cfg)
    state.load_weights(w)
    state.pipe[0, 0] = [1, 2, 3, 4]
    state.step()  # bubble: compute from the latched bundle
    assert state.read_register(parse_register("tpe.0.0.psum")) == 1 * 1 + 3 * (-1) == -2


def test_step_bubble_passes_north_psum(tiny_cfg):
    cfg = ArrayConfig(rows=2, cols=1)
    state = SimState(cfg)
    state.load_weights(StructuredSparseMatrix(PATTERN_2_4, zero_dense(8, 1)))
    state.psum[0, 0] = 1234
    state.step()
    assert state.read_register(parse_register("tpe.1.0.psum")) == 1234


def test_step_psum_wraps_two_complement():
    cfg = ArrayConfig(rows=2, cols=1)
    w = np.zeros((8, 1), dtype=np.int64)
    w[4, 0] = 1  # PE (1,0): weight 1 at lane 0
    state = SimState(cfg)
    state.load_weights(StructuredSparseMatrix(PATTERN_2_4, as_dense(w)))
    state.psum[0, 0] = 2**23 - 1
    state.pipe[1, 0, 0] = 1
    state.step()
    assert state.read_register(parse_register("tpe.1.0.psum")) == -(2**23)


def test_step_streams_before_weights(tiny_cfg):
    """Before any weight load the weight and index registers hold zero: a
    bundle streamed then moves east like any other, with zero products."""
    state = SimState(tiny_cfg)
    sink = io.StringIO()
    state.watch = [parse_register(name) for name in ("tpe.0.1.in.0", "tpe.0.0.psum", "tpe.0.1.psum")]
    state.trace_sink = sink
    state.step(np.array([[1, 2, 3, 4]]))
    state.step()
    assert sink.getvalue().splitlines() == [
        "0,Stream,tpe.0.1.in.0,0", "0,Stream,tpe.0.0.psum,0", "0,Stream,tpe.0.1.psum,0",
        "1,WeightLoad,tpe.0.1.in.0,1", "1,WeightLoad,tpe.0.0.psum,0", "1,WeightLoad,tpe.0.1.psum,0"]
    assert state.pipe[0].tolist() == [[0, 0, 0, 0], [1, 2, 3, 4]]


def test_step_validates_bundle_shape_and_width(worked_example):
    cfg, _, _, w = worked_example
    state = SimState(cfg)
    state.load_weights(w)
    with pytest.raises(ShapeError):
        state.step(np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        state.step(np.full((1, 4), 200, dtype=np.int64))


@pytest.mark.parametrize("bundle", [[[1.7, 2.2, -0.9, 4.0]], [[np.nan, 0, 0, 0]],
                                    [[np.inf, 0, 0, 0]], [[2.0 ** 63, 0, 0, 0]],
                                    [[2 ** 70, 0, 0, 0]], [[0, -2 ** 64, 0, 0]],
                                    np.array([[0, 0, 2 ** 70, 0]], dtype=object)],
                         ids=["fraction", "nan", "inf", "2^63", "2^70", "-2^64", "object 2^70"])
def test_step_refuses_bundles_that_are_not_integers(worked_example, bundle):
    """A bundle no int64 holds is refused, not truncated; whole floats are kept."""
    cfg, _, _, w = worked_example
    state = SimState(cfg)
    state.load_weights(w)
    with pytest.raises(ValueError, match="is not an int64 value"):
        state.step(bundle)
    assert state.cycle == 0 and not state.pipe.any()
    state.step([[1.0, 2.0, -1.0, 4.0]])
    assert state.pipe[0, 0].tolist() == [1, 2, -1, 4]


def test_input_bundles_advance_east(worked_example):
    cfg, _, _, w = worked_example
    state = SimState(cfg)
    state.load_weights(w)
    state.step(np.array([[1, 2, 3, 4]]))
    assert state.pipe[0, 0].tolist() == [1, 2, 3, 4]
    state.step()
    assert state.pipe[0, 1].tolist() == [1, 2, 3, 4]
    assert state.pipe[0, 0].tolist() == [0, 0, 0, 0]


def test_skewed_arrival_across_pe_rows():
    cfg = ArrayConfig(rows=2, cols=1)
    w = random_weights(np.random.default_rng(0), cfg.tile_k, cfg.cols, cfg.pattern)
    rows = as_dense(np.arange(16, dtype=np.int64).reshape(2, 8))
    names = [f"tpe.{r}.0.in.{lane}" for r in range(2) for lane in range(4)]
    _, _, trace = traced_tile(cfg, rows, w, names)

    def pipe(cycle, r):
        return tuple(trace[cycle, f"tpe.{r}.0.in.{lane}"] for lane in range(4))

    # end of cycle 0: row 0's low lanes latched in PE row 0 only
    assert pipe(0, 0) == (0, 1, 2, 3)
    assert pipe(0, 1) == (0, 0, 0, 0)
    # end of cycle 1: PE row 1 receives row 0's high lanes one cycle later
    assert pipe(1, 0) == (8, 9, 10, 11)
    assert pipe(1, 1) == (4, 5, 6, 7)


# ----------------------------------------------------------------------
# run_tile

def test_run_tile_worked_example(worked_example):
    cfg, a, w_dense, w = worked_example
    res = SimState(cfg).run_tile(a, w)
    assert res.outputs.data.tolist() == [[-2, 16], [-2, 36]]
    assert len(res.rounds) == 1
    r = res.rounds[0]
    assert (r.actual, r.predicted, r.flag) == (48, 48, False)


def test_run_tile_zero_inputs(worked_example):
    cfg, _, _, w = worked_example
    res = SimState(cfg).run_tile(zero_dense(3, 4), w)
    assert res.outputs == zero_dense(3, 2)
    assert [(r.actual, r.predicted, r.flag) for r in res.rounds] == [(0, 0, False)]


def test_run_tile_unit_vector_row(worked_example):
    cfg, _, _, w = worked_example
    res = SimState(cfg).run_tile(as_dense([[1, 0, 0, 0]]), w)
    assert res.outputs.data.tolist() == [[1, 0]]


def test_run_tile_shape_errors(worked_example):
    cfg, a, _, w = worked_example
    with pytest.raises(ShapeError):
        SimState(cfg).run_tile(zero_dense(2, 8), w)
    with pytest.raises(ShapeError):
        SimState(cfg).run_tile(zero_dense(0, 4), w)


def test_run_tile_cycle_count_and_round_cadence():
    cfg = ArrayConfig(rows=2, cols=4)
    rng = np.random.default_rng(3)
    w = random_weights(rng, cfg.tile_k, cfg.cols, cfg.pattern)
    for a_rows, want_rounds in ((1, 1), (256, 1), (257, 2), (300, 2), (600, 3)):
        a = random_inputs(rng, a_rows, cfg.tile_k)
        state = SimState(cfg)
        res = state.run_tile(a, w)
        assert len(res.rounds) == want_rounds
        assert [r.round_index for r in res.rounds] == list(range(want_rounds))
        waves = a_rows + want_rounds * cfg.digits_per_round
        assert state.cycle == waves + cfg.rows + cfg.cols + 1
        assert state.cycle == tile_active_cycles(cfg, a_rows)
        assert res.outputs == golden_result(a, w.dense, cfg.col_out_width)
        assert not any(r.flag for r in res.rounds)


def test_run_tile_matches_oracle_randomized():
    rng = np.random.default_rng(11)
    for pattern in (PATTERN_2_4, PATTERN_1_4):
        cfg = ArrayConfig(rows=2, cols=3, pattern=pattern)
        for trial in range(30):
            a_rows = int(rng.integers(1, 40))
            a = random_inputs(rng, a_rows, cfg.tile_k)
            w = random_weights(rng, cfg.tile_k, cfg.cols, pattern)
            res = SimState(cfg).run_tile(a, w)
            assert res.outputs == golden_result(a, w.dense, cfg.col_out_width)
            assert not any(r.flag for r in res.rounds)


def test_determinism_same_inputs_same_trajectory(worked_example):
    cfg, a, _, w = worked_example
    faults = [FaultSpec(2, parse_register("tpe.0.0.psum"), 3)]

    def signature():
        state = SimState(cfg)
        sink = io.StringIO()
        state.watch = [parse_register("tpe.0.1.psum"), parse_register("cksum.actual")]
        state.trace_sink = sink
        state.schedule_faults(faults)
        res = state.run_tile(a, w)
        return sink.getvalue(), res.outputs.data.tolist(), [r.to_json_dict() for r in res.rounds]

    assert signature() == signature()


# ----------------------------------------------------------------------
# wave schedule

def test_wave_schedule_enforces_round_cap():
    cfg = ArrayConfig(rows=1, cols=2)
    t, d = cfg.rows_per_round, cfg.digits_per_round
    data, digit = wave_schedule(cfg, t + 1)
    # rows_per_round data waves back to back, then the round's digit waves
    assert data[:t].tolist() == list(range(t)) and (digit[:t] == -1).all()
    assert digit[t:t + d].tolist() == list(range(d)) and (data[t:t + d] == -1).all()
    # streaming resumes with the next round, closed by its own digit waves
    assert data[t + d] == t
    assert digit[t + d + 1:t + 2 * d + 1].tolist() == list(range(d))
    # then only flush bubbles
    tail = slice(t + 2 * d + 1, None)
    assert (data[tail] == -1).all() and (digit[tail] == -1).all()
    assert len(data) == t + 1 + 2 * d + cfg.rows + cfg.cols + 1 == tile_active_cycles(cfg, t + 1)


def test_tile_schedule_lists_each_round_end_once():
    # the last round's compare falls on the tile's last cycle
    assert _tile_schedule(ArrayConfig(), 512)[1] == (299, 557)


def test_ic_accumulates_column_sums(worked_example):
    cfg, a, _, w = worked_example
    names = [f"ic.0.acc.{lane}" for lane in range(4)]
    state, _, trace = traced_tile(cfg, a, w, names)
    # both data waves (cycles 0 and 1) are in; the digit waves follow
    assert [trace[1, name] for name in names] == [6, 8, 10, 12]
    assert state.ic[0].tolist() == [0, 0, 0, 0]  # cleared for next round


# ----------------------------------------------------------------------
# register access + trace

def test_register_read_write_flip(worked_example):
    cfg, _, _, w = worked_example
    state = SimState(cfg)
    state.load_weights(w)
    psum = parse_register("tpe.0.1.psum")
    state.write_register(psum, 48)
    assert state.read_register(psum) == 48
    state.flip_register_bit(psum, 0)
    assert state.read_register(psum) == 49
    state.flip_register_bit(psum, 0)
    assert state.read_register(psum) == 48
    idx = parse_register("tpe.0.0.idx.1")
    assert state.read_register(idx) == 2
    state.flip_register_bit(idx, 0)
    assert state.read_register(idx) == 3


def test_corner_registers_read_write_flip(worked_example):
    """The corner accumulators are 0-d int64 cells: a write wraps at
    cksum_width, reads back, and a flip of its top bit round-trips."""
    cfg = worked_example[0]
    state = SimState(cfg)
    for name in ("cksum.actual", "cksum.predicted"):
        reg = parse_register(name)
        cell = getattr(state, reg.kind.storage)
        assert cell.shape == () and cell.dtype == np.int64
        state.write_register(reg, (1 << 47) - 1)
        assert state.read_register(reg) == (1 << 47) - 1
        state.write_register(reg, 1 << 47)
        assert state.read_register(reg) == -(1 << 47)
        state.flip_register_bit(reg, 47)
        assert state.read_register(reg) == 0
        state.flip_register_bit(reg, 47)
        assert state.read_register(reg) == -(1 << 47)
        assert getattr(state, reg.kind.storage) is cell   # written in place


def test_flip_of_every_register_kind_and_its_bit_range(worked_example):
    """A flip changes one bit of one register, array or checker, and a bit
    past the register's width raises before anything is written."""
    cfg, _, _, w = worked_example
    state = SimState(cfg)
    state.load_weights(w)
    table = enumerate_registers(cfg)
    for reg in {reg.kind: reg for reg, _ in table.entries}.values():
        width = table.width_of(reg)
        before = state.read_register(reg)
        state.flip_register_bit(reg, width - 1)
        assert state.read_register(reg) != before
        with pytest.raises(ValueError, match=f"^bit {width} out of range for {width}-bit "
                                             f"register {re.escape(reg.name)}$"):
            state.flip_register_bit(reg, width)
        state.flip_register_bit(reg, width - 1)
        assert state.read_register(reg) == before


def test_copy_and_matches_cover_every_register_kind(worked_example):
    """``copy`` shares no register with its source, and ``matches`` sees a
    one-bit flip in a register of every kind, the corner accumulators included."""
    cfg, a, _, w = worked_example
    state = SimState(cfg)
    state.run_tile(a, w)
    regs = {reg.kind: reg for reg, _ in enumerate_registers(cfg).entries}
    assert set(regs) == set(RegKind)
    for reg in regs.values():
        other = state.copy()
        assert other.matches(state)
        assert not any(np.shares_memory(x, y) for x in other._arrays() for y in state._arrays())
        before = state.read_register(reg)
        other.flip_register_bit(reg, 0)
        assert (state.read_register(reg), other.read_register(reg)) == (before, before ^ 1)
        assert not other.matches(state) and not state.matches(other)


# where each kind is stored and whether it is signed, written out here without
# reading any column of the register table
STORED_AT = {
    "WEIGHT": ("weights", ("row", "col", "lane"), True),
    "INDEX": ("indexes", ("row", "col", "lane"), False),
    "INPUT_PIPE": ("pipe", ("row", "col", "lane"), True),
    "PSUM": ("psum", ("row", "col"), True),
    "IC_ACC": ("ic", ("row", "lane"), True),
    "OC_PIPE": ("oc", ("col",), True),
    "CKSUM_ACTUAL": ("actual", (), True),
    "CKSUM_PREDICTED": ("predicted", (), True),
}


@pytest.mark.parametrize("pattern", ["2:4", "1:4", "1:3", "1:1"])
def test_every_register_stored_in_its_own_cell(pattern):
    """Each register's value, written before any is read back, reads back and
    sits at the attribute and index its kind names, and every other cell
    stays zero: no kind is stored in another's array or under another field,
    and no two registers share a cell."""
    cfg = ArrayConfig(rows=2, cols=3, pattern=SparsityPattern.parse(pattern))
    state, written = SimState(cfg), {}
    for i, (reg, width) in enumerate(enumerate_registers(cfg).entries):
        value = 1 + i * 97 % ((1 << width) - 1)   # nonzero bits, unlike its neighbours'
        if STORED_AT[reg.kind.name][2] and value >> width - 1:
            value -= 1 << width   # read as two's complement
        written[reg] = value
        state.write_register(reg, value)
    expected = {attr: np.zeros(np.shape(getattr(state, attr)), dtype=object)
                for attr, _, _ in STORED_AT.values()}
    for reg, value in written.items():
        assert state.read_register(reg) == value
        attr, fields, _ = STORED_AT[reg.kind.name]
        index = tuple(getattr(reg, f) for f in fields)
        assert expected[attr][index] == 0
        expected[attr][index] = value
    for attr, cells in expected.items():
        assert np.array_equal(np.array(getattr(state, attr), dtype=object), cells), attr


def test_register_bounds_checked(tiny_cfg):
    state = SimState(tiny_cfg)
    for name in ("tpe.1.0.psum", "tpe.0.2.psum", "tpe.0.0.in.4", "ic.1.acc.0", "oc.2"):
        with pytest.raises(ValueError):
            state.read_register(parse_register(name))


def test_trace_output_format(worked_example):
    cfg, a, _, w = worked_example
    state = SimState(cfg)
    sink = io.StringIO()
    state.watch = [parse_register("cksum.actual")]
    state.trace_sink = sink
    state.run_tile(a, w)
    lines = sink.getvalue().splitlines()
    assert len(lines) == state.cycle
    assert lines[0] == "0,Stream,cksum.actual,0"
    # actual picks up the first row's wave sum at cycle R + C + 1
    assert lines[cfg.rows + cfg.cols + 1] == f"{cfg.rows + cfg.cols + 1},Drain,cksum.actual,14"
    assert [line.split(",")[1] for line in lines[:4]] == [
        "Stream", "Stream", "ChecksumDigit(0)", "ChecksumDigit(1)"]


def test_step_trace_labels(worked_example):
    cfg, _, _, w = worked_example
    state = SimState(cfg)
    sink = io.StringIO()
    state.watch = [parse_register("tpe.0.0.psum")]
    state.trace_sink = sink
    state.step()
    state.load_weights(w)
    state.step(np.array([[1, 2, 3, 4]]))
    state.step()
    assert [line.split(",")[1] for line in sink.getvalue().splitlines()] == [
        "WeightLoad", "Stream", "Drain"]


# ----------------------------------------------------------------------
# fault scheduling hooks

def test_scheduled_fault_validated(worked_example):
    cfg, a, _, w = worked_example
    state = SimState(cfg)
    with pytest.raises(ValueError):
        state.schedule_faults([FaultSpec(0, parse_register("tpe.0.0.psum"), 24)])
    with pytest.raises(ValueError):
        state.schedule_faults([FaultSpec(0, parse_register("oc.5"), 0)])
    state.run_tile(a, w)
    with pytest.raises(ValueError):
        state.schedule_faults([FaultSpec(0, parse_register("oc.0"), 0)])  # in the past
