import dataclasses
import io

import numpy as np
import pytest

from sparse_abft import (
    ArrayConfig,
    CampaignConfig,
    DenseMatrix,
    FaultSpec,
    WorkloadSpec,
    golden_result,
    parse_register,
    prune_magnitude,
    run_multiplication,
    total_active_cycles,
)
from sparse_abft import campaign
from sparse_abft.driver import tile_operands
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4, ShapeError, StructuredSparseMatrix
from sparse_abft.systolic import SimState, tile_active_cycles
from sparse_abft.tiling import tile_plan

from conftest import as_dense, random_inputs, random_weights, zero_dense


def test_single_tile_run(worked_example):
    cfg, a, w_dense, w = worked_example
    run = run_multiplication(cfg, a, w)
    assert run.outputs.data.tolist() == [[-2, 16], [-2, 36]]
    assert not run.flagged
    assert run.total_cycles == total_active_cycles(cfg, 2, 4, 2)


def test_widths_limited_to_int64_engine(worked_example):
    """The engine wraps every register, the corner accumulators too, in int64 arithmetic."""
    _, a, _, w = worked_example
    for name in ("input_width", "col_out_width", "ic_width", "oc_width", "cksum_width"):
        with pytest.raises(ValueError, match=name):
            ArrayConfig(rows=1, cols=2, **{name: 64})
    cfg = ArrayConfig(rows=1, cols=2, col_out_width=63, oc_width=63, cksum_width=63)
    run = run_multiplication(cfg, a, w)
    assert run.outputs.data.tolist() == [[-2, 16], [-2, 36]] and not run.flagged


def test_wide_corner_configs_flag_no_fault_free_round():
    """A 3x4 array with 30-bit operands, all at 2^29 - 1, over three tiles:
    with cksum_width 64 or 100 every fault-free round flagged, and such
    widths are refused now; at 62 and 63 this run flags no round. (A corner
    wider than the 62-bit OC chain can still flag other operands.)"""
    top = (1 << 29) - 1
    widths = dict(rows=3, cols=4, input_width=30, ic_width=60, col_out_width=62, oc_width=62)
    for cksum_width in (64, 100):
        with pytest.raises(ValueError, match="cksum_width must be at most 63 bits"):
            ArrayConfig(**widths, cksum_width=cksum_width)
    for cksum_width in (62, 63):
        cfg = ArrayConfig(**widths, cksum_width=cksum_width)
        a = as_dense(np.full((6, cfg.tile_k), top))
        w = prune_magnitude(as_dense(np.full((cfg.tile_k, 3 * cfg.cols), top)), cfg.pattern)
        run = run_multiplication(cfg, a, w)
        assert [r.flag for r in run.rounds] == [False] * 3
        assert run.outputs == golden_result(a, w.dense, cfg.col_out_width)


def test_multi_tile_accumulation_matches_oracle():
    rng = np.random.default_rng(5)
    cfg = ArrayConfig(rows=2, cols=3)  # tile_k = 8
    a = random_inputs(rng, 9, 20)
    w = random_weights(rng, 20, 8, cfg.pattern)
    run = run_multiplication(cfg, a, w)
    assert run.outputs == golden_result(a, w.dense, cfg.col_out_width)
    plan = tile_plan(9, 20, 8, cfg)
    assert len(plan.tiles) == 3 * 3
    assert len(run.rounds) == len(plan.tiles)
    assert run.total_cycles == len(plan.tiles) * tile_active_cycles(cfg, 9)
    assert not run.flagged


@pytest.mark.parametrize("pattern", [PATTERN_2_4, PATTERN_1_4])
def test_multi_round_multi_tile(pattern):
    rng = np.random.default_rng(17)
    cfg = ArrayConfig(rows=1, cols=2, pattern=pattern)
    a = random_inputs(rng, 300, 10)
    w = random_weights(rng, 10, 5, pattern)
    run = run_multiplication(cfg, a, w)
    assert run.outputs == golden_result(a, w.dense, cfg.col_out_width)
    plan = tile_plan(300, 10, 5, cfg)
    assert len(run.rounds) == len(plan.tiles) * 2  # 300 rows -> 2 rounds per tile
    assert not run.flagged


def test_shape_and_pattern_errors(worked_example):
    cfg, a, _, w = worked_example
    with pytest.raises(ShapeError):
        run_multiplication(dataclasses.replace(cfg, pattern=PATTERN_1_4), a, w)
    with pytest.raises(ShapeError):
        run_multiplication(cfg, zero_dense(2, 5), w)


def test_input_width_enforced(worked_example):
    cfg, _, _, w = worked_example
    wide = as_dense([[300, 0, 0, 0]])
    with pytest.raises(ValueError):
        run_multiplication(cfg, wide, w)


def test_fault_past_run_window_rejected(worked_example):
    """A fault that could never fire must not come back as a clean run."""
    cfg, a, _, w = worked_example
    psum = parse_register("tpe.0.0.psum")
    window = total_active_cycles(cfg, a.rows, a.cols, w.cols)
    for cycle in (10**6, window):
        with pytest.raises(ValueError, match="never fire"):
            run_multiplication(cfg, a, w, faults=[FaultSpec(cycle, psum, 3)])
    run = run_multiplication(cfg, a, w, faults=[FaultSpec(window - 1, psum, 3)])
    assert run.total_cycles == window


def test_fault_before_run_window_rejected_before_first_cycle(worked_example):
    """A fault at a negative cycle would never fire either, and is refused
    with the same window message before any cycle is clocked."""
    cfg, a, _, w = worked_example
    sink = io.StringIO()
    window = total_active_cycles(cfg, a.rows, a.cols, w.cols)
    with pytest.raises(ValueError, match=f"cycle -1 would never fire: the run has {window} active"):
        run_multiplication(cfg, a, w, faults=[FaultSpec(-1, parse_register("oc.0"), 3)],
                           watch=[parse_register("oc.0")], trace_sink=sink)
    assert sink.getvalue() == ""


def test_unknown_watched_register_rejected_before_first_cycle(worked_example):
    cfg, a, _, w = worked_example
    sink = io.StringIO()
    watch = [parse_register("tpe.0.0.psum"), parse_register("tpe.9.0.psum")]
    with pytest.raises(ValueError, match="tpe.9.0.psum"):
        run_multiplication(cfg, a, w, watch=watch, trace_sink=sink)
    assert sink.getvalue() == ""


def test_watch_list_without_trace_sink_rejected_before_first_cycle(monkeypatch):
    """A watch list with nowhere to write its trace would clock every cycle
    for nothing; it is refused before a state is even built."""
    cfg = ArrayConfig(rows=2, cols=4)
    rng = np.random.default_rng(2)
    a = random_inputs(rng, 3, cfg.tile_k)
    w = random_weights(rng, cfg.tile_k, cfg.cols, cfg.pattern)
    built = []
    init = SimState.__init__
    monkeypatch.setattr(SimState, "__init__", lambda self, cfg: built.append(cfg) or init(self, cfg))
    with pytest.raises(ValueError, match="watch list needs a trace_sink"):
        run_multiplication(cfg, a, w, watch=[parse_register("oc.0")])
    assert not built


def test_tracing_keeps_the_segment_schedule(monkeypatch):
    """A traced run clocks the same segments as an untraced one."""
    cfg = ArrayConfig()
    rng = np.random.default_rng(1)
    a = as_dense(rng.integers(-128, 128, (256, 64)))
    w = prune_magnitude(as_dense(rng.integers(-128, 128, (64, 64))), cfg.pattern)
    advance = SimState._advance
    calls = []

    def counted(state, *args, **kwargs):
        calls.append(state.cycle)
        return advance(state, *args, **kwargs)

    monkeypatch.setattr(SimState, "_advance", counted)
    untraced = run_multiplication(cfg, a, w)
    segments = len(calls)
    watch = [parse_register(name) for name in ("tpe.3.5.psum", "oc.31", "cksum.actual")]
    sink = io.StringIO()
    traced = run_multiplication(cfg, a, w, watch=watch, trace_sink=sink)
    assert len(calls) - segments == segments == 4
    assert traced.total_cycles == untraced.total_cycles == 1196
    assert traced.outputs == untraced.outputs
    assert len(sink.getvalue().splitlines()) == len(watch) * 1196


def test_exact_single_tile_operands_are_the_callers_own():
    rng = np.random.default_rng(3)
    cfg = ArrayConfig(rows=2, cols=3)
    a, w = random_inputs(rng, 5, cfg.tile_k), random_weights(rng, cfg.tile_k, cfg.cols, cfg.pattern)
    ((tile, a_tile, w_tile),) = tile_operands(cfg, a, w)
    assert a_tile is a and w_tile is w
    assert (tile.k_range, tile.col_range) == ((0, cfg.tile_k), (0, cfg.cols))
    with pytest.raises(ShapeError):
        tile_operands(dataclasses.replace(cfg, pattern=PATTERN_1_4), a, w)
    with pytest.raises(ValueError, match="outside signed 8-bit"):
        tile_operands(cfg, as_dense(np.full((5, cfg.tile_k), 128)), w)


def test_tiles_of_one_inner_chunk_share_their_a_slice():
    """``tile_operands`` pads each inner chunk of A once; every column range
    of that chunk runs on the same read-only matrix, and the run's outputs
    are the oracle's."""
    rng = np.random.default_rng(12)
    cfg = ArrayConfig(rows=2, cols=3)
    a, w = random_inputs(rng, 7, 2 * cfg.tile_k + 3), random_weights(rng, 2 * cfg.tile_k + 3, 8,
                                                                      cfg.pattern)
    operands = tile_operands(cfg, a, w)
    chunks = {}
    for tile, a_tile, _ in operands:
        assert chunks.setdefault(tile.k_range, a_tile) is a_tile and sealed(a_tile)
        k_lo, k_hi = tile.k_range
        assert (a_tile.data[:, : k_hi - k_lo] == a.data[:, k_lo:k_hi]).all()
    assert (len(operands), len(chunks)) == (9, 3)
    golden = golden_result(a, w.dense, cfg.col_out_width)
    assert run_multiplication(cfg, a, w).outputs == golden


def sealed(matrix: DenseMatrix) -> bool:
    """Whether ``matrix.data`` is read-only and views no writable array."""
    data = matrix.data
    while isinstance(data, np.ndarray):
        if data.flags.writeable:
            return False
        data = data.base
    return True


def test_matrices_kept_without_a_copy_are_sealed():
    """The synthetic A, the golden product and the tile and run outputs keep
    the arrays built for them, read-only; a caller's array is still copied."""
    cfg = CampaignConfig(ArrayConfig(rows=2, cols=4), 1, 1, 1, 3, WorkloadSpec(a_rows=6))
    a, w, golden, _ = campaign._synthetic_workload(cfg, 0)
    tile = SimState(cfg.array).run_tile(a, w)
    run = run_multiplication(cfg.array, a, w)
    assert all(sealed(m) for m in (a, golden, tile.outputs, run.outputs))
    assert tile.outputs == run.outputs == golden
    mine = np.arange(6).reshape(2, 3)
    matrix = DenseMatrix(2, 3, mine)
    mine[0, 0] = 9
    assert sealed(matrix) and matrix.data[0, 0] == 0


@pytest.mark.parametrize("a_rows, k, cols", [(5, 8, 2), (5, 16, 3), (5, 8, 7), (4, 20, 8), (1, 3, 1)])
def test_tile_operands_pad_edge_chunks(a_rows, k, cols):
    """Multi-tile and edge-padded workloads: each tile's A columns and W block,
    zero-padded to the array's tile."""
    rng = np.random.default_rng(k * cols)
    cfg = ArrayConfig(rows=2, cols=3)   # tile_k = 8
    a, w = random_inputs(rng, a_rows, k), random_weights(rng, k, cols, cfg.pattern)
    a_pad = np.zeros((a_rows, -(-k // 8) * 8), dtype=np.int64)
    a_pad[:, :k] = a.data
    w_pad = np.zeros((a_pad.shape[1], -(-cols // 3) * 3), dtype=np.int64)
    w_pad[:k, :cols] = w.dense.data
    operands = tile_operands(cfg, a, w)
    assert [t for t, _, _ in operands] == list(tile_plan(a_rows, k, cols, cfg).tiles)
    for tile, a_tile, w_tile in operands:
        (k_lo, _), (c_lo, _) = tile.k_range, tile.col_range
        assert a_tile == as_dense(a_pad[:, k_lo:k_lo + 8])
        assert w_tile == StructuredSparseMatrix(
            cfg.pattern, as_dense(w_pad[k_lo:k_lo + 8, c_lo:c_lo + 3]))
