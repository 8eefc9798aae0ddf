"""Checksum-mechanism properties: what the checker must and must not see."""

import numpy as np
import pytest

from sparse_abft import (
    ArrayConfig,
    DenseMatrix,
    FaultSpec,
    StructuredSparseMatrix,
    golden_result,
    parse_register,
    run_multiplication,
    unpack,
)
from sparse_abft.registers import RegisterId, RegKind
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4

from conftest import idle_slot_registers, random_inputs, random_weights, silent_pipe_targets


def run_with_faults(cfg, a, w, faults=()):
    run = run_multiplication(cfg, a, w, faults=faults)
    return run.outputs, [r.to_json_dict() for r in run.rounds]


@pytest.fixture
def lane_gapped():
    """1x2 array whose weights never select lanes 1 and 3."""
    cfg = ArrayConfig(rows=1, cols=2)
    w = StructuredSparseMatrix(PATTERN_2_4,
                               DenseMatrix.from_array([[1, 4], [0, 0], [-1, 3], [0, 0]]))
    a = DenseMatrix.from_array([[1, 2, 3, 4], [5, 6, 7, 8], [-9, 10, -11, 12]])
    return cfg, a, w


def test_unselected_input_lanes_never_influence_results(lane_gapped):
    """Metamorphic: perturbing globally-unselected lanes of A changes nothing."""
    cfg, a, w = lane_gapped
    baseline_out, baseline_rounds = run_with_faults(cfg, a, w)
    perturbed = np.array(a.data)
    perturbed[:, 1] = [99, -99, 42]
    perturbed[:, 3] = [-1, 7, 127]
    out, rounds = run_with_faults(cfg, DenseMatrix.from_array(perturbed), w)
    assert out == baseline_out
    assert rounds == baseline_rounds


def test_unselected_pipe_fault_is_silent(lane_gapped):
    cfg, a, w = lane_gapped
    baseline_out, baseline_rounds = run_with_faults(cfg, a, w)
    targets = silent_pipe_targets(cfg, w)
    assert RegisterId(RegKind.INPUT_PIPE, 0, 0, 1) in targets
    assert RegisterId(RegKind.INPUT_PIPE, 0, 1, 3) in targets
    assert RegisterId(RegKind.INPUT_PIPE, 0, 0, 0) not in targets
    for reg in targets:
        out, rounds = run_with_faults(cfg, a, w, [FaultSpec(2, reg, 3)])
        assert out == baseline_out and rounds == baseline_rounds


def test_selected_pipe_fault_flags(lane_gapped):
    cfg, a, w = lane_gapped
    # lane 0 feeds column 0's weight while data is in flight
    out, rounds = run_with_faults(cfg, a, w, [FaultSpec(1, parse_register("tpe.0.0.in.0"), 3)])
    assert any(r["flag"] for r in rounds)


def test_idle_slot_faults_change_nothing_in_1_4():
    cfg = ArrayConfig(rows=1, cols=2, pattern=PATTERN_1_4)
    rng = np.random.default_rng(23)
    a = random_inputs(rng, 5, cfg.tile_k)
    w = random_weights(rng, cfg.tile_k, cfg.cols, PATTERN_1_4)
    baseline_out, baseline_rounds = run_with_faults(cfg, a, w)
    regs = idle_slot_registers(cfg)
    assert RegisterId(RegKind.WEIGHT, 0, 0, 1) in regs
    assert RegisterId(RegKind.INDEX, 0, 1, 1) in regs
    for reg in regs:
        for bit in (0, 1):
            out, rounds = run_with_faults(cfg, a, w, [FaultSpec(2, reg, bit)])
            assert out == baseline_out and rounds == baseline_rounds


def test_idle_slot_registers_empty_in_2_4():
    assert idle_slot_registers(ArrayConfig(rows=1, cols=2)) == []


def test_weight_flip_before_streaming_is_silent(worked_example):
    """The checksum reuses the same weight registers as the computation, so a
    corruption that precedes every data row shifts actual and predicted
    identically: corrupted output, no flag."""
    cfg, a, w_dense, w = worked_example
    golden = golden_result(a, w_dense, cfg.col_out_width)
    reg = parse_register("tpe.0.0.w.0")
    out, rounds = run_with_faults(cfg, a, w, [FaultSpec(0, reg, 1)])
    assert out != golden.product          # output really is corrupted
    assert not any(r["flag"] for r in rounds)


def test_weight_flip_mid_stream_flags(worked_example):
    cfg, a, _, w = worked_example
    reg = parse_register("tpe.0.0.w.0")
    out, rounds = run_with_faults(cfg, a, w, [FaultSpec(1, reg, 1)])
    assert any(r["flag"] for r in rounds)


def test_psum_flip_before_capture_flags(worked_example):
    """A 2^b change in one output addend shifts actual but not predicted."""
    cfg, a, w_dense, w = worked_example
    golden = golden_result(a, w_dense, cfg.col_out_width)
    # psum(0,0) holds row 0's column-0 value during cycle 2; flip after cycle 1
    out, rounds = run_with_faults(cfg, a, w, [FaultSpec(1, parse_register("tpe.0.0.psum"), 5)])
    assert out != golden.product
    assert rounds[0]["flag"]
    assert rounds[0]["predicted"] == 48
    assert rounds[0]["actual"] != 48


def test_actual_accumulator_flip_is_false_alarm(worked_example):
    cfg, a, w_dense, w = worked_example
    golden = golden_result(a, w_dense, cfg.col_out_width)
    out, rounds = run_with_faults(cfg, a, w, [FaultSpec(3, parse_register("cksum.actual"), 7)])
    assert out == golden.product          # array output untouched
    assert any(r["flag"] for r in rounds)


def test_ic_flip_corrupts_predicted_only(worked_example):
    cfg, a, w_dense, w = worked_example
    golden = golden_result(a, w_dense, cfg.col_out_width)
    out, rounds = run_with_faults(cfg, a, w, [FaultSpec(0, parse_register("ic.0.acc.0"), 4)])
    assert out == golden.product
    assert rounds[0]["actual"] == 48
    assert rounds[0]["predicted"] != 48
    assert rounds[0]["flag"]


def test_flag_cleared_in_round_after_transient(worked_example):
    """A transient flip flags only the round it lands in."""
    cfg, _, _, w = worked_example
    rng = np.random.default_rng(31)
    a = random_inputs(rng, 300, cfg.tile_k)  # two rounds
    out, rounds = run_with_faults(cfg, a, w, [FaultSpec(5, parse_register("tpe.0.0.psum"), 2)])
    assert [r["flag"] for r in rounds] == [True, False]


def test_checksum_equals_oracle_dot_product_per_round():
    rng = np.random.default_rng(41)
    cfg = ArrayConfig(rows=2, cols=4)
    for _ in range(10):
        a = random_inputs(rng, int(rng.integers(1, 200)), cfg.tile_k)
        w = random_weights(rng, cfg.tile_k, cfg.cols, cfg.pattern)
        run = run_multiplication(cfg, a, w)
        g = golden_result(a, unpack(w), cfg.col_out_width)
        assert len(run.rounds) == 1
        assert run.rounds[0].actual == run.rounds[0].predicted == g.total_checksum
