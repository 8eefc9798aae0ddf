import collections

import numpy as np
import pytest

from sparse_abft import (
    ArrayConfig,
    SimState,
    enumerate_registers,
    parse_register,
    sample_faults,
)
from sparse_abft.faults import derive_seed, silent_pipe_targets
from sparse_abft.registers import Owner, RegisterId, RegKind
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4, SparsityPattern

from conftest import random_weights


def test_sample_count_and_window():
    rm = enumerate_registers(ArrayConfig())
    specs = sample_faults(1, rm, 1, 500)
    assert len(specs) == 1
    specs = sample_faults(2, rm, 50, 500)
    assert len(specs) == 50
    for spec in specs:
        assert 0 <= spec.cycle < 500
        assert 0 <= spec.bit < rm.width_of(spec.register)


def test_sample_determinism():
    rm = enumerate_registers(ArrayConfig())
    assert sample_faults(42, rm, 10, 300) == sample_faults(42, rm, 10, 300)
    assert sample_faults(42, rm, 10, 300) != sample_faults(43, rm, 10, 300)


def test_sample_bit_weighted_owner_ratio():
    """Array hit rate must track the storage-volume split (93.4% default)."""
    rm = enumerate_registers(ArrayConfig())
    expected = rm.array_bits / rm.total_bits
    specs = sample_faults(7, rm, 10_000, 1000)
    hits = sum(1 for s in specs if s.register.owner is Owner.ARRAY)
    assert abs(hits / 10_000 - expected) < 0.01
    assert abs(expected - 0.934) < 0.001


def test_sample_covers_register_kinds():
    rm = enumerate_registers(ArrayConfig(rows=2, cols=2))
    kinds = collections.Counter(s.register.kind for s in sample_faults(3, rm, 3000, 10))
    for kind in (RegKind.WEIGHT, RegKind.INDEX, RegKind.INPUT_PIPE, RegKind.PSUM,
                 RegKind.IC_ACC, RegKind.OC_PIPE):
        assert kinds[kind] > 0


def test_sample_errors():
    rm = enumerate_registers(ArrayConfig())
    with pytest.raises(ValueError):
        sample_faults(1, rm, 1, 0)


def test_inject_flip_semantics(worked_example):
    cfg, _, _, w = worked_example
    state = SimState(cfg)
    state.load_weights(w)
    reg = parse_register("tpe.0.0.psum")
    state.write_register(reg, 48)
    state.flip_register_bit(reg, 0)
    assert state.read_register(reg) == 49
    state.flip_register_bit(reg, 0)
    assert state.read_register(reg) == 48  # involution


def test_inject_unknown_register(tiny_cfg):
    state = SimState(tiny_cfg)
    with pytest.raises(ValueError):
        state.flip_register_bit(RegisterId(RegKind.PSUM, 5, 5), 0)


def test_derive_seed_is_stable_and_contextual():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1, 2, "faults") != derive_seed(1, 2, "workload")
    # frozen value guards against accidental derivation changes that would
    # break campaign reproducibility across releases
    assert derive_seed(42, 0) == 0x547345CAE1CEF372


def loop_silent_pipe_targets(cfg, w_tile):
    """The former loop form of silent_pipe_targets, kept as its reference."""
    targets = []
    for r in range(cfg.rows):
        for lane in range(cfg.pattern.m):
            last_selected = -1
            for c in range(cfg.cols):
                for j in range(int(w_tile.counts[r, c])):
                    if int(w_tile.indexes[r, c, j]) == lane and int(w_tile.values[r, c, j]) != 0:
                        last_selected = c
            for c in range(last_selected + 1, cfg.cols):
                targets.append(RegisterId(RegKind.INPUT_PIPE, r, c, lane))
    return targets


def test_silent_pipe_targets_match_loop_reference():
    rng = np.random.default_rng(4)
    for pattern in (PATTERN_2_4, PATTERN_1_4, SparsityPattern(1, 3)):
        for _ in range(40):
            cfg = ArrayConfig(rows=int(rng.integers(1, 5)), cols=int(rng.integers(1, 9)),
                              pattern=pattern)
            # narrow weights make zero columns, and so silent lanes, common
            w = random_weights(rng, cfg.tile_k, cfg.cols, pattern, width=2)
            assert silent_pipe_targets(cfg, w) == loop_silent_pipe_targets(cfg, w)
