"""Faulty runs that take tiles from a fault-free reference run.

Every faulty run here is made twice, once simulating every tile and once
with the ``reference_run`` of its workload, and the two must agree on
outputs, rounds and cycle count.
"""

import io

import numpy as np
import pytest

from sparse_abft import ArrayConfig, DenseMatrix, FaultSpec, SimState, enumerate_registers
from sparse_abft.driver import reference_run, run_multiplication
from sparse_abft.registers import RegKind
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4, SparsityPattern, prune_magnitude
from sparse_abft.systolic import tile_active_cycles

from conftest import random_faults, random_inputs, random_weights

PATTERNS = [PATTERN_2_4, PATTERN_1_4, SparsityPattern(1, 3)]


def assert_reuse_exact(cfg, a, w, faults, reference):
    full = run_multiplication(cfg, a, w, faults=faults)
    reused = run_multiplication(cfg, a, w, faults=faults, reference=reference)
    assert reused.outputs == full.outputs
    assert [r.to_json_dict() for r in reused.rounds] == [r.to_json_dict() for r in full.rounds]
    assert (reused.flagged, reused.total_cycles) == (full.flagged, full.total_cycles)


def random_workload(rng, pattern):
    """4-bit operands on a small array, chunked along k and along columns."""
    cfg = ArrayConfig(rows=int(rng.integers(1, 4)), cols=int(rng.integers(1, 5)),
                      pattern=pattern, input_width=4, ic_width=8)
    k = int(rng.integers(cfg.tile_k + 1, 3 * cfg.tile_k + 1))
    cols = int(rng.integers(cfg.cols + 1, 3 * cfg.cols + 1))
    a = random_inputs(rng, int(rng.integers(1, 40)), k, cfg.input_width)
    return cfg, a, random_weights(rng, k, cols, pattern, cfg.input_width)


@pytest.mark.parametrize("pattern", PATTERNS, ids=str)
def test_reuse_matches_full_simulation(pattern):
    rng = np.random.default_rng(20261018)
    for _ in range(6):
        cfg, a, w = random_workload(rng, pattern)
        reference = reference_run(cfg, a, w)
        per_tile = tile_active_cycles(cfg, a.rows)
        window = per_tile * len(reference.results)
        fault_sets = [random_faults(rng, cfg, window, int(rng.integers(1, 6))) for _ in range(4)]
        fault_sets += [random_faults(rng, cfg, window, 2, kinds=(kind,)) for kind in RegKind]
        for end in range(per_tile, window + 1, per_tile):
            # several faults in one cycle: a tile's last, or the next tile's first
            for cycle in (end - 1, end % window):
                fault_sets.append([FaultSpec(cycle, f.register, f.bit)
                                   for f in random_faults(rng, cfg, 1, 3)])
        for faults in fault_sets:
            assert_reuse_exact(cfg, a, w, faults, reference)


def test_weight_fault_carried_into_equal_next_w_tile():
    """Both column chunks of W are equal, so the second tile keeps the
    weights the first left resident, with the fault in them."""
    rng = np.random.default_rng(4)
    cfg = ArrayConfig(rows=2, cols=3, input_width=4, ic_width=8)
    half = rng.integers(1, 8, size=(2 * cfg.tile_k, cfg.cols))
    w = prune_magnitude(DenseMatrix.from_array(np.hstack([half, half])), cfg.pattern)
    a = DenseMatrix.from_array(rng.integers(1, 8, size=(10, 2 * cfg.tile_k)))
    reference = reference_run(cfg, a, w)
    assert reference.operands[0][2] == reference.operands[1][2]
    per_tile = tile_active_cycles(cfg, a.rows)
    weights = [e for e in enumerate_registers(cfg).entries if e.reg.kind is RegKind.WEIGHT]
    for entry in weights:
        # the first tile's last cycle, anywhere in it, and anywhere in the second
        for cycle in (per_tile - 1, int(rng.integers(per_tile)), int(rng.integers(per_tile, 2 * per_tile))):
            faults = [FaultSpec(cycle, entry.reg, int(rng.integers(entry.width_bits)))]
            assert_reuse_exact(cfg, a, w, faults, reference)
    # faulty runs leave the reference as they found it
    assert [[x.tolist() for x in start._arrays()] for start in reference.starts] == [
        [x.tolist() for x in start._arrays()] for start in reference_run(cfg, a, w).starts]
    # a flip on the first tile's last cycle changes only the second tile's columns
    late = run_multiplication(cfg, a, w, faults=[FaultSpec(per_tile - 1, weights[0].reg, 2)],
                              reference=reference).outputs.data
    clean = run_multiplication(cfg, a, w).outputs.data
    assert np.array_equal(late[:, :cfg.cols], clean[:, :cfg.cols])
    assert not np.array_equal(late[:, cfg.cols:], clean[:, cfg.cols:])


def test_fault_free_tile_boundaries_hold_no_dynamic_state():
    """The drain empties the pipes, the partial sums, the IC and OC
    registers and the corner accumulators before every tile boundary."""
    rng = np.random.default_rng(6)
    for pattern in PATTERNS:
        for _ in range(4):
            cfg, a, w = random_workload(rng, pattern)
            for start in reference_run(cfg, a, w).starts:
                ck = start.checker
                assert (ck.actual, ck.predicted) == (0, 0)
                assert not any(x.any() for x in (start.pipe, start.psum, ck.ic, ck.oc))


def test_only_tiles_a_fault_reaches_are_simulated(monkeypatch):
    rng = np.random.default_rng(8)
    cfg, a, w = random_workload(rng, PATTERN_2_4)
    reference = reference_run(cfg, a, w)
    tiles = len(reference.results)
    per_tile = tile_active_cycles(cfg, a.rows)
    simulated = []
    run_tile = SimState.run_tile
    monkeypatch.setattr(SimState, "run_tile",
                        lambda self, *args: simulated.append(self.cycle) or run_tile(self, *args))
    pipe = next(e.reg for e in enumerate_registers(cfg).entries if e.reg.kind is RegKind.INPUT_PIPE)

    def simulated_starts(faults, **kwargs):
        simulated.clear()
        run_multiplication(cfg, a, w, faults=faults, reference=reference, **kwargs)
        return simulated

    assert simulated_starts([]) == []
    assert simulated_starts([FaultSpec(per_tile * tiles - 1, pipe, 0)]) == [per_tile * (tiles - 1)]
    # a pipe flip early in tile 1 has drained by its end: the rest is copied
    assert simulated_starts([FaultSpec(per_tile, pipe, 0)]) == [per_tile]
    # a traced run clocks every cycle
    sink = io.StringIO()
    assert len(simulated_starts([], watch=[pipe], trace_sink=sink)) == tiles
    assert len(sink.getvalue().splitlines()) == per_tile * tiles
