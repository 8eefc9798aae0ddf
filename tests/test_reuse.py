"""Faulty runs that take tiles and checksum rounds from a fault-free
reference run.

Every faulty run here is made twice, once simulating every cycle and once
with the ``reference_run`` of its workload, and the two must agree on
outputs, rounds and cycle count.
"""

import io
import pickle
from dataclasses import replace

import numpy as np
import pytest

from sparse_abft import (ArrayConfig, DenseMatrix, FaultSpec, SimState, enumerate_registers,
                         golden_result, parse_register)
from sparse_abft.driver import reference_run, run_multiplication, tile_operands
from sparse_abft.registers import RegKind
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4, SparsityPattern, prune_magnitude
from sparse_abft.systolic import _tile_schedule, tile_active_cycles

from conftest import as_dense, random_faults, random_inputs, random_weights

PATTERNS = [PATTERN_2_4, PATTERN_1_4, SparsityPattern(1, 3)]


def assert_reuse_exact(cfg, a, w, faults, reference):
    full = run_multiplication(cfg, a, w, faults=faults)
    reused = run_multiplication(cfg, a, w, faults=faults, reference=reference)
    assert reused.outputs == full.outputs
    assert [r.to_json_dict() for r in reused.rounds] == [r.to_json_dict() for r in full.rounds]
    assert (reused.flagged, reused.total_cycles) == (full.flagged, full.total_cycles)


def reference_snapshot(reference):
    """Every kept state's registers, scalars and round count, and every
    tile's bottom-row sums."""
    states = [s for r in reference.results for s in r.states]
    return ([([x.tolist() for x in s._arrays()], s.cycle, len(s.round_results),
              s.actual, s.predicted) for s in states],
            [r.bottoms.tolist() for r in reference.results])


def round_workload(seed):
    """Four tiles of three checksum rounds (16, 16 and 8 rows) on a 2x3 array."""
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(rows=2, cols=3, input_width=4, ic_width=8)
    a = random_inputs(rng, 40, 2 * cfg.tile_k, cfg.input_width)
    w = random_weights(rng, 2 * cfg.tile_k, 2 * cfg.cols, cfg.pattern, cfg.input_width)
    reference = reference_run(cfg, a, w)
    assert [len(r.rounds) for r in reference.results] == [3] * 4
    return cfg, a, w, reference, rng


def compare_cycles(cfg, a_rows, tile):
    """The cycle on which each round of ``tile`` compares."""
    start = tile * tile_active_cycles(cfg, a_rows)
    return [start + cut - 1 for cut in _tile_schedule(cfg, a_rows)[1]]


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
    w = prune_magnitude(as_dense(np.hstack([half, half])), cfg.pattern)
    a = as_dense(rng.integers(1, 8, size=(10, 2 * cfg.tile_k)))
    reference = reference_run(cfg, a, w)
    assert reference.operands[0][2] == reference.operands[1][2]
    per_tile = tile_active_cycles(cfg, a.rows)
    weights = [(reg, width) for reg, width in enumerate_registers(cfg).entries
               if reg.kind is RegKind.WEIGHT]
    for reg, width in weights:
        # the first tile's last cycle, anywhere in it, and anywhere in the second
        for cycle in (per_tile - 1, int(rng.integers(per_tile)), int(rng.integers(per_tile, 2 * per_tile))):
            faults = [FaultSpec(cycle, reg, int(rng.integers(width)))]
            assert_reuse_exact(cfg, a, w, faults, reference)
    # faulty runs leave the reference as they found it: every state it keeps
    # (at each tile's start and after each round) and the bottoms
    assert reference_snapshot(reference) == reference_snapshot(reference_run(cfg, a, w))
    # a flip on the first tile's last cycle changes only the second tile's columns
    late = run_multiplication(cfg, a, w, faults=[FaultSpec(per_tile - 1, weights[0][0], 2)],
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
            results = reference_run(cfg, a, w).results
            for start in [r.states[0] for r in results] + [results[-1].states[-1]]:
                assert (start.actual, start.predicted) == (0, 0)
                assert not any(x.any() for x in (start.pipe, start.psum, start.ic, start.oc))


def test_only_tiles_a_fault_reaches_are_simulated(monkeypatch):
    rng = np.random.default_rng(8)
    cfg, a, w = random_workload(rng, PATTERN_2_4)
    reference = reference_run(cfg, a, w)
    tiles = len(reference.results)
    per_tile = tile_active_cycles(cfg, a.rows)
    clocked = set()     # the tiles in which some cycle is clocked
    advance = SimState._advance
    monkeypatch.setattr(SimState, "_advance", lambda self, *args: clocked.add(self.cycle // per_tile)
                        or advance(self, *args))
    regs = [reg for reg, _ in enumerate_registers(cfg).entries]
    pipe = next(reg for reg in regs if reg.kind is RegKind.INPUT_PIPE)
    weight = next(reg for reg in regs if reg.kind is RegKind.WEIGHT)

    def simulated_tiles(faults, **kwargs):
        clocked.clear()
        run_multiplication(cfg, a, w, faults=faults, reference=reference, **kwargs)
        return sorted(clocked)

    assert simulated_tiles([]) == []
    assert simulated_tiles([FaultSpec(per_tile * tiles - 1, pipe, 0)]) == [tiles - 1]
    # a pipe flip early in tile 1 has drained by its end: the rest is copied
    assert simulated_tiles([FaultSpec(per_tile, pipe, 0)]) == [1]
    # a weight flip on tile 0's last cycle: loading the next, different W
    # tile overwrites it, so the run is back in step from tile 1 on
    assert reference.operands[0][2] != reference.operands[1][2]
    assert simulated_tiles([FaultSpec(per_tile - 1, weight, 0)]) == [0]
    # a traced run clocks every cycle
    sink = io.StringIO()
    assert len(simulated_tiles([], watch=[pipe], trace_sink=sink)) == tiles
    assert len(sink.getvalue().splitlines()) == per_tile * tiles


def test_faults_on_and_after_a_compare_cycle():
    """A flip on a round's compare cycle lands after that round's last edge:
    it cannot change the round's bottoms or result, but the round ends out
    of step with the reference. A flip on the next cycle lands in the next
    round."""
    cfg, a, w, reference, rng = round_workload(12)
    window = 4 * tile_active_cycles(cfg, a.rows)
    for tile in range(4):
        for compare in compare_cycles(cfg, a.rows, tile):
            for cycle in (c for c in (compare, compare + 1) if c < window):
                for kind in RegKind:
                    faults = [FaultSpec(cycle, f.register, f.bit)
                              for f in random_faults(rng, cfg, 1, 2, kinds=(kind,))]
                    assert_reuse_exact(cfg, a, w, faults, reference)
    assert reference_snapshot(reference) == reference_snapshot(round_workload(12)[3])


def test_restart_keeps_the_runs_own_round_results(monkeypatch):
    """Flips of the actual checksum in rounds 0 and 2 of tile 1: round 0
    flags and ends in the reference's state, and taking round 1 from it
    keeps the run's flagged round 0, not the clean one of the reference
    state it takes; round 2 is clocked from there."""
    cfg, a, w, reference, _ = round_workload(13)
    compares = compare_cycles(cfg, a.rows, 1)
    actual = parse_register("cksum.actual")
    faults = [FaultSpec(compares[0] - 4, actual, 0), FaultSpec(compares[2] - 4, actual, 1)]
    assert_reuse_exact(cfg, a, w, faults, reference)
    clocked = []
    advance = SimState._advance
    monkeypatch.setattr(SimState, "_advance",
                        lambda self, seg, *args: clocked.append(len(seg.west)) or advance(self, seg, *args))
    run = run_multiplication(cfg, a, w, faults=faults, reference=reference)
    assert [r.flag for r in run.rounds] == [False] * 3 + [True, False, True] + [False] * 6
    cuts = _tile_schedule(cfg, a.rows)[1]
    assert sum(clocked) == cuts[0] + cuts[2] - cuts[1]


@pytest.mark.parametrize("kind", [RegKind.WEIGHT, RegKind.IC_ACC], ids=lambda k: k.value)
def test_fault_effect_outlives_its_round(kind):
    """A weight flip holds until the next weight load, and an IC flip after
    a PE row's last digit wave of a round is summed into the next round's
    checksum: the run must not re-sync at the cut between them."""
    cfg, a, w, reference, rng = round_workload(14)
    entries = [(reg, width) for reg, width in enumerate_registers(cfg).entries if reg.kind is kind]
    later_flags = 0
    for tile in range(4):
        compares = compare_cycles(cfg, a.rows, tile)
        for compare in compares[:-1]:
            # from the round's last digit waves, through its compare, into the next round
            for cycle in range(compare - cfg.rows - cfg.cols - 3, compare + 3):
                reg, width = entries[rng.integers(len(entries))]
                faults = [FaultSpec(cycle, reg, int(rng.integers(width)))]
                assert_reuse_exact(cfg, a, w, faults, reference)
                run = run_multiplication(cfg, a, w, faults=faults)
                after = next(q for q, c in enumerate(compares) if c >= cycle) + 1
                later_flags += any(r.flag for r in run.rounds[3 * tile + after:3 * tile + 3])
    assert later_flags > 0


def test_pipe_flip_in_a_last_round_clocks_only_that_round(monkeypatch):
    cfg, a, w, reference, _ = round_workload(15)
    per_tile = tile_active_cycles(cfg, a.rows)
    cuts = _tile_schedule(cfg, a.rows)[1]
    pipe = next(reg for reg, _ in enumerate_registers(cfg).entries if reg.kind is RegKind.INPUT_PIPE)
    faults = [FaultSpec(per_tile + cuts[-2] + 1, pipe, 0)]
    assert_reuse_exact(cfg, a, w, faults, reference)
    clocked, simulated = [], set()
    advance = SimState._advance
    monkeypatch.setattr(SimState, "_advance", lambda self, seg, *args: clocked.append(len(seg.west))
                        or simulated.add(self.cycle // per_tile) or advance(self, seg, *args))
    run_multiplication(cfg, a, w, faults=faults, reference=reference)
    assert simulated == {1}
    assert sum(clocked) == cuts[-1] - cuts[-2]


def test_restart_keeps_the_runs_watch_list_and_trace_sink():
    """Taking a kept reference state keeps the run's own watch list and
    trace sink: the cycles it clocks after a taken round are traced."""
    cfg, a, w, reference, _ = round_workload(16)
    (_, a_tile, w_tile), cuts = reference.operands[0], _tile_schedule(cfg, a.rows)[1]
    actual, sink = parse_register("cksum.actual"), io.StringIO()
    state = SimState(cfg)
    state.watch, state.trace_sink = [actual], sink
    state.schedule_faults([FaultSpec(cuts[1] - 2, actual, 0)])
    state.run_tile(a_tile, w_tile, reference.results[0])
    assert (state.watch, state.trace_sink) == ([actual], sink)
    # round 0 is taken, round 1 clocked, and round 2 taken again
    traced = [int(line.split(",")[0]) for line in sink.getvalue().splitlines()]
    assert traced == list(range(cuts[0], cuts[1]))


def test_the_reference_is_read_only():
    """A kept run's bottom-row sums and its kept states' register arrays are
    read-only, so no reusing run can change the reference in place; a state
    that takes one gets writable copies."""
    cfg, a, w, reference, _ = round_workload(17)
    for result in reference.results:
        for x in (result.bottoms, *(x for s in result.states for x in s._arrays())):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[(0,) * x.ndim] = 1
        for s in result.states:   # the corners too: a kept state's accumulators cannot add
            with pytest.raises(ValueError):
                s.actual_accumulate(1)
            with pytest.raises(ValueError):
                s.predicted_accumulate(1)
    state = SimState(cfg)
    state.take(reference.results[0].states[-1])
    assert all(x.flags.writeable for x in state._arrays())


def test_a_pickled_reference_stays_read_only():
    """A spawned campaign child gets its ``Reference`` pickled: every kept
    array comes back read-only, and reusing runs on it repeat the original's."""
    cfg, a, w, reference, rng = round_workload(17)
    copy = pickle.loads(pickle.dumps(reference))
    for result in copy.results:
        for x in (result.bottoms, *(x for s in result.states for x in s._arrays())):
            assert not x.flags.writeable
    assert reference_snapshot(copy) == reference_snapshot(reference)
    window = tile_active_cycles(cfg, a.rows) * len(reference.results)
    for faults in ([], *(random_faults(rng, cfg, window, 3) for _ in range(4))):
        original, unpickled = (run_multiplication(cfg, a, w, faults=faults, reference=r)
                               for r in (reference, copy))
        assert unpickled.outputs == original.outputs
        assert [r.to_json_dict() for r in unpickled.rounds] == \
            [r.to_json_dict() for r in original.rounds]
        assert unpickled.total_cycles == original.total_cycles


def other_inputs_workload(seed, cfg):
    """A 6x16 A and a 16x8 W of values in [-100, 100): four tiles on a 2x4 array."""
    rng = np.random.default_rng(seed)
    a = DenseMatrix(6, 16, rng.integers(-100, 100, size=(6, 16)))
    return a, prune_magnitude(DenseMatrix(16, 8, rng.integers(-100, 100, size=(16, 8))),
                              cfg.pattern)


def test_a_reference_for_other_operands_is_refused():
    """A reference holds its own tile operands, so one run on A1 W1 would
    return A1 W1 for A2 W2, with no flag."""
    cfg = ArrayConfig(rows=2, cols=4)
    a1, w1 = other_inputs_workload(1, cfg)
    a2, w2 = other_inputs_workload(2, cfg)
    reference = reference_run(cfg, a1, w1)
    for a, w in ((a2, w2), (a1, w2), (a2, w1)):
        with pytest.raises(ValueError, match="reference was run on other inputs"):
            run_multiplication(cfg, a, w, reference=reference)
    copies = DenseMatrix(6, 16, a1.data), prune_magnitude(w1.dense, cfg.pattern)
    assert run_multiplication(cfg, *copies, reference=reference).outputs == \
        golden_result(a1, w1.dense, cfg.col_out_width)


def test_a_tile_reference_for_another_a_tile_is_refused():
    """The weight load matches, so without the check the run took the whole
    tile and returned the reference itself."""
    cfg = ArrayConfig(rows=2, cols=4)
    a1, w = other_inputs_workload(1, cfg)
    a2, _ = other_inputs_workload(2, cfg)
    (_, a1_tile, w_tile), (_, a2_tile, _) = (tile_operands(cfg, a, w)[0] for a in (a1, a2))
    reference = SimState(cfg).run_tile(a1_tile, w_tile, keep=True)
    with pytest.raises(ValueError, match="reference was run on other inputs"):
        SimState(cfg).run_tile(a2_tile, w_tile, reference=reference)
    copy = DenseMatrix(*a1_tile.data.shape, a1_tile.data)
    assert SimState(cfg).run_tile(copy, w_tile, reference=reference) is reference


def test_a_reference_for_another_config_is_refused():
    """Narrow chain widths flag this workload, and taking a reference run on
    the default widths took its clean rounds and its config."""
    cfg = ArrayConfig(rows=2, cols=4)
    narrow = replace(cfg, col_out_width=12, oc_width=12)
    a, w = other_inputs_workload(3, cfg)
    assert run_multiplication(narrow, a, w).flagged
    with pytest.raises(ValueError, match="reference was run on other inputs"):
        run_multiplication(narrow, a, w, reference=reference_run(cfg, a, w))
    equal = run_multiplication(replace(cfg), a, w, reference=reference_run(cfg, a, w))
    assert equal.outputs == golden_result(a, w.dense, cfg.col_out_width)
