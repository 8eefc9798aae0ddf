"""The engine's working arrays come from a per-thread arena: results never
alias it, a trace sink may run another simulation, and warm runs leave the
heap alone."""

import io
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sparse_abft import ArrayConfig, FaultSpec, golden_result, parse_register
from sparse_abft import systolic
from sparse_abft.driver import reference_run, run_multiplication
from sparse_abft.systolic import SimState

from conftest import random_inputs, random_weights

WATCH = ["tpe.3.5.psum", "tpe.2.7.in.1", "ic.4.acc.2", "oc.31", "cksum.actual", "cksum.predicted"]


def operands(seed, a_rows=512):
    """A ``a_rows`` x 64 by 64 x 64 workload at 2:4: four tiles on the 8x32 array."""
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig()
    return cfg, random_inputs(rng, a_rows, 64), random_weights(rng, 64, 64, cfg.pattern)


def held_arrays(runs, tiles, states):
    """Every array a caller may hold after ``run_multiplication``, ``reference_run``
    and ``run_tile``: outputs, bottom-row sums, kept states and registers."""
    states = [*states, *(s for r in tiles for s in r.states or ())]
    return ([r.outputs.data for r in [*runs, *tiles]]
            + [r.bottoms for r in tiles if r.bottoms is not None]
            + [x for s in states for x in s._arrays()])


def test_results_never_alias_the_arena():
    """A second run of the same shape on other operands leaves every result,
    kept state and register of the first as it was, and none of them is a
    view of the thread's arena."""
    cfg, a, w = operands(1)
    fault = [FaultSpec(700, parse_register("tpe.1.2.psum"), 3)]
    run = run_multiplication(cfg, a, w, faults=fault)
    reference = reference_run(cfg, a, w)
    reused = run_multiplication(cfg, a, w, faults=fault, reference=reference)
    state, _, a_tile, w_tile = SimState(cfg), *reference.operands[1]
    tiles = [*reference.results, state.run_tile(a_tile, w_tile, keep=True),
             state.run_tile(a_tile, w_tile)]
    held = held_arrays([run, reused], tiles, [state])
    before = [x.copy() for x in held]

    _, a2, w2 = operands(2)
    other = reference_run(cfg, a2, w2)
    run_multiplication(cfg, a2, w2, faults=fault, reference=other)
    SimState(cfg).run_tile(*other.operands[0][1:])

    assert all(np.array_equal(x, y) for x, y in zip(held, before))
    arena = list(vars(systolic._ARENA).values())
    assert arena, "the runs above took their working arrays from the arena"
    assert not any(np.may_share_memory(x, b) for x in held for b in arena)
    assert run.outputs == reused.outputs
    assert run_multiplication(cfg, a, w, faults=fault, reference=reference).outputs == run.outputs
    golden = golden_result(a, w.dense, cfg.col_out_width)
    assert run_multiplication(cfg, a, w).outputs == golden


def test_trace_sink_may_run_another_simulation():
    """A sink whose ``write`` runs a multiplication gets the same trace lines,
    and the traced run the same outputs, as with a plain sink."""
    cfg, a, w = operands(3)
    _, a2, w2 = operands(4)
    watch = [parse_register(name) for name in WATCH]
    fault = [FaultSpec(900, parse_register("tpe.0.0.in.0"), 2)]
    nested = []

    class Nesting(io.StringIO):
        def write(self, text):
            nested.append(run_multiplication(cfg, a2, w2).outputs)
            return super().write(text)

    plain, nesting = io.StringIO(), Nesting()
    expected = run_multiplication(cfg, a, w, faults=fault, watch=watch, trace_sink=plain)
    run = run_multiplication(cfg, a, w, faults=fault, watch=watch, trace_sink=nesting)
    assert nesting.getvalue() == plain.getvalue() != ""
    assert run.outputs == expected.outputs
    assert [r.to_json_dict() for r in run.rounds] == [r.to_json_dict() for r in expected.rounds]
    golden = golden_result(a2, w2.dense, cfg.col_out_width)
    assert len(nested) > 4 and all(out == golden for out in nested)


FAULT_CHECK = """
import resource, statistics
import numpy as np
from sparse_abft import ArrayConfig, CampaignConfig, DenseMatrix, WorkloadSpec, prune_magnitude
from sparse_abft.campaign import run_campaign
from sparse_abft.driver import run_multiplication

cfg = ArrayConfig()
rng = np.random.default_rng(5)
a = DenseMatrix(256, 64, rng.integers(-128, 128, (256, 64)))
w = prune_magnitude(DenseMatrix(64, 64, rng.integers(-127, 128, (64, 64))), cfg.pattern)
campaigns = CampaignConfig(array=cfg, campaigns=1, fault_lo=1, fault_hi=5, master_seed=3,
                           workload=WorkloadSpec(a_rows=512))
calls = {"run": lambda i: run_multiplication(cfg, a, w),
         "campaign": lambda i: run_campaign(campaigns, i)}
faults = {name: [] for name in calls}
for i in range(23):
    for name, call in calls.items():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call(i)
        if i >= 3:     # after warm-up
            faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
for name, counts in faults.items():
    print(name, statistics.mean(counts), max(counts))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's ru_minflt")
def test_warm_runs_take_almost_no_page_faults(tmp_path):
    """In a fresh process, after warm-up, a serial run of the benchmark's
    ``run_tiled`` shape (256x64 by 64x64 at 2:4) and a serial synthetic 8x32
    campaign each take at most 5 minor page faults per call: their working
    arrays are not mapped afresh, and the heap is not trimmed under them."""
    script = tmp_path / "fault_check.py"
    script.write_text(FAULT_CHECK)
    src = str(pathlib.Path(systolic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    counts = {name: (float(mean), int(peak))
              for name, mean, peak in map(str.split, done.stdout.splitlines())}
    assert set(counts) == {"run", "campaign"}
    assert all(mean <= 5 for mean, _ in counts.values()), counts
