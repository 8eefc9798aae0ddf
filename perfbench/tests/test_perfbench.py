"""Fast checks of the benchmark itself: metrics emitted, gate, traced path.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

run.import_program()
import tracing  # noqa: E402
import workloads  # noqa: E402
from sparse_abft import campaign, config, driver, sparsity  # noqa: E402

# minimal sizes: every phase still runs at least once
SMALL = {
    "campaign_acceptance": {"campaigns_per_request": 4, "reference_campaigns": 4,
                            "serial_requests": 1, "serial_campaigns": 1},
    "campaign_files": {"campaigns_per_request": 4, "reference_campaigns": 4,
                       "serial_requests": 1, "serial_campaigns": 1},
    "run_tiled": {"serial_requests": 2},
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "STEP_PROBE_CYCLES", 20)
    for name, sizes in SMALL.items():
        for attr, value in sizes.items():
            monkeypatch.setattr(workloads.WORKLOADS[name], attr, value)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted(small, name, trace):
    result = run.measure(name, seed=3, seconds=0, trace=trace)
    kind = "per_layer" if trace else "end_to_end"
    names = {spec["name"] for spec in run.metric_specs()[kind]}
    assert set(result["metrics"]) == names
    assert all(math.isfinite(v) for v in result["metrics"].values())
    assert result["ledger"].failed == 0, result["ledger"].problems
    assert result["simulated"]


@pytest.mark.parametrize("trace", [0, 1])
def test_main_ends_with_the_result_line(small, capsys, trace):
    assert run.main(["--workload", "run_tiled", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    specs = run.metric_specs()["per_layer" if trace else "end_to_end"]
    assert line["metrics"] == {
        s["name"]: {"value": line["metrics"][s["name"]]["value"], "unit": s["unit"]} for s in specs}


def test_gate_fails_on_a_corrupted_run_output(tmp_path):
    wl = workloads.RunTiled(tmp_path, workers=1)
    ctx = wl.prepare(5, 0)
    code = wl.request(ctx, 1)
    assert wl.check(ctx, code) is None
    lines = ctx["out"].read_text().splitlines()
    row = lines[7].split()
    row[3] = str(int(row[3]) + 1)
    lines[7] = " ".join(row)
    ctx["out"].write_text("\n".join(lines) + "\n")
    assert wl.check(ctx, code) == "output differs from oracle.matmul_ref"
    assert wl.check(ctx, 1) == "run exited 1"


def test_gate_fails_when_a_pooled_outcome_differs_from_serial(tmp_path):
    wl = workloads.CampaignAcceptance(tmp_path, workers=2)
    cfgs = wl.prepare(5, 0, 4)
    batches = wl.request(cfgs, 2)
    assert wl.check(cfgs, batches) is None
    seed = cfgs[0].master_seed
    sampled = batches[seed % len(cfgs)][seed % 4]
    sampled.flags = [not f for f in sampled.flags]
    assert "differs from serial" in wl.check(cfgs, batches)


def test_traced_run_campaign_matches_untraced_and_restores_the_program():
    cfg = campaign.CampaignConfig(
        array=config.ArrayConfig(pattern=sparsity.SparsityPattern.parse("1:4")), campaigns=8,
        fault_lo=1, fault_hi=5, master_seed=11, workload=campaign.WorkloadSpec(a_rows=300))
    original = campaign.run_multiplication
    untraced = [campaign.run_campaign(cfg, i).to_json_dict() for i in range(3)]
    tracer = tracing.Tracer()
    with tracer:
        assert campaign.run_multiplication is not original
        traced = [campaign.run_campaign(cfg, i).to_json_dict() for i in range(3)]
    assert traced == untraced
    assert campaign.run_multiplication is original is driver.run_multiplication
    summary = tracing.summarize(tracer.spans)
    assert summary["calls"]["campaign.run_campaign"] == 3
    assert summary["calls"]["systolic.SimState.run_tile"] == 3
    assert tracer.counts["systolic.cycles"] == 3 * driver.total_active_cycles(
        cfg.array, 300, cfg.array.tile_k, cfg.array.cols)
    assert summary["calls"]["checker.CheckerState.compare_and_reset"] == tracer.counts["checker.rounds"]
    # self times of all layers add up to the time under the root spans
    assert math.isclose(sum(summary["layer_self_s"].values()), summary["root_s"], rel_tol=1e-9)


def test_benchmark_json_names_every_metric_once():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
