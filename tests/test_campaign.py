import collections
import dataclasses
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from sparse_abft import (
    ArrayConfig,
    CampaignConfig,
    FaultSpec,
    OutcomeCategory,
    SparsityPattern,
    WorkloadSpec,
    aggregate,
    classify,
    run_campaign,
    run_campaigns,
    write_dense,
    write_packed,
)
from sparse_abft import campaign
from sparse_abft.campaign import CategoryStats, render_stats_table, worker_count
from sparse_abft.registers import RegisterId, RegKind
from sparse_abft.sparsity import ShapeError

from conftest import count_children, random_inputs, random_weights

ARRAY_REG = RegisterId(RegKind.PSUM, 0, 0)
CHECKER_REG = RegisterId(RegKind.OC_PIPE, col=0)


def spec_at(reg):
    return FaultSpec(0, reg, 0)


# ----------------------------------------------------------------------
# classification table

@pytest.mark.parametrize(
    "faults,flagged,expected",
    [
        ([spec_at(ARRAY_REG)], True, OutcomeCategory.DETECTED),
        ([spec_at(ARRAY_REG)], False, OutcomeCategory.SILENT),
        ([spec_at(CHECKER_REG)], True, OutcomeCategory.FALSE_POSITIVE),
        ([spec_at(CHECKER_REG)], False, OutcomeCategory.BENIGN),
        ([spec_at(ARRAY_REG), spec_at(CHECKER_REG)], True, OutcomeCategory.DETECTED),
        ([spec_at(ARRAY_REG), spec_at(CHECKER_REG)], False, OutcomeCategory.FALSE_NEGATIVE),
        ([], False, OutcomeCategory.BENIGN),
    ],
)
def test_classify_table(faults, flagged, expected):
    flags = [flagged] if faults or flagged else []
    assert classify(faults, flags) is expected


# ----------------------------------------------------------------------
# campaign execution

def small_campaign(mode="2:4", lo=1, hi=1, seed=42, campaigns=30, a_rows=64):
    return CampaignConfig(
        array=ArrayConfig(rows=2, cols=4, pattern=SparsityPattern.parse(mode)),
        campaigns=campaigns,
        fault_lo=lo,
        fault_hi=hi,
        master_seed=seed,
        workload=WorkloadSpec(a_rows=a_rows),
    )


def test_zero_faults_always_benign():
    cfg = small_campaign(lo=0, hi=0, campaigns=10)
    for i in range(10):
        outcome = run_campaign(cfg, i)
        assert outcome.category is OutcomeCategory.BENIGN
        assert not any(outcome.flags)
        assert not outcome.output_corrupted


def test_single_fault_never_false_negative():
    cfg = small_campaign(campaigns=60)
    outcomes = [run_campaign(cfg, i) for i in range(60)]
    cats = collections.Counter(o.category for o in outcomes)
    assert cats[OutcomeCategory.FALSE_NEGATIVE] == 0
    assert cats[OutcomeCategory.DETECTED] > 0
    # classification soundness: a flag plus an array fault is Detected, a
    # flag without one is FalsePositive
    for o in outcomes:
        if o.category is OutcomeCategory.FALSE_POSITIVE:
            assert all(f.register.owner.value == "checker" for f in o.faults)


def test_campaign_determinism_and_fault_counts():
    cfg = small_campaign(lo=1, hi=5, campaigns=20)
    first = [run_campaign(cfg, i) for i in range(20)]
    second = [run_campaign(cfg, i) for i in range(20)]
    assert [(o.category, o.faults, o.flags) for o in first] == [
        (o.category, o.faults, o.flags) for o in second
    ]
    assert all(1 <= len(o.faults) <= 5 for o in first)
    assert {len(o.faults) for o in first} != {1}


def test_fault_specs_pair_across_sparsity_modes():
    """Identical seeds must place identical faults in both modes."""
    a = [run_campaign(small_campaign("2:4"), i).faults for i in range(10)]
    b = [run_campaign(small_campaign("1:4"), i).faults for i in range(10)]
    assert a == b


def multi_tile_files(tmp_path, campaigns, lo=1, hi=3, seed=5):
    """A file workload of four tiles (two k chunks, two column chunks) on a 2x4 array."""
    arr = ArrayConfig(rows=2, cols=4)
    rng = np.random.default_rng(seed)
    a_path, w_path = tmp_path / "a.mat", tmp_path / "w.smat"
    write_dense(a_path, random_inputs(rng, 24, 2 * arr.tile_k))
    write_packed(w_path, random_weights(rng, 2 * arr.tile_k, 2 * arr.cols, arr.pattern))
    return CampaignConfig(arr, campaigns, lo, hi, seed,
                          WorkloadSpec(a_path=str(a_path), w_path=str(w_path)))


@pytest.mark.parametrize("workers,campaigns,children", [
    *((workers, campaigns, 0) for workers in (2, 3) for campaigns in range(4, 8)),
    *((workers, campaigns, 0) for workers in (2, 3) for campaigns in (8, 16, 31)),
    (3, 11, 0),
    (3, 12, 0),
    (2, 32, 1),
    (3, 48, 2),
])
def test_every_share_holds_at_least_four_campaigns(monkeypatch, workers, campaigns, children):
    """Every share holds at least 16 campaigns: below 32 campaigns a child
    costs more CPU than it saves in wall time, so none is started."""
    started = count_children(monkeypatch)
    outcomes = run_campaigns(small_campaign(campaigns=campaigns, a_rows=8), workers=workers)
    assert len(started) == children
    assert [o.index for o in outcomes] == list(range(campaigns))
    assert multiprocessing.active_children() == []


# the parallel calls below that start children; every other one runs serially
CHILDREN = {("synthetic", 2, 32): 1, ("synthetic", 3, 32): 1, ("synthetic", 2, 48): 1,
            ("synthetic", 3, 48): 2, ("files", 2, 32): 1, ("files", 3, 48): 2}


@pytest.mark.parametrize("kind,workers,campaigns", [
    *(("synthetic", workers, campaigns) for workers in (2, 3)
      for campaigns in (4, 5, 8, 9, 12, 31, 32, 48)),
    ("files", 3, 5),
    ("files", 3, 8),
    ("files", 3, 31),
    ("files", 2, 32),
    ("files", 3, 48),
])
def test_run_campaigns_parallel_matches_serial(tmp_path, monkeypatch, kind, workers, campaigns):
    if kind == "files":
        cfg = multi_tile_files(tmp_path, campaigns)
    else:
        cfg = small_campaign(lo=1, hi=3, campaigns=campaigns, a_rows=8)
    serial = run_campaigns(cfg, workers=1)
    started = count_children(monkeypatch)
    parallel = run_campaigns(cfg, workers=workers)
    assert [o.to_json_dict() for o in parallel] == [o.to_json_dict() for o in serial]
    assert len(started) == CHILDREN.get((kind, workers, campaigns), 0)
    assert multiprocessing.active_children() == []


SPAWN_CHECK = """
import multiprocessing, sys
from sparse_abft import ArrayConfig, CampaignConfig, WorkloadSpec, campaign, run_campaigns


class Counted(multiprocessing.Process):
    started = 0

    def start(self):
        Counted.started += 1
        super().start()


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    campaign.multiprocessing.Process = Counted
    synthetic = CampaignConfig(ArrayConfig(rows=2, cols=4), 32, 1, 3, 42, WorkloadSpec(a_rows=8))
    files = CampaignConfig(ArrayConfig(rows=2, cols=4), 32, 1, 3, 5,
                           WorkloadSpec(a_path=sys.argv[1], w_path=sys.argv[2]))
    for cfg in (synthetic, files):
        serial = [o.to_json_dict() for o in run_campaigns(cfg, workers=1)]
        before = Counted.started
        spawned = [o.to_json_dict() for o in run_campaigns(cfg, workers=2)]
        assert Counted.started == before + 1, cfg.workload.kind
        assert spawned == serial, cfg.workload.kind
        assert multiprocessing.active_children() == []
    print(multiprocessing.get_start_method(), "ok")
"""


def test_run_campaigns_under_spawn_matches_serial(tmp_path):
    """Children started with spawn unpickle the config, their share and the
    file workload's shared data (with its ``Reference``) instead of
    inheriting them."""
    workload = multi_tile_files(tmp_path, 32).workload
    script = tmp_path / "spawn_check.py"    # a file, so spawned children can import ``Counted``
    script.write_text(SPAWN_CHECK)
    src = str(pathlib.Path(campaign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(script), workload.a_path, workload.w_path],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["spawn", "ok"]


def fail_at(monkeypatch, index, fail):
    """Make ``run_campaign`` call ``fail()`` for campaign ``index``."""
    real = campaign.run_campaign

    def patched(cfg, i, workload=None):
        if i == index:
            fail()
        return real(cfg, i, workload)
    monkeypatch.setattr(campaign, "run_campaign", patched)


def raiser(exc):
    def fail():
        raise exc
    return fail


# one per CLI exit code: ValueError -> 2, OSError -> 3, ShapeError -> 4
@pytest.mark.parametrize("exc", [
    ValueError("all dimensions must be at least 1"),
    FileNotFoundError(2, "No such file or directory", "a.mat"),
    ShapeError("inner dimensions differ: A has 3, W has 4"),
], ids=["ValueError", "OSError", "ShapeError"])
def test_child_exception_reraised_with_type_and_message(monkeypatch, exc):
    fail_at(monkeypatch, 3, raiser(exc))    # index 3 is in the child's share at 2 workers
    started = count_children(monkeypatch)
    with pytest.raises(type(exc)) as excinfo:
        run_campaigns(small_campaign(campaigns=32, a_rows=8), workers=2)
    assert type(excinfo.value) is type(exc)
    assert str(excinfo.value) == str(exc)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def exit_in_child():
    """End a child process without a reply; in the caller (the test process
    itself, should the call run serially) do nothing."""
    if multiprocessing.parent_process() is not None:
        os._exit(7)


def test_child_exit_without_reply_raises(monkeypatch):
    fail_at(monkeypatch, 1, exit_in_child)  # index 1 is in the child's share at 2 workers
    started = count_children(monkeypatch)
    with pytest.raises(RuntimeError, match="exited with code 7"):
        run_campaigns(small_campaign(campaigns=32, a_rows=8), workers=2)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_caller_exception_stops_every_child(monkeypatch):
    real = campaign.run_campaign

    def patched(cfg, i, workload=None):
        if i == 0:      # the caller's share
            raise ValueError("caller's share")
        if i == 1:      # a child's share, still running when the caller fails
            time.sleep(60)
        return real(cfg, i, workload)
    monkeypatch.setattr(campaign, "run_campaign", patched)
    started = count_children(monkeypatch)
    start = time.monotonic()
    with pytest.raises(ValueError, match="caller's share"):
        run_campaigns(small_campaign(campaigns=48, a_rows=8), workers=3)
    assert time.monotonic() - start < 30
    assert len(started) == 2
    assert multiprocessing.active_children() == []


def test_merged_indexes_must_be_exact(monkeypatch):
    real = campaign.run_campaign

    def misindexed(cfg, i, workload=None):
        outcome = real(cfg, i, workload)
        return dataclasses.replace(outcome, index=0) if i == 5 else outcome   # a child's
    monkeypatch.setattr(campaign, "run_campaign", misindexed)
    started = count_children(monkeypatch)
    with pytest.raises(RuntimeError, match="indexes 0..31"):
        run_campaigns(small_campaign(campaigns=32, a_rows=8), workers=2)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers,campaigns", [(1, 8), (2, 3)])
def test_serial_merged_indexes_must_be_exact(monkeypatch, workers, campaigns):
    """A serial call checks its merged indexes as a fanned-out call does."""
    real = campaign.run_campaign

    def misindexed(cfg, i, workload=None):
        outcome = real(cfg, i, workload)
        return dataclasses.replace(outcome, index=0) if i == campaigns - 1 else outcome
    monkeypatch.setattr(campaign, "run_campaign", misindexed)
    with pytest.raises(RuntimeError, match=f"indexes 0..{campaigns - 1}"):
        run_campaigns(small_campaign(campaigns=campaigns), workers=workers)
    assert multiprocessing.active_children() == []


def test_file_workload(tmp_path, worked_example):
    _, a, _, w = worked_example
    a_path, w_path = tmp_path / "a.mat", tmp_path / "w.smat"
    write_dense(a_path, a)
    write_packed(w_path, w)
    cfg = CampaignConfig(
        array=ArrayConfig(rows=1, cols=2),
        campaigns=5,
        fault_lo=0,
        fault_hi=0,
        master_seed=1,
        workload=WorkloadSpec(a_path=str(a_path), w_path=str(w_path)),
    )
    outcome = run_campaign(cfg, 0)
    assert outcome.category is OutcomeCategory.BENIGN


@pytest.mark.parametrize("workers", [1, 2])
def test_file_workload_read_once_per_call(tmp_path, worked_example, monkeypatch, workers):
    _, a, _, w = worked_example
    a_path, w_path = tmp_path / "a.mat", tmp_path / "w.smat"
    write_dense(a_path, a)
    write_packed(w_path, w)
    cfg = CampaignConfig(ArrayConfig(rows=1, cols=2), 5, 1, 2, 1,
                         WorkloadSpec(a_path=str(a_path), w_path=str(w_path)))
    calls = collections.Counter()
    for name in ("read_dense", "read_packed", "reference_run"):
        def counted(*args, _call=getattr(campaign, name), _name=name):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(campaign, name, counted)
    outcomes = run_campaigns(cfg, workers=workers)
    assert calls == {"read_dense": 1, "read_packed": 1, "reference_run": 1}
    assert [o.to_json_dict() for o in outcomes] == [
        run_campaign(cfg, i).to_json_dict() for i in range(5)]
    assert calls["reference_run"] == 1     # a lone campaign simulates every tile


# ----------------------------------------------------------------------
# aggregation

def test_aggregate_percentages_sum_to_100():
    cfg = small_campaign(campaigns=40, lo=0, hi=2)
    stats = aggregate(run_campaigns(cfg, workers=1))
    assert list(stats.counts) == [c.value for c in OutcomeCategory]
    assert stats.total == 40
    assert sum(stats.percentages().values()) == pytest.approx(100.0)
    compat = stats.percentages(paper_compat=True)
    assert sum(compat.values()) == pytest.approx(100.0)
    assert list(compat) == [c.value for c in OutcomeCategory if c is not OutcomeCategory.BENIGN]


def test_aggregate_compat_folds_benign_into_silent():
    cfg = small_campaign(campaigns=10, lo=0, hi=0)
    stats = aggregate(run_campaigns(cfg, workers=1))
    assert stats.percentages()["benign"] == 100.0
    assert stats.percentages()["silent"] == 0.0
    assert stats.percentages(paper_compat=True)["silent"] == 100.0
    assert "benign" not in stats.percentages(paper_compat=True)
    # the same floats as 100 * count / total, in table row order
    mixed = CategoryStats({"detected": 3, "silent": 2, "false_positive": 1,
                           "false_negative": 1, "benign": 4})
    assert list(mixed.percentages().items()) == [
        ("detected", 100.0 * 3 / 11), ("silent", 100.0 * 2 / 11), ("false_positive", 100.0 / 11),
        ("false_negative", 100.0 / 11), ("benign", 100.0 * 4 / 11)]
    assert list(mixed.percentages(paper_compat=True).items()) == [
        ("detected", 100.0 * 3 / 11), ("silent", 100.0 * 6 / 11), ("false_positive", 100.0 / 11),
        ("false_negative", 100.0 / 11)]


def test_aggregate_empty_errors():
    with pytest.raises(ValueError):
        aggregate([])


def test_render_table_has_category_rows():
    cfg = small_campaign(campaigns=5)
    stats = aggregate(run_campaigns(cfg, workers=1))
    text = render_stats_table(stats, cfg)
    for label in ("Detected", "Silent", "False Positive", "False Negative", "Benign"):
        assert label in text
    compat = render_stats_table(stats, cfg, paper_compat=True)
    assert "Benign" not in compat


# ----------------------------------------------------------------------
# config plumbing

def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(array=ArrayConfig(), campaigns=0, fault_lo=1, fault_hi=1, master_seed=0)
    with pytest.raises(ValueError):
        CampaignConfig(array=ArrayConfig(), campaigns=1, fault_lo=3, fault_hi=1, master_seed=0)


@pytest.mark.parametrize("obj,message", [
    ({"R": 2.5}, "config R must be an integer, got 2.5"),
    ({"R": True}, "config R must be an integer, got True"),
    ({"C": "4"}, "config C must be an integer, got '4'"),
    ({"input_width": 4.9}, "config input_width must be an integer, got 4.9"),
    ({"cksum_width": None}, "config cksum_width must be an integer, got None"),
    ({"pattern": 5}, "config pattern must be a string, got 5"),
    ({"pattern": None}, "config pattern must be a string, got None"),
    (5, "config must be a JSON object"),
    ({"R": 0}, "array must have at least 1x1 tensor PEs"),
    ({"oc_width": 0}, "oc_width must be positive"),
    ({"ic_width": 4}, "ic_width must be at least input_width"),
    ({"ic_width": 12}, "ic_width must be divisible by input_width"),
])
def test_array_config_rejects_mistyped_values(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ArrayConfig.from_json_dict(obj)


@pytest.mark.parametrize("obj,message", [
    (5, "config workload must be an object, got 5"),
    (None, "config workload must be an object, got None"),
    ({"a_rows": 2.5}, "config workload.a_rows must be an integer, got 2.5"),
    ({"k": True}, "config workload.k must be an integer, got True"),
    ({"cols": "5"}, "config workload.cols must be an integer, got '5'"),
    ({"a": 0, "w": "w.smat"}, "config workload.a must be a string, got 0"),
    ({"a": "a.mat", "w": None}, "config workload.w must be a string, got None"),
    ({"a": "a.mat", "w": "w.smat", "a_rows": 7}, "unknown workload keys: ['a_rows']"),
    ({"a": "a.mat", "k": 8, "cols": 2}, "unknown workload keys: ['cols', 'k']"),
    ({"a": "a.mat"}, "file workload needs both 'a' and 'w' paths"),
])
def test_workload_spec_rejects_mistyped_values(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        WorkloadSpec.from_json_dict(obj)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SPARSE_ABFT_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("SPARSE_ABFT_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.delenv("SPARSE_ABFT_THREADS")
    assert worker_count() >= 1
    monkeypatch.setenv("SPARSE_ABFT_THREADS", "zebra")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("SPARSE_ABFT_THREADS", "-1")
    with pytest.raises(ValueError, match="SPARSE_ABFT_THREADS must be >= 0"):
        worker_count()


def test_worker_count_follows_cpu_affinity(monkeypatch):
    """Pinned to one CPU of a 64-CPU machine, the default is one process."""
    monkeypatch.delenv("SPARSE_ABFT_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert worker_count() == 1
