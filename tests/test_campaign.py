import collections
import re

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
from sparse_abft.campaign import PAPER_CATEGORIES, render_stats_table, worker_count
from sparse_abft.registers import RegisterId, RegKind

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
    assert classify(faults, flags, output_corrupted=False) is expected
    assert classify(faults, flags, output_corrupted=True) is expected


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


def test_run_campaigns_parallel_matches_serial():
    cfg = small_campaign(campaigns=12)
    serial = run_campaigns(cfg, workers=1)
    parallel = run_campaigns(cfg, workers=2)
    assert [(o.index, o.category, o.faults) for o in serial] == [
        (o.index, o.category, o.faults) for o in parallel
    ]


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
        workload=WorkloadSpec(kind="files", a_path=str(a_path), w_path=str(w_path)),
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
                         WorkloadSpec(kind="files", a_path=str(a_path), w_path=str(w_path)))
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
    total = sum(stats.percentage(c) for c in OutcomeCategory)
    assert total == pytest.approx(100.0)
    compat = sum(stats.paper_compat_percentage(c) for c in PAPER_CATEGORIES)
    assert compat == pytest.approx(100.0)
    assert list(stats.percentages(paper_compat=True)) == [c.value for c in PAPER_CATEGORIES]


def test_aggregate_compat_folds_benign_into_silent():
    cfg = small_campaign(campaigns=10, lo=0, hi=0)
    stats = aggregate(run_campaigns(cfg, workers=1))
    assert stats.percentage(OutcomeCategory.BENIGN) == 100.0
    assert stats.percentage(OutcomeCategory.SILENT) == 0.0
    assert stats.paper_compat_percentage(OutcomeCategory.SILENT) == 100.0
    with pytest.raises(ValueError):
        stats.paper_compat_percentage(OutcomeCategory.BENIGN)


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
