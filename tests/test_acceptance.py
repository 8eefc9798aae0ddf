"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The campaign-heavy criteria share module-scoped fixtures, so the
whole module costs one 1,000-tile corpus and four 5,000-campaign batches.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time

import numpy as np
import pytest

from sparse_abft import (
    ArrayConfig,
    CampaignConfig,
    FaultSpec,
    OutcomeCategory,
    SimState,
    SparsityPattern,
    WorkloadSpec,
    classify,
    enumerate_registers,
    golden_result,
    run_campaigns,
    run_multiplication,
    sample_faults,
    unpack,
    write_dense,
    write_packed,
)
from sparse_abft.cli import main as cli_main
from sparse_abft.registers import Owner
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4

from conftest import idle_slot_registers, random_inputs, random_weights, silent_pipe_targets

MASTER_SEED = 20260811
CAMPAIGNS_PER_BATCH = 5000
TILE_COUNT = 1000


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def one_sided_p(successes_a, n_a, successes_b, n_b) -> float:
    """One-sided two-proportion z-test p-value for p_a > p_b."""
    p_a, p_b = successes_a / n_a, successes_b / n_b
    pooled = (successes_a + successes_b) / (n_a + n_b)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
    if se == 0:
        return 0.0 if p_a > p_b else 1.0
    z = (p_a - p_b) / se
    return 0.5 * math.erfc(z / math.sqrt(2))


# ----------------------------------------------------------------------
# shared corpora

@pytest.fixture(scope="module")
def tile_corpus():
    """1,000 fault-free tiles on the 8x32 array, rows 1..600, both modes."""
    started = time.monotonic()
    rng = np.random.default_rng(MASTER_SEED)
    records = []
    for pattern in (PATTERN_2_4, PATTERN_1_4):
        cfg = ArrayConfig(pattern=pattern)
        for _ in range(TILE_COUNT // 2):
            a_rows = int(rng.integers(1, 601))
            a = random_inputs(rng, a_rows, cfg.tile_k, cfg.input_width)
            w = random_weights(rng, cfg.tile_k, cfg.cols, pattern, cfg.input_width)
            run = run_multiplication(cfg, a, w)
            golden = golden_result(a, unpack(w), cfg.col_out_width)
            records.append(
                {
                    "pattern": str(pattern),
                    "a_rows": a_rows,
                    "outputs_match": run.outputs == golden.product,
                    "rounds": [(r.actual, r.predicted, r.flag) for r in run.rounds],
                    "oracle_dot": golden.total_checksum,
                }
            )
    return {"records": records, "elapsed": time.monotonic() - started}


@pytest.fixture(scope="module")
def campaign_batches():
    """Four 5,000-campaign batches: both modes x {1 fault, 1-5 faults}."""
    started = time.monotonic()
    batches = {}
    for mode in ("2:4", "1:4"):
        for lo, hi in ((1, 1), (1, 5)):
            cfg = CampaignConfig(
                array=ArrayConfig(pattern=SparsityPattern.parse(mode)),
                campaigns=CAMPAIGNS_PER_BATCH,
                fault_lo=lo,
                fault_hi=hi,
                master_seed=MASTER_SEED,
                workload=WorkloadSpec(a_rows=512),
            )
            batches[(mode, cfg.fault_regime)] = run_campaigns(cfg)
    return {"batches": batches, "elapsed": time.monotonic() - started}


def batch_percent(outcomes, category) -> float:
    return 100.0 * sum(1 for o in outcomes if o.category is category) / len(outcomes)


# ----------------------------------------------------------------------
# criterion 1: functional equivalence on fault-free tiles

def test_criterion_1_functional_equivalence(tile_corpus):
    records = tile_corpus["records"]
    mismatches = [r for r in records if not r["outputs_match"]]
    flagged = [r for r in records if any(f for _, _, f in r["rounds"])]
    multi_round = sum(1 for r in records if len(r["rounds"]) > 1)
    ok = not mismatches and not flagged and len(records) == TILE_COUNT
    verdict(
        "1 (functional equivalence)",
        ok,
        f"{len(records)} tiles bit-exact vs oracle, {len(flagged)} flagged, "
        f"{multi_round} multi-round tiles, {tile_corpus['elapsed']:.1f}s",
    )
    assert not mismatches, f"{len(mismatches)} tiles diverged from the oracle"
    assert not flagged, f"{len(flagged)} fault-free tiles raised a flag"
    assert multi_round > 0, "corpus never exercised multi-round flushes"
    assert tile_corpus["elapsed"] < 300, "criterion 1 exceeded its 5-minute budget"


# ----------------------------------------------------------------------
# criterion 2: checksum identity at desk scale

def test_criterion_2_checksum_identity(tile_corpus):
    records = tile_corpus["records"]
    bad_rounds = [
        r for r in records if any(actual != predicted for actual, predicted, _ in r["rounds"])
    ]
    single = [r for r in records if len(r["rounds"]) == 1]
    bad_oracle = [r for r in single if r["rounds"][0][0] != r["oracle_dot"]]
    ok = not bad_rounds and not bad_oracle and single
    verdict(
        "2 (checksum identity)",
        ok,
        f"all {sum(len(r['rounds']) for r in records)} rounds actual==predicted; "
        f"{len(single)} single-round tiles match dot(colsum A, rowsum W)",
    )
    assert not bad_rounds
    assert single and not bad_oracle


# ----------------------------------------------------------------------
# criterion 3: exhaustive digit-serial reconstruction

def test_criterion_3_digit_serial_exhaustive():
    started = time.monotonic()
    lo, hi = -32768, 32512  # reachable from <= 256 signed bytes
    values = np.arange(lo, hi + 1)
    # the digit waves the engine streams for IC accumulator values
    d0, d1 = (SimState(ArrayConfig()).digit_wave(values, k).tolist() for k in range(2))
    for value, low, high in zip(values.tolist(), d0, d1):
        if not (-128 <= low <= 127 and -128 <= high <= 127) or low + (high << 8) != value:
            verdict("3 (digit-serial)", False, f"value {value} failed")
            raise AssertionError(f"digit_wave failed at {value}")
    elapsed = time.monotonic() - started
    verdict("3 (digit-serial)", True,
            f"exhaustive over [{lo}, {hi}] ({hi - lo + 1} values) in {elapsed:.1f}s")
    assert elapsed < 60


# ----------------------------------------------------------------------
# criterion 4: directional reproduction of the reference detection rates

def test_criterion_4_detection_bands(campaign_batches):
    batches = campaign_batches["batches"]
    elapsed = campaign_batches["elapsed"]
    reference_single = {"2:4": 81.11, "1:4": 74.15}
    lines = []
    ok = True

    for mode in ("2:4", "1:4"):
        det = batch_percent(batches[(mode, "1")], OutcomeCategory.DETECTED)
        in_floor = det >= 65.0
        in_band = abs(det - reference_single[mode]) <= 15.0
        ok &= in_floor and in_band
        lines.append(f"{mode}/1: detected {det:.2f}% (floor 65, band {reference_single[mode]}+-15)")
    for mode in ("2:4", "1:4"):
        det = batch_percent(batches[(mode, "1-5")], OutcomeCategory.DETECTED)
        ok &= det >= 88.0
        lines.append(f"{mode}/1-5: detected {det:.2f}% (floor 88)")

    verdict("4 (detection bands)", ok, "; ".join(lines) + f"; {elapsed:.0f}s")
    assert elapsed < 1800, "criterion 4 exceeded its 30-minute budget"
    for mode in ("2:4", "1:4"):
        det = batch_percent(batches[(mode, "1")], OutcomeCategory.DETECTED)
        assert det >= 65.0
        assert abs(det - reference_single[mode]) <= 15.0
        det_multi = batch_percent(batches[(mode, "1-5")], OutcomeCategory.DETECTED)
        assert det_multi >= 88.0


# ----------------------------------------------------------------------
# criterion 5: directional properties with significance

def test_criterion_5_directional_properties(campaign_batches):
    batches = campaign_batches["batches"]
    n = CAMPAIGNS_PER_BATCH

    def count(mode, regime, category):
        return sum(1 for o in batches[(mode, regime)] if o.category is category)

    silent_14 = count("1:4", "1", OutcomeCategory.SILENT)
    silent_24 = count("2:4", "1", OutcomeCategory.SILENT)
    p_silent = one_sided_p(silent_14, n, silent_24, n)

    p_mono = {}
    for mode in ("2:4", "1:4"):
        det_multi = count(mode, "1-5", OutcomeCategory.DETECTED)
        det_single = count(mode, "1", OutcomeCategory.DETECTED)
        p_mono[mode] = one_sided_p(det_multi, n, det_single, n)

    false_rates = {}
    for key, outcomes in batches.items():
        fp = sum(1 for o in outcomes if o.category is OutcomeCategory.FALSE_POSITIVE)
        fn = sum(1 for o in outcomes if o.category is OutcomeCategory.FALSE_NEGATIVE)
        false_rates[key] = 100.0 * (fp + fn) / n

    ok = (
        p_silent < 0.01
        and all(p < 0.01 for p in p_mono.values())
        and all(rate < 10.0 for rate in false_rates.values())
    )
    verdict(
        "5 (directional properties)",
        ok,
        f"silent 1:4 {100 * silent_14 / n:.2f}% > 2:4 {100 * silent_24 / n:.2f}% "
        f"(p={p_silent:.2e}); monotonicity p={{{', '.join(f'{m}: {p:.2e}' for m, p in p_mono.items())}}}; "
        f"FP+FN max {max(false_rates.values()):.2f}%",
    )
    assert silent_14 > silent_24 and p_silent < 0.01
    for mode, p in p_mono.items():
        assert p < 0.01, f"detection monotonicity not significant for {mode}"
    for key, rate in false_rates.items():
        assert rate < 10.0, f"FP+FN {rate:.2f}% too high for {key}"


# ----------------------------------------------------------------------
# north star: outcomes unchanged for the fixed seed

OUTCOMES_SHA256 = "e4ae51538f1481e605462ca33ee85d4f531fc13147a57bb86725ee61c469b706"


def test_campaign_outcomes_pinned(campaign_batches):
    """SHA-256 over every outcome's JSON, batches in fixture order
    (2:4/1, 2:4/1-5, 1:4/1, 1:4/1-5)."""
    digest = hashlib.sha256()
    for outcomes in campaign_batches["batches"].values():
        for o in outcomes:
            digest.update(json.dumps(o.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == OUTCOMES_SHA256


# ----------------------------------------------------------------------
# criterion 6: silent-fault mechanism

def test_criterion_6_silent_mechanism():
    injections = 0
    violations = []
    rng = random.Random(MASTER_SEED)
    np_rng = np.random.default_rng(MASTER_SEED + 1)

    plans = [
        (PATTERN_2_4, "pipe", 400),
        (PATTERN_1_4, "pipe", 300),
        (PATTERN_1_4, "idle", 300),
    ]
    for pattern, group, wanted in plans:
        cfg = ArrayConfig(pattern=pattern)
        done = 0
        while done < wanted:
            a = random_inputs(np_rng, 64, cfg.tile_k, cfg.input_width)
            w = random_weights(np_rng, cfg.tile_k, cfg.cols, pattern, cfg.input_width)
            baseline = run_multiplication(cfg, a, w)
            assert not baseline.flagged
            if group == "pipe":
                state = SimState(cfg)
                state.load_weights(w)
                targets = silent_pipe_targets(cfg, w)
            else:
                targets = idle_slot_registers(cfg)
            if not targets:
                continue
            window = baseline.total_cycles
            widths = enumerate_registers(cfg)
            for _ in range(min(50, wanted - done)):
                reg = targets[rng.randrange(len(targets))]
                spec = FaultSpec(
                    cycle=rng.randrange(window),
                    register=reg,
                    bit=rng.randrange(widths.width_of(reg)),
                )
                run = run_multiplication(cfg, a, w, faults=[spec])
                category = classify([spec], [r.flag for r in run.rounds])
                if (
                    run.outputs != baseline.outputs
                    or run.flagged
                    or category not in (OutcomeCategory.SILENT, OutcomeCategory.BENIGN)
                ):
                    violations.append((str(pattern), group, spec))
                injections += 1
                done += 1

    ok = injections >= 1000 and not violations
    verdict(
        "6 (silent mechanism)",
        ok,
        f"{injections} targeted injections, {len(violations)} visible effects",
    )
    assert injections >= 1000
    assert not violations


# ----------------------------------------------------------------------
# criterion 7: fault-space weighting

def test_criterion_7_fault_space_weighting():
    rm = enumerate_registers(ArrayConfig())
    expected = rm.array_bits / rm.total_bits
    specs = sample_faults(MASTER_SEED, rm, 10_000, 1000)
    observed = sum(1 for s in specs if s.register.owner is Owner.ARRAY) / len(specs)
    ok = abs(observed - expected) < 0.01
    verdict(
        "7 (fault-space weighting)",
        ok,
        f"array hit rate {100 * observed:.2f}% vs enumerated {100 * expected:.2f}% "
        f"over {len(specs)} samples",
    )
    assert abs(expected - 19456 / 20832) < 1e-9
    assert ok


# ----------------------------------------------------------------------
# criterion 8: byte-identical reports under a fixed seed

def test_criterion_8_determinism(tmp_path, worked_example):
    _, a, _, w = worked_example
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"R": 1, "C": 2, "workload": {"a_rows": 64}}))
    write_dense(tmp_path / "a.mat", a)
    write_packed(tmp_path / "w.smat", w)

    out = tmp_path / "c.mat"
    run_report = tmp_path / "run.json"
    stats = tmp_path / "stats.json"
    packed = tmp_path / "p.smat"

    def run_all():
        assert cli_main(["prune", "--pattern", "2:4", "--in", str(tmp_path / "a.mat"),
                         "--out", str(packed)]) == 0
        assert cli_main(["run", "--config", str(cfg_path), "--a", str(tmp_path / "a.mat"),
                         "--w", str(tmp_path / "w.smat"), "--out", str(out),
                         "--report", str(run_report),
                         "--inject", "1:tpe.0.0.psum:3"]) == 1
        assert cli_main(["campaign", "--config", str(cfg_path), "--campaigns", "40",
                         "--faults", "1..5", "--seed", "9",
                         "--report", str(stats)]) == 0
        return (packed.read_bytes(), out.read_bytes(),
                run_report.read_bytes(), stats.read_bytes())

    first = run_all()
    second = run_all()
    ok = first == second
    verdict("8 (determinism)", ok, "prune/run/campaign reports byte-identical across reruns")
    assert ok
