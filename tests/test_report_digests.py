"""Byte-level pins of CLI reports and traces.

The digests were computed before the wave scheduler was rebuilt around a
precomputed per-tile schedule; any change to what the simulator computes,
when a fault fires, or how a trace line is labelled shows up here. The
inputs are small but cover several rounds per tile, several tiles, one
injected fault, every trace label kind, and a multi-fault campaign. The
``prune`` pin (packed file bytes and stdout) was computed before the packed
matrix was rebuilt around its dense values, the campaign stdout pins
before the outcome counting moved into one campaign summary, and the file
workload pins before its campaigns began to share one fault-free run.
"""

import hashlib
import json

import numpy as np
import pytest

from sparse_abft import prune_magnitude, write_dense, write_packed
from sparse_abft.cli import main
from sparse_abft.sparsity import PATTERN_2_4

from conftest import as_dense

# 2x3 array with 4-bit operands and an 8-bit IC: 16 rows per round, two
# digit waves per round, tile_k = 8
ARRAY = {"R": 2, "C": 3, "input_width": 4, "ic_width": 8}
RUN_DIGESTS = {
    "c.mat": "2f824f3e933900d1e404485e50ec05559d64329b0db8db14cb2f928654e77437",
    "report.json": "3e77fbc7f69a0ac0d9570ca576049f9783b28bc55d48ca011f3022622b31318c",
    "trace.csv": "b87ce4ed0250871fd73dfd2c9fdca4a64ee1a6919a93ef5efbd03a44d4bf6870",
}
CAMPAIGN_DIGEST = "9ff8d76bb9621844918c9ebdf287474dd8ddd9a1e89eda6be90952f43f951eaa"
CAMPAIGN_STDOUT = {
    "1..5": """\
               | 2:4 (1-5 faults)
---------------------------------
Detected       |           66.67%
Silent         |            8.33%
False Positive |           25.00%
False Negative |            0.00%
Benign         |            0.00%
""",
    "1..5 --paper-compat": """\
               | 2:4 (1-5 faults)
---------------------------------
Detected       |           66.67%
Silent         |            8.33%
False Positive |           25.00%
False Negative |            0.00%
""",
    "1": """\
               | 2:4 (1 fault)
------------------------------
Detected       |        33.33%
Silent         |         8.33%
False Positive |        50.00%
False Negative |         0.00%
Benign         |         8.33%
""",
}
# a 20x12 . 12x5 file workload: two inner-dimension chunks by two column chunks
FILE_CAMPAIGN_DIGESTS = {
    "1..5": "d4578070fcd14e57a5a689cd6d745b63d58184b3d1b58eb991b932e89264b7fd",
    "1": "dd37405f997fe0d47c92b0f1296944e053ef7706c56e9024dd343105bf68b357",
}
PRUNE_DIGEST = "f7688743d6ccb6bae7f18352adc8267dd0cf87ea98fb4793294d854aaf52c3b5"
PRUNE_STDOUT = "kept 37 non-zeros of 70 elements (33 zeroed)\n"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SPARSE_ABFT_THREADS", "1")
    return tmp_path


def test_run_report_and_trace_pinned(workdir):
    rng = np.random.default_rng(2402)
    # 20 rows = two rounds per tile; k = 12 and 5 columns = 2 x 2 tiles
    write_dense("a.mat", as_dense(rng.integers(-8, 8, size=(20, 12))))
    w = prune_magnitude(as_dense(rng.integers(-7, 8, size=(12, 5))), PATTERN_2_4)
    write_packed("w.smat", w)
    (workdir / "cfg.json").write_text(json.dumps(ARRAY))
    rc = main(["run", "--config", "cfg.json", "--a", "a.mat", "--w", "w.smat",
               "--out", "c.mat", "--report", "report.json",
               "--inject", "37:tpe.1.1.psum:2",
               "--trace", "cksum.actual,ic.1.acc.2,tpe.1.2.psum,oc.2",
               "--trace-out", "trace.csv"])
    assert rc == 1
    labels = {line.split(",")[1] for line in (workdir / "trace.csv").read_text().splitlines()}
    assert labels == {"Stream", "ChecksumDigit(0)", "ChecksumDigit(1)", "Drain"}
    assert {name: sha256(workdir / name) for name in RUN_DIGESTS} == RUN_DIGESTS


CAMPAIGN_CFG = {**ARRAY, "workload": {"a_rows": 20, "k": 12, "cols": 5}}


def test_campaign_report_pinned(workdir):
    (workdir / "cfg.json").write_text(json.dumps(CAMPAIGN_CFG))
    assert main(["campaign", "--config", "cfg.json", "--campaigns", "12",
                 "--faults", "1..5", "--seed", "11", "--report", "stats.json"]) == 0
    assert sha256(workdir / "stats.json") == CAMPAIGN_DIGEST


@pytest.mark.parametrize("flags", sorted(CAMPAIGN_STDOUT))
def test_campaign_stdout_pinned(workdir, capsys, flags):
    (workdir / "cfg.json").write_text(json.dumps(CAMPAIGN_CFG))
    faults, *extra = flags.split()
    assert main(["campaign", "--config", "cfg.json", "--campaigns", "12",
                 "--faults", faults, "--seed", "11", *extra]) == 0
    assert capsys.readouterr().out == CAMPAIGN_STDOUT[flags]


@pytest.mark.parametrize("faults", sorted(FILE_CAMPAIGN_DIGESTS))
def test_file_campaign_report_pinned(workdir, faults):
    """The four-tile file workload's report; its ``config_echo.workload``
    still echoes the synthetic defaults, not the files' shape."""
    rng = np.random.default_rng(2404)
    write_dense("a.mat", as_dense(rng.integers(-8, 8, size=(20, 12))))
    w = prune_magnitude(as_dense(rng.integers(-7, 8, size=(12, 5))), PATTERN_2_4)
    write_packed("w.smat", w)
    (workdir / "cfg.json").write_text(json.dumps({**ARRAY, "workload": {"a": "a.mat", "w": "w.smat"}}))
    assert main(["campaign", "--config", "cfg.json", "--campaigns", "12",
                 "--faults", faults, "--seed", "12", "--report", "stats.json"]) == 0
    assert sha256(workdir / "stats.json") == FILE_CAMPAIGN_DIGESTS[faults]


def test_prune_output_pinned(workdir, capsys):
    rng = np.random.default_rng(2403)
    # 10 rows: the last 2:4 block of each column is half padding; small
    # magnitudes make ties and all-zero blocks common
    write_dense("w.mat", as_dense(rng.integers(-3, 4, size=(10, 7))))
    assert main(["prune", "--pattern", "2:4", "--in", "w.mat", "--out", "w.smat"]) == 0
    assert capsys.readouterr().out == PRUNE_STDOUT
    assert sha256(workdir / "w.smat") == PRUNE_DIGEST
