import collections
import json
import multiprocessing
import subprocess
import sys

import pytest

from sparse_abft import (
    OutcomeCategory,
    SimState,
    StructuredSparseMatrix,
    parse_register,
    read_dense,
    read_packed,
    write_dense,
    write_packed,
)
from sparse_abft import campaign, driver
from sparse_abft.cli import main
from sparse_abft.sparsity import PATTERN_2_4, unpack

from conftest import as_dense, count_children, zero_dense


@pytest.fixture
def tiny_files(tmp_path, worked_example):
    """Worked-example inputs on disk plus a 1x2 array config."""
    _, a, _, w = worked_example
    paths = {
        "cfg": tmp_path / "cfg.json",
        "a": tmp_path / "a.mat",
        "w": tmp_path / "w.smat",
        "out": tmp_path / "c.mat",
        "report": tmp_path / "report.json",
    }
    paths["cfg"].write_text(json.dumps({"R": 1, "C": 2}))
    write_dense(paths["a"], a)
    write_packed(paths["w"], w)
    return paths


# ----------------------------------------------------------------------
# prune

def test_prune_writes_expected_packed_line(tmp_path, capsys):
    infile = tmp_path / "w.mat"
    outfile = tmp_path / "w.smat"
    write_dense(infile, as_dense([[5], [-2], [0], [3]]))
    assert main(["prune", "--pattern", "2:4", "--in", str(infile), "--out", str(outfile)]) == 0
    assert outfile.read_text().splitlines()[1] == "1001 5 3"
    assert "kept 2 non-zeros of 4" in capsys.readouterr().out


def test_prune_idempotent_on_valid_input(tmp_path):
    infile = tmp_path / "w.mat"
    outfile = tmp_path / "w.smat"
    valid = as_dense([[1, 0], [0, 2], [-1, 0], [0, 3]])
    write_dense(infile, valid)
    main(["prune", "--pattern", "2:4", "--in", str(infile), "--out", str(outfile)])
    assert unpack(read_packed(outfile)) == valid


def test_prune_pattern_3_4_accepted_5_4_rejected(tmp_path):
    infile = tmp_path / "w.mat"
    write_dense(infile, zero_dense(4, 1))
    assert main(["prune", "--pattern", "3:4", "--in", str(infile),
                 "--out", str(infile.with_suffix(".smat"))]) == 0
    with pytest.raises(SystemExit) as excinfo:
        main(["prune", "--pattern", "5:4", "--in", str(infile), "--out", "x.smat"])
    assert excinfo.value.code == 2


def test_prune_parse_failure_exit_2(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("not a matrix\n")
    assert main(["prune", "--pattern", "2:4", "--in", str(bad), "--out", "x.smat"]) == 2


def test_prune_pattern_m_above_63_exit_2(tmp_path):
    infile = tmp_path / "w.mat"
    write_dense(infile, zero_dense(64, 1))
    with pytest.raises(SystemExit) as excinfo:
        main(["prune", "--pattern", "1:64", "--in", str(infile), "--out", "x.smat"])
    assert excinfo.value.code == 2


def test_prune_value_outside_int64_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 1\n1\n99999999999999999999\n")
    assert main(["prune", "--pattern", "2:4", "--in", str(bad), "--out", "x.smat"]) == 2
    assert "row 1: value 99999999999999999999 outside the int64 range" in capsys.readouterr().err


def test_prune_missing_file_exit_3(tmp_path):
    assert main(["prune", "--pattern", "2:4", "--in", str(tmp_path / "nope.mat"),
                 "--out", "x.smat"]) == 3


# ----------------------------------------------------------------------
# run

def test_run_clean(tiny_files, capsys):
    p = tiny_files
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
               "--out", str(p["out"]), "--report", str(p["report"])])
    assert rc == 0
    assert read_dense(p["out"]).data.tolist() == [[-2, 16], [-2, 36]]
    report = json.loads(p["report"].read_text())
    assert report["verdict"] == "clean"
    assert report["rounds"] == [{"round": 0, "actual": 48, "predicted": 48, "flag": False}]
    assert "1 checksum rounds, 0 flagged" in capsys.readouterr().out


def test_run_injection_flags_and_exits_1(tiny_files):
    p = tiny_files
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
               "--out", str(p["out"]), "--report", str(p["report"]),
               "--inject", "1:tpe.0.0.psum:4"])
    assert rc == 1
    report = json.loads(p["report"].read_text())
    assert report["verdict"] == "flagged"
    assert report["rounds"][0]["flag"] is True
    assert report["injected"] == [{"cycle": 1, "register": "tpe.0.0.psum", "bit": 4}]


def test_parser_built_once_carries_nothing_between_calls(tiny_files):
    """The parser is shared by every call: an injection of one run must not
    reach the next one's --inject default."""
    p = tiny_files
    argv = ["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
            "--out", str(p["out"]), "--report", str(p["report"])]
    assert main(argv + ["--inject", "1:tpe.0.0.psum:4"]) == 1
    assert main(argv) == 0
    assert json.loads(p["report"].read_text())["injected"] == []


def test_run_never_builds_a_reference(tiny_files, monkeypatch):
    """A user's run simulates every tile: no reference run, no state copy."""
    def refuse(*args):
        raise AssertionError("run built a reference")
    monkeypatch.setattr(driver, "reference_run", refuse)
    monkeypatch.setattr(SimState, "copy", refuse)
    p = tiny_files
    assert main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
                 "--out", str(p["out"]), "--inject", "1:tpe.0.0.psum:4"]) == 1


def test_run_injection_past_window_exit_2(tiny_files, capsys):
    p = tiny_files
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
               "--out", str(p["out"]), "--report", str(p["report"]),
               "--inject", "1000000:tpe.0.0.psum:3"])
    assert rc == 2
    assert "never fire" in capsys.readouterr().err
    assert not p["report"].exists()


def test_run_injection_before_window_exit_2(tiny_files, capsys):
    p = tiny_files
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
               "--out", str(p["out"]), "--report", str(p["report"]), "--inject=-1:oc.0:3"])
    assert rc == 2
    assert "fault at cycle -1 would never fire" in capsys.readouterr().err
    assert not p["report"].exists() and not p["out"].exists()


@pytest.mark.parametrize("name", ["input_width", "col_out_width", "ic_width", "oc_width"])
def test_run_width_past_int64_engine_exit_2(tiny_files, capsys, name):
    p = tiny_files
    p["cfg"].write_text(json.dumps({"R": 1, "C": 2, "input_width": 8, "ic_width": 16, name: 64}))
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
               "--out", str(p["out"])])
    assert rc == 2
    assert f"{name} must be at most 63 bits" in capsys.readouterr().err


def test_run_zero_matrices(tiny_files, tmp_path):
    p = tiny_files
    a0, w0 = tmp_path / "a0.mat", tmp_path / "w0.smat"
    write_dense(a0, zero_dense(2, 4))
    write_packed(w0, StructuredSparseMatrix(PATTERN_2_4, zero_dense(4, 2)))
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(a0), "--w", str(w0),
               "--out", str(p["out"]), "--report", str(p["report"])])
    assert rc == 0
    report = json.loads(p["report"].read_text())
    assert report["rounds"][0] == {"round": 0, "actual": 0, "predicted": 0, "flag": False}


def test_run_shape_mismatch_exit_4(tiny_files, tmp_path):
    p = tiny_files
    a_bad = tmp_path / "bad_a.mat"
    write_dense(a_bad, zero_dense(2, 5))
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(a_bad), "--w", str(p["w"]),
               "--out", str(p["out"])])
    assert rc == 4


@pytest.mark.parametrize("bad", ["inner dimension", "pattern"])
def test_campaign_file_shape_mismatch_exit_4(tiny_files, tmp_path, bad):
    """The shared fault-free run checks the files as each campaign would."""
    p = tiny_files
    a_path, cfg = p["a"], {"R": 1, "C": 2}
    if bad == "inner dimension":
        a_path = tmp_path / "bad_a.mat"
        write_dense(a_path, zero_dense(2, 5))
    else:
        cfg["pattern"] = "1:4"    # the weights are 2:4
    p["cfg"].write_text(json.dumps({**cfg, "workload": {"a": str(a_path), "w": str(p["w"])}}))
    assert main(["campaign", "--config", str(p["cfg"]), "--campaigns", "5"]) == 4


def test_run_parse_error_exit_2(tiny_files, tmp_path):
    p = tiny_files
    bad = tmp_path / "bad.mat"
    bad.write_text("?? ??\n")
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(bad), "--w", str(p["w"]),
               "--out", str(p["out"])])
    assert rc == 2


@pytest.mark.parametrize("operand", ["a", "w"])
def test_run_value_outside_int64_exit_2(tiny_files, capsys, operand):
    p = tiny_files
    header, first, rest = p[operand].read_text().split("\n", 2)
    tokens = first.split(" ")
    tokens[-1] = "-9223372036854775809"
    p[operand].write_text("\n".join([header, " ".join(tokens), rest]))
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
               "--out", str(p["out"])])
    assert rc == 2
    assert "value -9223372036854775809 outside the int64 range" in capsys.readouterr().err


def test_run_missing_input_exit_3(tiny_files, tmp_path):
    p = tiny_files
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(tmp_path / "ghost.mat"),
               "--w", str(p["w"]), "--out", str(p["out"])])
    assert rc == 3


def test_run_trace_file(tiny_files, tmp_path):
    p = tiny_files
    trace = tmp_path / "trace.csv"
    main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
          "--out", str(p["out"]), "--trace", "cksum.actual,tpe.0.0.psum",
          "--trace-out", str(trace)])
    lines = trace.read_text().splitlines()
    assert lines[0] == "0,Stream,cksum.actual,0"
    assert lines[1] == "0,Stream,tpe.0.0.psum,0"
    assert all(len(line.split(",")) == 4 for line in lines)


def test_run_trace_unknown_register_exit_2_before_first_line(tiny_files, tmp_path):
    p = tiny_files
    trace = tmp_path / "trace.csv"
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
               "--out", str(p["out"]), "--trace", "tpe.0.0.psum,tpe.9.0.psum",
               "--trace-out", str(trace)])
    assert rc == 2
    assert trace.read_text().splitlines() == []


@pytest.mark.parametrize("name", ["oc.01", "tpe.0.0.in.-1"])
def test_run_trace_non_canonical_name_exit_2_before_opening(tiny_files, tmp_path, name):
    """Only a canonical name parses, so the trace never names a register in
    another form than the one typed."""
    p = tiny_files
    trace = tmp_path / "trace.csv"
    rc = main(["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
               "--out", str(p["out"]), "--trace", name, "--trace-out", str(trace)])
    assert rc == 2
    assert not trace.exists()


def test_run_outputs_byte_identical_across_reruns(tiny_files):
    p = tiny_files
    args = ["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
            "--out", str(p["out"]), "--report", str(p["report"])]
    main(args)
    first = (p["out"].read_bytes(), p["report"].read_bytes())
    main(args)
    assert (p["out"].read_bytes(), p["report"].read_bytes()) == first


# ----------------------------------------------------------------------
# campaign

def campaign_args(p, report, extra=()):
    return ["campaign", "--config", str(p["cfg"]), "--campaigns", "8",
            "--faults", "1..1", "--seed", "7", "--report", str(report), *extra]


def test_campaign_report_and_determinism(tiny_files, tmp_path, capsys):
    p = tiny_files
    r1, r2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(campaign_args(p, r1)) == 0
    assert main(campaign_args(p, r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["totals"]["campaigns"] == 8
    assert sum(report["categories"].values()) == 8
    assert len(report["per_campaign"]) == 8
    assert report["config_echo"]["seed"] == 7
    out = capsys.readouterr().out
    assert "Detected" in out and "Benign" in out


def test_campaign_zero_faults_all_benign(tiny_files, tmp_path, capsys):
    p = tiny_files
    report = tmp_path / "stats.json"
    main(["campaign", "--config", str(p["cfg"]), "--campaigns", "5",
          "--faults", "0..0", "--seed", "1", "--report", str(report)])
    data = json.loads(report.read_text())
    assert data["categories"]["benign"] == 5
    assert data["percentages"]["benign"] == 100.0


def test_campaign_paper_compat_table(tiny_files, tmp_path, capsys):
    p = tiny_files
    main(campaign_args(p, tmp_path / "s.json", extra=["--paper-compat", "--sparsity", "1:4"]))
    out = capsys.readouterr().out
    assert "Benign" not in out
    assert "1:4" in out


def test_campaign_report_is_consistent(tiny_files, tmp_path):
    """Summary blocks agree with a recount of the per-campaign entries."""
    p = tiny_files
    report_path = tmp_path / "stats.json"
    assert main(["campaign", "--config", str(p["cfg"]), "--campaigns", "16",
                 "--faults", "1..5", "--seed", "3", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    per = report["per_campaign"]
    categories = collections.Counter(c["category"] for c in per)
    assert report["categories"] == {c.value: categories[c.value] for c in OutcomeCategory}
    kinds = collections.Counter(parse_register(f["register"]).kind.name.lower()
                                for c in per for f in c["faults"])
    assert report["fault_class_hits"] == dict(kinds)
    assert report["totals"] == {"campaigns": 16, "faults_injected": sum(kinds.values())}
    assert sum(report["percentages"].values()) == pytest.approx(100.0)
    assert sum(report["paper_compat"].values()) == pytest.approx(100.0)


def test_campaign_bad_fault_range(tiny_files, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--config", str(tiny_files["cfg"]), "--campaigns", "2",
              "--faults", "5..1"])
    assert excinfo.value.code == 2


def test_campaign_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 1, "C": 2, "bogus": 9}))
    assert main(["campaign", "--config", str(cfg), "--campaigns", "1"]) == 2


@pytest.mark.parametrize("threads", ["1", "2"])
def test_campaign_error_in_fanned_out_campaigns_exit_2(tmp_path, capsys, monkeypatch, threads):
    """The error every campaign raises reaches the CLI alike, serial or fanned out."""
    def fail(cfg, index, workload=None):
        raise ValueError("every campaign fails")
    monkeypatch.setattr(campaign, "run_campaign", fail)   # forked children inherit it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 2, "C": 4}))
    monkeypatch.setenv("SPARSE_ABFT_THREADS", threads)
    started = count_children(monkeypatch)
    assert main(["campaign", "--config", str(cfg), "--campaigns", "32"]) == 2
    assert capsys.readouterr().err == "error: every campaign fails\n"
    assert len(started) == int(threads) - 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("key,value,least", [("a_rows", 0, 1), ("k", -1, 0), ("cols", -1, 0)])
def test_campaign_workload_dimension_out_of_range_exit_2(tmp_path, capsys, key, value, least):
    """A synthetic dimension below its least value is a config error that
    names its key, not an error from deep inside the first campaign."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 2, "C": 4, "workload": {key: value}}))
    assert main(["campaign", "--config", str(cfg), "--campaigns", "1"]) == 2
    assert capsys.readouterr().err == f"error: workload.{key} must be at least {least}, got {value}\n"


MISTYPED_CONFIGS = [
    ("run", {"pattern": 5}, "config pattern must be a string, got 5"),
    ("run", {"pattern": None}, "config pattern must be a string, got None"),
    ("run", {"R": 2.5}, "config R must be an integer, got 2.5"),
    ("run", {"R": True}, "config R must be an integer, got True"),
    ("run", {"input_width": 4.9}, "config input_width must be an integer, got 4.9"),
    ("campaign", {"pattern": 5}, "config pattern must be a string, got 5"),
    ("campaign", {"pattern": None}, "config pattern must be a string, got None"),
    ("campaign", {"R": 2.5}, "config R must be an integer, got 2.5"),
    ("campaign", {"workload": 5}, "config workload must be an object, got 5"),
    ("campaign", {"workload": None}, "config workload must be an object, got None"),
    ("campaign", {"workload": {"a_rows": 2.5}}, "config workload.a_rows must be an integer, got 2.5"),
    ("campaign", {"workload": {"a": 0, "w": "w.smat"}}, "config workload.a must be a string, got 0"),
    ("campaign", {"workload": {"a": "a.mat", "w": "w.smat", "a_rows": 7}}, "unknown workload keys: ['a_rows']"),
]


@pytest.mark.parametrize("command,bad,message", MISTYPED_CONFIGS)
def test_mistyped_config_exit_2(tiny_files, capsys, monkeypatch, command, bad, message):
    p = tiny_files
    monkeypatch.chdir(p["a"].parent)   # workload paths name the tiny files
    p["cfg"].write_text(json.dumps({"R": 1, "C": 2, **bad}))
    if command == "run":
        argv = ["run", "--config", str(p["cfg"]), "--a", str(p["a"]), "--w", str(p["w"]),
                "--out", str(p["out"])]
    else:
        argv = ["campaign", "--config", str(p["cfg"]), "--campaigns", "2"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not p["out"].exists()


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_abft.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "prune" in proc.stdout and "campaign" in proc.stdout
