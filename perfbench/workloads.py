"""The benchmark's workloads: inputs, requests, correctness gate, reference.

Every input is generated from the seed and handed to the program as arrays
or as matrix files written before the request. A request is one closed-loop
call that a user makes and waits for:

* ``campaign_acceptance``: ``run_campaigns`` on the paper's 8x32 synthetic
  traffic, cycling through the four acceptance batch shapes.
* ``campaign_files``: ``sparse-abft campaign`` (in-process ``cli.main``) on a
  four-tile file workload, writing the full report.
* ``run_tiled``: ``sparse-abft run`` (in-process ``cli.main``), fault-free,
  serial, writing the output matrix.

Each workload object offers ``setup``, ``prepare`` (untimed input writing),
``request`` (the timed call), ``check`` (the untimed correctness gate) and
``reference`` (the default-seed run whose report digest is pinned and whose
simulated statistics are printed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from sparse_abft import campaign, cli, config, driver, matio, oracle, registers, sparsity, tiling

REFERENCE_SEED = 0          # the default --seed; its reports are pinned in digests.json
INPUT_WIDTH = 8
CATEGORIES = ("detected", "silent", "false_positive", "false_negative", "benign")
# single-fault detected % reported by the source paper
PAPER_DETECTED_1_FAULT = {"2:4": 81.11, "1:4": 74.15}


def sub_seed(*parts) -> int:
    """Stable 32-bit seed for one request, independent of hash randomization."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def random_operands(seed: int, a_rows: int, k: int, cols: int, pattern):
    """Int8 activations and magnitude-pruned weights with |w| <= 127.

    The weight bound keeps every cross-column wave sum inside the OC width,
    so a fault-free run never flags.
    """
    rng = np.random.default_rng(seed)
    lo, hi = -(1 << INPUT_WIDTH - 1), (1 << INPUT_WIDTH - 1) - 1
    a = sparsity.DenseMatrix(a_rows, k, rng.integers(lo, hi + 1, size=(a_rows, k)))
    w_dense = sparsity.DenseMatrix(k, cols, rng.integers(lo + 1, hi + 1, size=(k, cols)))
    return a, sparsity.prune_magnitude(w_dense, pattern)


def run_cli(argv, workers: int) -> int:
    """``sparse-abft ARGV`` in-process with an explicit worker count."""
    saved = os.environ.get("SPARSE_ABFT_THREADS")
    os.environ["SPARSE_ABFT_THREADS"] = str(workers)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])
    finally:
        if saved is None:
            del os.environ["SPARSE_ABFT_THREADS"]
        else:
            os.environ["SPARSE_ABFT_THREADS"] = saved


def wilson95(successes: int, n: int) -> tuple:
    """Wilson score 95% interval of a proportion, in percent."""
    z = 1.959963984540054
    p = successes / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return 100 * max(0.0, centre - half), 100 * min(1.0, centre + half)


def campaign_stats(per_campaign: list, cycles_per: int, tiles_per: int) -> dict:
    """Simulated statistics of campaign outcomes in their report form."""
    n = len(per_campaign)
    counts = dict.fromkeys(CATEGORIES, 0)
    for c in per_campaign:
        counts[c["category"]] += 1
    faults = [f for c in per_campaign for f in c["faults"]]
    in_array = sum(1 for f in faults
                   if registers.parse_register(f["register"]).owner is registers.Owner.ARRAY)
    return {
        "campaigns": n,
        "cycles": n * cycles_per,
        "tiles": n * tiles_per,
        "rounds": sum(len(c["flags"]) for c in per_campaign),
        "flagged_rounds": sum(sum(c["flags"]) for c in per_campaign),
        "categories": counts,
        "faults_injected": len(faults),
        "fault_array_share": in_array / len(faults) if faults else 0.0,
        "detected_pct": 100 * counts["detected"] / n,
        "detected_wilson95_pct": wilson95(counts["detected"], n),
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class CampaignAcceptance:
    """The tier-1/paper traffic: 8x32, 512 synthetic rows, one tile, 557 cycles.

    One request runs the four acceptance batch shapes in turn, as the
    acceptance fixture does, so every request costs the same and request
    medians do not jump between the cheaper 1:4 and the dearer 2:4 batches.
    """

    name = "campaign_acceptance"
    SHAPES = (("2:4", 1, 1), ("2:4", 1, 5), ("1:4", 1, 1), ("1:4", 1, 5))
    A_ROWS = 512
    campaigns_per_request = 8       # per shape
    warm_campaigns = 4              # the smallest batch run_campaigns pools
    reference_campaigns = 40        # per shape
    serial_requests = 2             # traced and untraced
    serial_campaigns = 3            # per shape

    def __init__(self, workdir: Path, workers: int):
        self.workers = workers
        self.arrays = {mode: config.ArrayConfig(pattern=sparsity.SparsityPattern.parse(mode))
                       for mode in ("2:4", "1:4")}
        self.configs = list(self.arrays.values())
        arr = self.configs[0]
        self.cycles_per_matmul = driver.total_active_cycles(arr, self.A_ROWS, arr.tile_k, arr.cols)
        self.tiles_per_matmul = len(tiling.tile_plan(self.A_ROWS, arr.tile_k, arr.cols, arr).tiles)

    def _config(self, shape, campaigns: int, master_seed: int):
        mode, lo, hi = shape
        return campaign.CampaignConfig(
            array=self.arrays[mode], campaigns=campaigns, fault_lo=lo, fault_hi=hi,
            master_seed=master_seed, workload=campaign.WorkloadSpec(a_rows=self.A_ROWS))

    def setup(self, seed: int) -> dict:
        """Pool warm-up: one pooled batch of the first shape."""
        cfgs = self.prepare(seed, "warm", self.warm_campaigns)[:1]
        return {"warm_up_s": _timed(self.request, cfgs, self.workers)}

    def prepare(self, seed: int, j, campaigns: int) -> list:
        return [self._config(shape, campaigns, sub_seed(seed, j, *shape)) for shape in self.SHAPES]

    @staticmethod
    def matmuls(cfgs) -> int:
        return sum(cfg.campaigns for cfg in cfgs)

    @staticmethod
    def request(cfgs, workers: int) -> list:
        return [campaign.run_campaigns(cfg, workers=workers) for cfg in cfgs]

    @staticmethod
    def check(cfgs, batches):
        """Problem text, or None: outcomes in index order, one sample equal to serial."""
        for cfg, outcomes in zip(cfgs, batches):
            if [o.index for o in outcomes] != list(range(cfg.campaigns)):
                return "outcome indexes are not 0..campaigns-1 in order"
        seed = cfgs[0].master_seed
        cfg, outcomes = cfgs[seed % len(cfgs)], batches[seed % len(cfgs)]
        i = seed % cfg.campaigns
        if campaign.run_campaign(cfg, i).to_json_dict() != outcomes[i].to_json_dict():
            return f"pooled campaign {i} of {cfg.fault_regime}-fault {cfg.array.pattern} differs from serial run_campaign"
        return None

    def reference(self):
        """Default-seed batches: (report digest, simulated statistics)."""
        report, stats = {}, {}
        for shape in self.SHAPES:
            mode, lo, hi = shape
            cfg = self._config(shape, self.reference_campaigns,
                               sub_seed(REFERENCE_SEED, "reference", mode, lo, hi))
            per = [o.to_json_dict() for o in campaign.run_campaigns(cfg, workers=self.workers)]
            key = f"{mode} faults {cfg.fault_regime}"
            report[key] = per
            stats[key] = campaign_stats(per, self.cycles_per_matmul, self.tiles_per_matmul)
            if lo == hi == 1:
                stats[key]["paper_detected_pct"] = PAPER_DETECTED_1_FAULT[mode]
        return _digest(json.dumps(report, sort_keys=True).encode()), stats


class _FileWorkload:
    """Shared input writing for the CLI workloads."""

    PATTERN = "2:4"

    def __init__(self, workdir: Path, workers: int):
        self.dir = workdir
        self.workers = workers
        self.array = config.ArrayConfig(pattern=sparsity.SparsityPattern.parse(self.PATTERN))
        self.configs = [self.array]
        self.cycles_per_matmul = driver.total_active_cycles(self.array, self.A_ROWS, self.K, self.COLS)
        self.tiles_per_matmul = len(tiling.tile_plan(self.A_ROWS, self.K, self.COLS, self.array).tiles)

    def _write_inputs(self, seed: int):
        self.dir.mkdir(parents=True, exist_ok=True)
        a, w = random_operands(seed, self.A_ROWS, self.K, self.COLS, self.array.pattern)
        paths = {"a": self.dir / "a.mat", "w": self.dir / "w.smat", "cfg": self.dir / "cfg.json"}
        matio.write_dense(paths["a"], a)
        matio.write_packed(paths["w"], w)
        paths["cfg"].write_text(json.dumps(
            {"pattern": self.PATTERN, "workload": {"a": str(paths["a"]), "w": str(paths["w"])}}))
        return a, w, paths

    def setup(self, seed: int) -> dict:
        start = time.perf_counter()
        ctx = self.prepare(seed, "warm", self.warm_campaigns)
        inputs_s = time.perf_counter() - start
        return {"write_inputs_s": inputs_s, "warm_up_s": _timed(self.request, ctx, self.workers)}

    @staticmethod
    def request(ctx, workers: int) -> int:
        return run_cli(ctx["argv"], workers)


class CampaignFiles(_FileWorkload):
    """File workload: A 512x64, W 64x64 at 2:4; four tiles, 2,228 cycles per campaign."""

    name = "campaign_files"
    A_ROWS, K, COLS = 512, 64, 64
    FAULTS = (1, 5)
    campaigns_per_request = 4
    reference_campaigns = 16
    serial_requests = 2
    serial_campaigns = 4
    warm_campaigns = 4

    def prepare(self, seed: int, j, campaigns: int) -> dict:
        _, _, paths = self._write_inputs(sub_seed(seed, j, "inputs"))
        master = sub_seed(seed, j)
        report = self.dir / "report.json"
        lo, hi = self.FAULTS
        return {
            "argv": ["campaign", "--config", paths["cfg"], "--campaigns", campaigns,
                     "--faults", f"{lo}..{hi}", "--seed", master, "--report", report],
            "cfg": paths["cfg"], "report": report, "campaigns": campaigns, "seed": master,
        }

    @staticmethod
    def matmuls(ctx) -> int:
        return ctx["campaigns"]

    def check(self, ctx, code: int):
        """Problem text, or None: exit 0, a sampled campaign equal to serial."""
        if code != cli.EXIT_OK:
            return f"campaign exited {code}"
        per = json.loads(ctx["report"].read_text())["per_campaign"]
        n = ctx["campaigns"]
        if [c["index"] for c in per] != list(range(n)):
            return "report per_campaign indexes are not 0..campaigns-1 in order"
        raw = json.loads(ctx["cfg"].read_text())
        lo, hi = self.FAULTS
        ccfg = campaign.CampaignConfig(
            array=config.load_config(ctx["cfg"]), campaigns=n, fault_lo=lo, fault_hi=hi,
            master_seed=ctx["seed"], workload=campaign.WorkloadSpec.from_json_dict(raw["workload"]))
        i = ctx["seed"] % n
        if campaign.run_campaign(ccfg, i).to_json_dict() != per[i]:
            return f"pooled campaign {i} differs from serial run_campaign"
        return None

    def reference(self):
        """Default-seed report: (digest of its bytes, simulated statistics)."""
        ctx = self.prepare(REFERENCE_SEED, "reference", self.reference_campaigns)
        problem = self.check(ctx, self.request(ctx, self.workers))
        if problem:
            raise RuntimeError(f"reference campaign: {problem}")
        data = ctx["report"].read_bytes()
        per = json.loads(data)["per_campaign"]
        lo, hi = self.FAULTS
        stats = {f"{self.PATTERN} faults {lo}-{hi}":
                 campaign_stats(per, self.cycles_per_matmul, self.tiles_per_matmul)}
        return _digest(data), stats


class RunTiled(_FileWorkload):
    """One user's ``run``: A 256x64, W 64x64 at 2:4; four tiles, 1,196 cycles."""

    name = "run_tiled"
    A_ROWS, K, COLS = 256, 64, 64
    campaigns_per_request = 0
    serial_requests = 10
    serial_campaigns = 0
    warm_campaigns = 0

    def prepare(self, seed: int, j, campaigns: int = 0) -> dict:
        a, w, paths = self._write_inputs(sub_seed(seed, j, "inputs"))
        expected = oracle.matmul_ref(a, sparsity.unpack(w), self.array.col_out_width)
        out, report = self.dir / "c.mat", self.dir / "run.json"
        return {
            "argv": ["run", "--a", paths["a"], "--w", paths["w"], "--out", out, "--report", report],
            "out": out, "report": report, "expected": expected.data,
        }

    @staticmethod
    def matmuls(ctx) -> int:
        return 1

    def check(self, ctx, code: int):
        """Problem text, or None: exit 0, output equal to the oracle, every round clean."""
        if code != cli.EXIT_OK:
            return f"run exited {code}"
        out = np.loadtxt(ctx["out"], dtype=np.int64, skiprows=1, ndmin=2)
        if not np.array_equal(out, ctx["expected"]):
            return "output differs from oracle.matmul_ref"
        report = json.loads(ctx["report"].read_text())
        if any(r["flag"] for r in report["rounds"]) or report["verdict"] != "clean":
            return "a fault-free round flagged"
        if report["total_cycles"] != self.cycles_per_matmul:
            return f"ran {report['total_cycles']} cycles, expected {self.cycles_per_matmul}"
        return None

    def reference(self):
        ctx = self.prepare(REFERENCE_SEED, "reference")
        problem = self.check(ctx, self.request(ctx, self.workers))
        if problem:
            raise RuntimeError(f"reference run: {problem}")
        report = json.loads(ctx["report"].read_text())
        rounds = report["rounds"]
        stats = {f"{self.PATTERN} fault-free": {
            "cycles": report["total_cycles"],
            "tiles": self.tiles_per_matmul,
            "rounds": len(rounds),
            "flagged_rounds": sum(r["flag"] for r in rounds),
        }}
        return None, stats


WORKLOADS = {w.name: w for w in (CampaignAcceptance, CampaignFiles, RunTiled)}
