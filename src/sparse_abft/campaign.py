"""Fault-injection campaigns: execution, classification, aggregation.

A campaign runs one full multiplication with a sampled set of bit flips and
records which of five buckets the run falls into:

* Detected: at least one array fault, checker flagged.
* Silent: array faults only, no flag (masked at the checksum level).
* FalsePositive: checker faults only, flag raised.
* FalseNegative: faults in both array and checker, no flag.
* Benign: no faults at all, or checker faults only with no flag.

The classical four-way taxonomy has no bucket for a checker-only flip that
stays quiet, so Benign is kept explicit; the paper-compat view folds Benign
into Silent to produce a four-column table.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ArrayConfig
from .driver import run_multiplication, total_active_cycles
from .faults import derive_seed, sample_faults
from .matio import read_dense, read_packed
from .oracle import golden_result
from .registers import Owner, enumerate_registers
from .sparsity import DenseMatrix, prune_magnitude, unpack


class OutcomeCategory(enum.Enum):
    DETECTED = "detected"
    SILENT = "silent"
    FALSE_POSITIVE = "false_positive"
    FALSE_NEGATIVE = "false_negative"
    BENIGN = "benign"


CATEGORY_LABELS = {
    OutcomeCategory.DETECTED: "Detected",
    OutcomeCategory.SILENT: "Silent",
    OutcomeCategory.FALSE_POSITIVE: "False Positive",
    OutcomeCategory.FALSE_NEGATIVE: "False Negative",
    OutcomeCategory.BENIGN: "Benign",
}


def classify(faults, flag_history, output_corrupted) -> OutcomeCategory:
    """Map fault placement and flag history to an outcome bucket.

    ``output_corrupted`` is recorded as evidence but does not drive the
    category: the taxonomy is about where faults landed and whether the
    checker reacted.
    """
    del output_corrupted
    flagged = any(flag_history)
    hit_array = any(f.register.owner is Owner.ARRAY for f in faults)
    hit_checker = any(f.register.owner is Owner.CHECKER for f in faults)
    if hit_array:
        if flagged:
            return OutcomeCategory.DETECTED
        return OutcomeCategory.FALSE_NEGATIVE if hit_checker else OutcomeCategory.SILENT
    if hit_checker and flagged:
        return OutcomeCategory.FALSE_POSITIVE
    return OutcomeCategory.BENIGN


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic generator shape, or a pair of matrix files."""

    kind: str = "synthetic"     # "synthetic" | "files"
    a_rows: int = 512
    k: int = 0                  # 0 = one full weight tile
    cols: int = 0               # 0 = array width
    a_path: str = ""
    w_path: str = ""

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WorkloadSpec":
        if "a" in obj or "w" in obj:
            if not ("a" in obj and "w" in obj):
                raise ValueError("file workload needs both 'a' and 'w' paths")
            return cls(kind="files", a_path=obj["a"], w_path=obj["w"])
        known = {"a_rows", "k", "cols"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown workload keys: {sorted(unknown)}")
        return cls(kind="synthetic", **{k: int(v) for k, v in obj.items()})


@dataclass(frozen=True)
class CampaignConfig:
    array: ArrayConfig
    campaigns: int
    fault_lo: int
    fault_hi: int
    master_seed: int
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)

    def __post_init__(self):
        if self.campaigns < 1:
            raise ValueError("need at least one campaign")
        if not 0 <= self.fault_lo <= self.fault_hi:
            raise ValueError(f"bad fault count range {self.fault_lo}..{self.fault_hi}")

    @property
    def fault_regime(self) -> str:
        if self.fault_lo == self.fault_hi:
            return str(self.fault_lo)
        return f"{self.fault_lo}-{self.fault_hi}"


@dataclass
class CampaignOutcome:
    index: int
    category: OutcomeCategory
    faults: list
    flags: list
    output_corrupted: bool
    sparsity: str
    fault_regime: str

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "category": self.category.value,
            "faults": [f.to_json_dict() for f in self.faults],
            "flags": list(self.flags),
            "output_corrupted": self.output_corrupted,
        }


def _read_files(cfg: CampaignConfig):
    """``(A, W)`` of a file workload, ``None`` for a synthetic one."""
    wl = cfg.workload
    if wl.kind != "files":
        return None
    return read_dense(wl.a_path), read_packed(wl.w_path)


def _workload_matrices(cfg: CampaignConfig, index: int, files=None):
    wl = cfg.workload
    arr = cfg.array
    if wl.kind == "files":
        return files or _read_files(cfg)
    k = wl.k or arr.tile_k
    cols = wl.cols or arr.cols
    rng = np.random.default_rng(derive_seed(cfg.master_seed, index, "workload"))
    lo, hi = -(1 << arr.input_width - 1), (1 << arr.input_width - 1) - 1
    a = DenseMatrix(wl.a_rows, k, rng.integers(lo, hi + 1, size=(wl.a_rows, k)))
    # weight magnitudes capped one below the input minimum: keeps every
    # cross-column wave sum inside the OC width even in the worst case
    w_dense = DenseMatrix(k, cols, rng.integers(lo + 1, hi + 1, size=(k, cols)))
    return a, prune_magnitude(w_dense, arr.pattern)


def run_campaign(cfg: CampaignConfig, index: int, files=None) -> CampaignOutcome:
    """Execute one seeded campaign and classify its outcome.

    ``files`` is the ``(A, W)`` pair of a file workload as the caller read
    it; without it the campaign reads the files itself.
    """
    arr = cfg.array
    a, w = _workload_matrices(cfg, index, files)
    golden = golden_result(a, unpack(w), arr.col_out_width)

    count_rng = np.random.default_rng(derive_seed(cfg.master_seed, index, "count"))
    count = int(count_rng.integers(cfg.fault_lo, cfg.fault_hi + 1))
    window = total_active_cycles(arr, a.rows, a.cols, w.cols)
    faults = sample_faults(
        derive_seed(cfg.master_seed, index, "faults"),
        enumerate_registers(arr),
        count,
        window,
    )

    run = run_multiplication(arr, a, w, faults=faults)
    flags = [r.flag for r in run.rounds]
    corrupted = run.outputs != golden.product
    return CampaignOutcome(
        index=index,
        category=classify(faults, flags, corrupted),
        faults=faults,
        flags=flags,
        output_corrupted=corrupted,
        sparsity=str(arr.pattern),
        fault_regime=cfg.fault_regime,
    )


def worker_count() -> int:
    """Worker cap from SPARSE_ABFT_THREADS (0 or unset = auto)."""
    raw = os.environ.get("SPARSE_ABFT_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"SPARSE_ABFT_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError("SPARSE_ABFT_THREADS must be >= 0")
    return n or (os.cpu_count() or 1)


# a file workload's (A, W) in a pool worker, set by its initializer; the
# pool, and so the worker, lives for one run_campaigns call
_worker_files = None


def _init_worker(files) -> None:
    global _worker_files
    _worker_files = files


def _worker(args) -> CampaignOutcome:
    cfg, index = args
    return run_campaign(cfg, index, _worker_files)


def run_campaigns(cfg: CampaignConfig, workers: int = 0) -> list:
    """Run all campaigns; result order is by index regardless of scheduling.

    A file workload is read once here, so every campaign of the call sees
    the same matrices; nothing is kept after the call returns.
    """
    workers = workers or worker_count()
    indexes = range(cfg.campaigns)
    files = _read_files(cfg)
    if workers <= 1 or cfg.campaigns < 4:
        return [run_campaign(cfg, i, files) for i in indexes]
    chunk = max(1, cfg.campaigns // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(files,)) as pool:
        return list(pool.map(_worker, [(cfg, i) for i in indexes], chunksize=chunk))


# ----------------------------------------------------------------------
# aggregation

@dataclass(frozen=True)
class CategoryStats:
    total: int
    counts: dict                # category value -> count

    def percentage(self, category: OutcomeCategory) -> float:
        return 100.0 * self.counts.get(category.value, 0) / self.total

    def paper_compat_percentage(self, category: OutcomeCategory) -> float:
        """Four-way view: Benign folds into Silent."""
        if category is OutcomeCategory.BENIGN:
            raise ValueError("benign is not a paper-compat category")
        count = self.counts.get(category.value, 0)
        if category is OutcomeCategory.SILENT:
            count += self.counts.get(OutcomeCategory.BENIGN.value, 0)
        return 100.0 * count / self.total


def aggregate(outcomes) -> dict:
    """Percentage table per (sparsity mode, fault regime) group."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes to aggregate")
    groups: dict = {}
    for outcome in outcomes:
        key = (outcome.sparsity, outcome.fault_regime)
        groups.setdefault(key, []).append(outcome)
    table = {}
    for key in sorted(groups):
        counts: dict = {}
        for outcome in groups[key]:
            counts[outcome.category.value] = counts.get(outcome.category.value, 0) + 1
        table[key] = CategoryStats(total=len(groups[key]), counts=counts)
    return table


def render_stats_table(table: dict, paper_compat: bool = False) -> str:
    """Text table with the classical category rows, one column per group."""
    keys = list(table)
    headers = [f"{sparsity} ({regime} fault{'s' if regime != '1' else ''})"
               for sparsity, regime in keys]
    categories = [
        OutcomeCategory.DETECTED,
        OutcomeCategory.SILENT,
        OutcomeCategory.FALSE_POSITIVE,
        OutcomeCategory.FALSE_NEGATIVE,
    ]
    if not paper_compat:
        categories.append(OutcomeCategory.BENIGN)
    name_w = max(len(CATEGORY_LABELS[c]) for c in categories)
    col_w = max(12, *(len(h) for h in headers)) if headers else 12
    lines = [" " * name_w + " | " + " | ".join(h.rjust(col_w) for h in headers)]
    lines.append("-" * len(lines[0]))
    for cat in categories:
        cells = []
        for key in keys:
            stats = table[key]
            pct = (stats.paper_compat_percentage(cat) if paper_compat
                   else stats.percentage(cat))
            cells.append(f"{pct:.2f}%".rjust(col_w))
        lines.append(CATEGORY_LABELS[cat].ljust(name_w) + " | " + " | ".join(cells))
    return "\n".join(lines)
