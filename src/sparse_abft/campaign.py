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

import collections
import enum
import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from .config import ArrayConfig, json_typed
from .driver import reference_run, run_multiplication, total_active_cycles
from .faults import derive_seed, sample_faults
from .matio import read_dense, read_packed
from .oracle import golden_result
from .registers import Owner, enumerate_registers
from .sparsity import DenseMatrix, prune_magnitude, unpack


class OutcomeCategory(enum.Enum):
    """One row per bucket: its report key (the enum value) and table label."""

    DETECTED = "detected", "Detected"
    SILENT = "silent", "Silent"
    FALSE_POSITIVE = "false_positive", "False Positive"
    FALSE_NEGATIVE = "false_negative", "False Negative"
    BENIGN = "benign", "Benign"

    def __new__(cls, value, label):
        category = object.__new__(cls)
        category._value_, category.label = value, label
        return category


def classify(faults, flag_history) -> OutcomeCategory:
    """Map fault placement and flag history to an outcome bucket.

    Whether the output was corrupted is recorded beside the category, not in
    it: the taxonomy is about where faults landed and whether the checker
    reacted.
    """
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

    a_rows: int = 512
    k: int = 0                  # 0 = one full weight tile
    cols: int = 0               # 0 = array width
    a_path: str | None = None   # a file workload names both files
    w_path: str | None = None

    def __post_init__(self):
        for key, least in (("a_rows", 1), ("k", 0), ("cols", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"workload.{key} must be at least {least}, got {getattr(self, key)}")

    @property
    def kind(self) -> str:
        return "synthetic" if self.a_path is None and self.w_path is None else "files"

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WorkloadSpec":
        json_typed("workload", obj, dict)
        files = "a" in obj or "w" in obj
        unknown = set(obj) - ({"a", "w"} if files else {"a_rows", "k", "cols"})
        if unknown:
            raise ValueError(f"unknown workload keys: {sorted(unknown)}")
        if files:
            if not ("a" in obj and "w" in obj):
                raise ValueError("file workload needs both 'a' and 'w' paths")
            return cls(a_path=json_typed("workload.a", obj["a"], str),
                       w_path=json_typed("workload.w", obj["w"], str))
        return cls(**{k: json_typed(f"workload.{k}", v, int) for k, v in obj.items()})

    def synthetic_shape(self, arr: ArrayConfig) -> tuple:
        """``(a_rows, k, cols)`` of a synthetic workload on ``arr``.

        A ``k`` or ``cols`` of 0 means one full weight tile.
        """
        return self.a_rows, self.k or arr.tile_k, self.cols or arr.cols


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

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "category": self.category.value,
            "faults": [f.to_json_dict() for f in self.faults],
            "flags": list(self.flags),
            "output_corrupted": self.output_corrupted,
        }


def _file_workload(cfg: CampaignConfig, with_reference: bool):
    """``(A, W, golden, reference)`` of a file workload, ``None`` for a
    synthetic one; ``reference`` is its ``reference_run`` or ``None``."""
    wl, arr = cfg.workload, cfg.array
    if wl.kind != "files":
        return None
    a, w = read_dense(wl.a_path), read_packed(wl.w_path)
    return (a, w, golden_result(a, unpack(w), arr.col_out_width),
            reference_run(arr, a, w) if with_reference else None)


def _synthetic_workload(cfg: CampaignConfig, index: int):
    """``(A, W, golden, None)`` drawn for one campaign of a synthetic workload."""
    arr = cfg.array
    a_rows, k, cols = cfg.workload.synthetic_shape(arr)
    rng = np.random.default_rng(derive_seed(cfg.master_seed, index, "workload"))
    lo, hi = -(1 << arr.input_width - 1), (1 << arr.input_width - 1) - 1
    a = DenseMatrix(a_rows, k, rng.integers(lo, hi + 1, size=(a_rows, k)), owned=True)
    # weight magnitudes capped one below the input minimum: keeps every
    # cross-column wave sum inside the OC width even in the worst case
    w_dense = DenseMatrix(k, cols, rng.integers(lo + 1, hi + 1, size=(k, cols)))
    w = prune_magnitude(w_dense, arr.pattern)
    return a, w, golden_result(a, unpack(w), arr.col_out_width), None


def run_campaign(cfg: CampaignConfig, index: int, workload=None) -> CampaignOutcome:
    """Execute one seeded campaign and classify its outcome.

    ``workload`` is what ``run_campaigns`` shares among the campaigns of a
    file workload (``_file_workload``); without it the campaign reads the
    files itself and simulates every tile.
    """
    arr = cfg.array
    a, w, golden, reference = (workload or _file_workload(cfg, with_reference=False)
                               or _synthetic_workload(cfg, index))

    count_rng = np.random.default_rng(derive_seed(cfg.master_seed, index, "count"))
    count = int(count_rng.integers(cfg.fault_lo, cfg.fault_hi + 1))
    window = total_active_cycles(arr, a.rows, a.cols, w.cols)
    faults = sample_faults(
        derive_seed(cfg.master_seed, index, "faults"),
        enumerate_registers(arr),
        count,
        window,
    )

    run = run_multiplication(arr, a, w, faults=faults, reference=reference)
    flags = [r.flag for r in run.rounds]
    corrupted = run.outputs != golden.product
    return CampaignOutcome(
        index=index,
        category=classify(faults, flags),
        faults=faults,
        flags=flags,
        output_corrupted=corrupted,
    )


def worker_count() -> int:
    """Cap on the processes that compute a ``run_campaigns`` call, the caller
    included, from SPARSE_ABFT_THREADS (0 or unset = one per CPU this
    process may run on)."""
    raw = os.environ.get("SPARSE_ABFT_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"SPARSE_ABFT_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError("SPARSE_ABFT_THREADS must be >= 0")
    if n:
        return n
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_share(conn, cfg: CampaignConfig, share: range, workload) -> None:
    """Child process body: send ``(True, outcomes)`` of ``share``, or
    ``(False, exception)`` if a campaign raised."""
    try:
        reply = (True, [run_campaign(cfg, i, workload) for i in share])
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def _receive(child, conn) -> list:
    """Outcomes a child sent; its exception, re-raised, if it sent one."""
    try:
        ok, result = conn.recv()
    except EOFError:
        child.join()
        raise RuntimeError(f"campaign process exited with code {child.exitcode} "
                           "without sending its outcomes") from None
    if not ok:
        raise result
    return result


def run_campaigns(cfg: CampaignConfig, workers: int = 0) -> list:
    """Run all campaigns; result order is by index regardless of scheduling.

    A file workload is read, and its golden result and fault-free
    ``reference_run`` computed, once here: every campaign sees the same
    matrices and simulates only the tiles its faults reach, with the outcome
    of simulating every tile.

    The indexes are split into ``p = max(1, min(workers, campaigns // 16))``
    strided shares ``range(k, campaigns, p)`` (``workers`` 0 = ``worker_count()``),
    so a call of fewer than 32 campaigns runs serially even on many cores: on a
    2-vCPU host a second process cost 52–108% more CPU per campaign below 32
    campaigns, for at best 19% less wall time (README "Install and test").
    Share 0 runs in this process, each other share in a child started once
    everything the campaigns share (file workload, register map) is built, so
    a forked child inherits it. Every child is joined before the call returns or raises: its
    exception is re-raised here, and its exit without a reply raises
    ``RuntimeError``, as do merged indexes other than exactly ``0..campaigns-1``.
    """
    processes = max(1, min(workers or worker_count(), cfg.campaigns // 16))
    workload = _file_workload(cfg, with_reference=cfg.campaigns > 1)
    enumerate_registers(cfg.array)      # cached, so forked children inherit the map
    shares = [range(k, cfg.campaigns, processes) for k in range(processes)]
    children = []
    try:
        for share in shares[1:]:
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_run_share, args=(send, cfg, share, workload))
            child.start()
            send.close()
            children.append((child, receive))
        outcomes = [run_campaign(cfg, i, workload) for i in shares[0]]
        for child, receive in children:
            outcomes += _receive(child, receive)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()
    outcomes.sort(key=lambda o: o.index)
    if [o.index for o in outcomes] != list(range(cfg.campaigns)):
        raise RuntimeError(
            f"campaign outcomes do not cover indexes 0..{cfg.campaigns - 1} once each")
    return outcomes


# ----------------------------------------------------------------------
# aggregation

@dataclass(frozen=True)
class CategoryStats:
    """Outcome counts of one campaign batch: one pattern, one fault regime."""

    counts: dict                # category value -> count, every category in enum order

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def percentages(self, paper_compat: bool = False) -> dict:
        """Category value -> percentage, in table row order; the paper-compat
        view is the classical four-way taxonomy, with Benign folded into Silent."""
        counts = dict(self.counts)
        if paper_compat:
            counts[OutcomeCategory.SILENT.value] += counts.pop(OutcomeCategory.BENIGN.value)
        return {value: 100.0 * count / self.total for value, count in counts.items()}


def aggregate(outcomes) -> CategoryStats:
    """Count the outcomes of one ``run_campaigns`` batch by category."""
    counts = collections.Counter(o.category for o in outcomes)
    if not counts:
        raise ValueError("no outcomes to aggregate")
    return CategoryStats({c.value: counts[c] for c in OutcomeCategory})


def render_stats_table(stats: CategoryStats, cfg: CampaignConfig,
                       paper_compat: bool = False) -> str:
    """Text table: one row per category, one column for the batch ``cfg`` ran."""
    regime = cfg.fault_regime
    header = f"{cfg.array.pattern} ({regime} fault{'s' if regime != '1' else ''})"
    rows = {OutcomeCategory(v).label: pct for v, pct in stats.percentages(paper_compat).items()}
    name_w = max(len(label) for label in rows)
    col_w = max(12, len(header))
    lines = [" " * name_w + " | " + header.rjust(col_w)]
    lines.append("-" * len(lines[0]))
    for label, pct in rows.items():
        lines.append(label.ljust(name_w) + " | " + f"{pct:.2f}%".rjust(col_w))
    return "\n".join(lines)
