"""Register naming and enumeration for fault injection.

Every storage element in the simulator has a stable ``RegisterId``. The
canonical text form (used by the CLI and reports) is dot-separated:

    tpe.R.C.w.J      weight slot J of tensor PE (R, C)
    tpe.R.C.idx.J    index slot J
    tpe.R.C.in.L     input pipeline lane L
    tpe.R.C.psum     partial-sum register
    ic.R.acc.L       input-checksum accumulator, PE row R, lane L
    oc.C             output-checksum pipeline register, column C
    cksum.actual     actual-checksum accumulator
    cksum.predicted  predicted-checksum accumulator

Enumeration order is fixed (row-major PEs, then IC, OC, corner accumulators)
so that seeded per-bit sampling is reproducible.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
from dataclasses import dataclass

from .config import ArrayConfig


class Owner(enum.Enum):
    ARRAY = "array"
    CHECKER = "checker"


class RegKind(enum.Enum):
    WEIGHT = "w"
    INDEX = "idx"
    INPUT_PIPE = "in"
    PSUM = "psum"
    IC_ACC = "ic"
    OC_PIPE = "oc"
    CKSUM_ACTUAL = "actual"
    CKSUM_PREDICTED = "predicted"


_ARRAY_KINDS = {RegKind.WEIGHT, RegKind.INDEX, RegKind.INPUT_PIPE, RegKind.PSUM}


@dataclass(frozen=True, order=True)
class RegisterId:
    kind: RegKind
    row: int = 0
    col: int = 0
    lane: int = 0

    @property
    def owner(self) -> Owner:
        return Owner.ARRAY if self.kind in _ARRAY_KINDS else Owner.CHECKER

    @property
    def signed(self) -> bool:
        """Index registers hold unsigned row offsets; all others are two's complement."""
        return self.kind is not RegKind.INDEX

    @property
    def name(self) -> str:
        k = self.kind
        if k in (RegKind.WEIGHT, RegKind.INDEX, RegKind.INPUT_PIPE):
            return f"tpe.{self.row}.{self.col}.{k.value}.{self.lane}"
        if k is RegKind.PSUM:
            return f"tpe.{self.row}.{self.col}.psum"
        if k is RegKind.IC_ACC:
            return f"ic.{self.row}.acc.{self.lane}"
        if k is RegKind.OC_PIPE:
            return f"oc.{self.col}"
        return f"cksum.{k.value}"

    def __str__(self) -> str:
        return self.name


def parse_register(name: str) -> RegisterId:
    parts = name.split(".")
    try:
        if parts[0] == "tpe":
            r, c = int(parts[1]), int(parts[2])
            if parts[3] == "psum" and len(parts) == 4:
                return RegisterId(RegKind.PSUM, r, c)
            kind = {"w": RegKind.WEIGHT, "idx": RegKind.INDEX, "in": RegKind.INPUT_PIPE}[parts[3]]
            if len(parts) != 5:
                raise ValueError
            return RegisterId(kind, r, c, int(parts[4]))
        if parts[0] == "ic" and len(parts) == 4 and parts[2] == "acc":
            return RegisterId(RegKind.IC_ACC, row=int(parts[1]), lane=int(parts[3]))
        if parts[0] == "oc" and len(parts) == 2:
            return RegisterId(RegKind.OC_PIPE, col=int(parts[1]))
        if parts[0] == "cksum" and len(parts) == 2:
            kind = {"actual": RegKind.CKSUM_ACTUAL, "predicted": RegKind.CKSUM_PREDICTED}[parts[1]]
            return RegisterId(kind)
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"unknown register name {name!r}") from exc
    raise ValueError(f"unknown register name {name!r}")


@dataclass(frozen=True)
class RegisterMap:
    """Flat register population; bit offsets and totals derive from the entries."""

    entries: tuple      # (RegisterId, width in bits) pairs, in sampling order

    def __post_init__(self):
        widths = [width for _, width in self.entries]
        array_bits = sum(width for reg, width in self.entries if reg.owner is Owner.ARRAY)
        for name, value in (("_offsets", list(itertools.accumulate(widths, initial=0))[:-1]),
                            ("_widths", dict(self.entries)),
                            ("total_bits", sum(widths)), ("array_bits", array_bits),
                            ("checker_bits", sum(widths) - array_bits)):
            object.__setattr__(self, name, value)

    def locate_bit(self, global_bit: int) -> tuple:
        """Map a global bit index to (RegisterId, bit-within-register)."""
        if not 0 <= global_bit < self.total_bits:
            raise ValueError(f"bit {global_bit} out of range [0, {self.total_bits})")
        i = bisect.bisect_right(self._offsets, global_bit) - 1
        return self.entries[i][0], global_bit - self._offsets[i]

    def width_of(self, reg: RegisterId) -> int:
        try:
            return self._widths[reg]
        except KeyError:
            raise ValueError(f"register {reg.name} not in map") from None


@functools.lru_cache(maxsize=16)
def enumerate_registers(cfg: ArrayConfig) -> RegisterMap:
    """All storage elements of the array and checker, in stable order.

    Zero-width registers (index slots when m = 1) are skipped: they hold no
    state and cannot be fault targets. Maps are cached per configuration;
    they are immutable and safe to share.
    """
    entries = []

    def add(reg: RegisterId, width: int):
        if width > 0:
            entries.append((reg, width))

    for r in range(cfg.rows):
        for c in range(cfg.cols):
            for j in range(cfg.slots):
                add(RegisterId(RegKind.WEIGHT, r, c, j), cfg.input_width)
            for j in range(cfg.slots):
                add(RegisterId(RegKind.INDEX, r, c, j), cfg.index_width)
            for lane in range(cfg.pattern.m):
                add(RegisterId(RegKind.INPUT_PIPE, r, c, lane), cfg.input_width)
            add(RegisterId(RegKind.PSUM, r, c), cfg.col_out_width)
    for r in range(cfg.rows):
        for lane in range(cfg.pattern.m):
            add(RegisterId(RegKind.IC_ACC, row=r, lane=lane), cfg.ic_width)
    for c in range(cfg.cols):
        add(RegisterId(RegKind.OC_PIPE, col=c), cfg.oc_width)
    add(RegisterId(RegKind.CKSUM_ACTUAL), cfg.cksum_width)
    add(RegisterId(RegKind.CKSUM_PREDICTED), cfg.cksum_width)
    return RegisterMap(tuple(entries))
