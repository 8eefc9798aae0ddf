"""Register naming and enumeration for fault injection.

Every storage element in the simulator has a stable ``RegisterId``. Every
fact about a register kind (its text form, width, storage, owner and
signedness) is one row of the register table, ``RegKind``. The canonical text
forms, used by the CLI and reports, are dot-separated, such as ``tpe.R.C.w.J``
for weight slot J of tensor PE (R, C).

Enumeration order is fixed (row-major PEs, then IC, OC, corner accumulators)
so that seeded per-bit sampling is reproducible.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import re
from dataclasses import dataclass

from .config import ArrayConfig


class Owner(enum.Enum):
    ARRAY = "array"
    CHECKER = "checker"


class RegKind(enum.Enum):
    """The register table: one row per kind, giving its code (the enum value),
    its canonical text form, the ``ArrayConfig`` attribute of its width, the
    ``SimState`` attribute that stores it, its owner and whether it holds two's
    complement values (index registers hold unsigned row offsets). The
    placeholders of a form are the kind's index fields, in the order of the
    stored array's axes; a form with none names an int attribute."""

    WEIGHT = "w", "tpe.{row}.{col}.w.{lane}", "input_width", "weights", Owner.ARRAY
    INDEX = "idx", "tpe.{row}.{col}.idx.{lane}", "index_width", "indexes", Owner.ARRAY, False
    INPUT_PIPE = "in", "tpe.{row}.{col}.in.{lane}", "input_width", "pipe", Owner.ARRAY
    PSUM = "psum", "tpe.{row}.{col}.psum", "col_out_width", "psum", Owner.ARRAY
    IC_ACC = "ic", "ic.{row}.acc.{lane}", "ic_width", "ic", Owner.CHECKER
    OC_PIPE = "oc", "oc.{col}", "oc_width", "oc", Owner.CHECKER
    CKSUM_ACTUAL = "actual", "cksum.actual", "cksum_width", "actual", Owner.CHECKER
    CKSUM_PREDICTED = "predicted", "cksum.predicted", "cksum_width", "predicted", Owner.CHECKER

    def __new__(cls, code, form, width_attr, storage, owner, signed=True):
        kind = object.__new__(cls)
        kind._value_, kind.form, kind.width_attr, kind.storage = code, form, width_attr, storage
        kind.owner, kind.signed = owner, signed
        # parsing accepts each index field in plain decimal only: ASCII
        # digits, no sign, no leading zero, no underscore
        kind.pattern = re.compile(re.sub(r"\\{(\w+)\\}", r"(?P<\1>0|[1-9][0-9]*)", re.escape(form)))
        kind.fields = tuple(kind.pattern.groupindex)
        return kind


@dataclass(frozen=True, order=True)
class RegisterId:
    kind: RegKind
    row: int = 0
    col: int = 0
    lane: int = 0

    @property
    def owner(self) -> Owner:
        return self.kind.owner

    @property
    def signed(self) -> bool:
        return self.kind.signed

    @property
    def name(self) -> str:
        return self.kind.form.format(row=self.row, col=self.col, lane=self.lane)

    def __str__(self) -> str:
        return self.name


def parse_register(name: str) -> RegisterId:
    """The register whose canonical ``name`` is ``name``; ValueError for any other text."""
    for kind in RegKind:
        match = kind.pattern.fullmatch(name)
        if match:
            return RegisterId(kind, **{k: int(v) for k, v in match.groupdict().items()})
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
    widths = {kind: getattr(cfg, kind.width_attr) for kind in RegKind}

    def add(kind: RegKind, row: int = 0, col: int = 0, lane: int = 0):
        if widths[kind] > 0:
            entries.append((RegisterId(kind, row, col, lane), widths[kind]))

    for r in range(cfg.rows):
        for c in range(cfg.cols):
            for j in range(cfg.slots):
                add(RegKind.WEIGHT, r, c, j)
            for j in range(cfg.slots):
                add(RegKind.INDEX, r, c, j)
            for lane in range(cfg.pattern.m):
                add(RegKind.INPUT_PIPE, r, c, lane)
            add(RegKind.PSUM, r, c)
    for r in range(cfg.rows):
        for lane in range(cfg.pattern.m):
            add(RegKind.IC_ACC, row=r, lane=lane)
    for c in range(cfg.cols):
        add(RegKind.OC_PIPE, col=c)
    add(RegKind.CKSUM_ACTUAL)
    add(RegKind.CKSUM_PREDICTED)
    return RegisterMap(tuple(entries))
