"""Bit-flip fault specification and sampling."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .config import ArrayConfig
from .registers import RegisterId, RegisterMap, RegKind
from .sparsity import StructuredSparseMatrix


@dataclass(frozen=True, order=True)
class FaultSpec:
    """One transient bit flip: register ``register``, bit ``bit``, applied
    right after cycle ``cycle``'s clock edge."""

    cycle: int
    register: RegisterId
    bit: int

    def to_json_dict(self) -> dict:
        return {"cycle": self.cycle, "register": self.register.name, "bit": self.bit}


def derive_seed(master_seed: int, *context) -> int:
    """Stable sub-seed derivation, independent of Python hash randomization."""
    text = ":".join([str(master_seed), *map(str, context)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def sample_faults(seed: int, register_map: RegisterMap, count: int, active_cycles: int) -> list:
    """Draw ``count`` faults, each uniform over the total bit population.

    Weighting by bits makes P(array hit) = array_bits / total_bits, i.e.
    proportional to storage volume. Cycles are uniform over the active
    window [0, active_cycles).
    """
    if register_map.total_bits == 0:
        raise ValueError("register map is empty")
    if active_cycles < 1:
        raise ValueError("empty active-cycle window")
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        reg, bit = register_map.locate_bit(rng.randrange(register_map.total_bits))
        cycle = rng.randrange(active_cycles)
        specs.append(FaultSpec(cycle=cycle, register=reg, bit=bit))
    return specs


# ----------------------------------------------------------------------
# targeted fault populations for the silent-fault mechanism checks

def silent_pipe_targets(cfg: ArrayConfig, w_tile: StructuredSparseMatrix) -> list:
    """Input-pipe registers whose lane is never selected at or east of them.

    A flip there rides the bundle east but no multiplexer ever picks the
    lane, so it cannot reach any partial sum or checksum.
    """
    # selected[r, c, lane]: some stored weight of PE (r, c) reads the lane;
    # stored values are never zero and unused slots always are
    selected = ((w_tile.indexes[..., None] == np.arange(cfg.pattern.m))
                & (w_tile.values != 0)[..., None]).any(axis=2)
    col_index = np.arange(cfg.cols)
    last_selected = np.where(selected, col_index[:, None], -1).max(axis=1)   # (rows, m)
    rows, lanes, cols = np.nonzero(col_index > last_selected[:, :, None])
    return [RegisterId(RegKind.INPUT_PIPE, r, c, lane)
            for r, lane, c in zip(rows.tolist(), lanes.tolist(), cols.tolist())]


def idle_slot_registers(cfg: ArrayConfig) -> list:
    """Weight/index slots beyond the active pattern (idle in 1:4 mode)."""
    regs = []
    for r in range(cfg.rows):
        for c in range(cfg.cols):
            for j in range(cfg.pattern.n, cfg.slots):
                regs.append(RegisterId(RegKind.WEIGHT, r, c, j))
                if cfg.index_width > 0:
                    regs.append(RegisterId(RegKind.INDEX, r, c, j))
    return regs
