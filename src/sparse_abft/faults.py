"""Bit-flip fault specification and sampling."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .registers import RegisterId, RegisterMap


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
