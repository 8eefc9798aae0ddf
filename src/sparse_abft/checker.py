"""ABFT checker periphery: digit splitting and checksum accumulators.

The checker owns three groups of state, which ``SimState`` inherits:

* IC accumulators (west edge): one per input lane per PE row, summing every
  incoming activation of the current checksum round.
* OC adder chain (south edge): one pipeline register per column, forming the
  running west-to-east sum of bottom-of-column results.
* Corner accumulators (south-east): ``actual`` collects OC outputs of data
  waves; ``predicted`` collects OC outputs of digit waves, each weighted by
  ``2^(input_width * k)`` for digit ``k`` before it arrives here.

Signed digits, least-significant first, follow one bias-and-mask rule (the
form of ``intwrap.wrap``): with ``B = sum(2^(j*w + w - 1) for j < D)``, digit
``k`` of ``v`` is ``((v + B) >> k*w & (2^w - 1)) - 2^(w-1)``, and ``v`` fits
``D`` signed ``w``-bit digits iff ``0 <= v + B < 2^(D*w)``. Within the
streaming cap of ``2^(ic_width - input_width)`` rows every reachable
accumulator value fits, so the array's signed multipliers are reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArrayConfig
from .intwrap import wrap


@dataclass
class ChecksumRoundResult:
    """Comparison outcome of one checksum round."""

    round_index: int
    actual: int
    predicted: int
    flag: bool

    def to_json_dict(self) -> dict:
        return {"round": self.round_index, "actual": self.actual,
                "predicted": self.predicted, "flag": self.flag}


class CheckerState:
    """Checker registers and their operations; ``SimState`` inherits them."""

    def __init__(self, cfg: ArrayConfig):
        self.cfg = cfg
        self.ic = np.zeros((cfg.rows, cfg.pattern.m), dtype=np.int64)
        self.oc = np.zeros(cfg.cols, dtype=np.int64)
        self.actual = self.predicted = 0

    def actual_accumulate(self, wave_sum: int) -> None:
        """Add data waves' OC-chain outputs to the actual checksum."""
        self.actual = int(wrap(self.actual + int(wave_sum), self.cfg.cksum_width))

    def predicted_accumulate(self, weighted_sum: int) -> None:
        """Add digit waves' OC-chain outputs, each already weighted by its digit."""
        self.predicted = int(wrap(self.predicted + int(weighted_sum), self.cfg.cksum_width))

    def compare_and_reset(self, round_index: int) -> ChecksumRoundResult:
        """Latch the round result and clear the corner accumulators."""
        result = ChecksumRoundResult(round_index, self.actual, self.predicted,
                                     self.actual != self.predicted)
        self.actual = self.predicted = 0
        return result

    def digit_wave(self, ic, digit_k) -> np.ndarray:
        """Digit ``digit_k`` of the IC accumulator values ``ic`` (wrapping).

        ``ic`` holds one row of lane values, or a stack of them with one
        digit index per row in ``digit_k``; only that digit is computed.
        """
        w, count = self.cfg.input_width, self.cfg.digits_per_round
        # the bias B (module docstring) makes every signed digit an unsigned field
        biased = np.asarray(ic) + sum(1 << (j * w + w - 1) for j in range(count))
        return (biased >> (np.asarray(digit_k)[..., None] * w) & ((1 << w) - 1)) - (1 << (w - 1))
