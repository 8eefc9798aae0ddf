"""ABFT checker periphery: digit splitting and checksum accumulators.

The checker owns three groups of state, which ``SimState`` inherits:

* IC accumulators (west edge): one per input lane per PE row, summing every
  incoming activation of the current checksum round.
* OC adder chain (south edge): one pipeline register per column, forming the
  running west-to-east sum of bottom-of-column results.
* Corner accumulators (south-east, 0-d arrays): ``actual`` collects OC
  outputs of data waves; ``predicted`` collects OC outputs of digit waves,
  each weighted by ``2^(input_width * k)`` for digit ``k`` before it arrives.

Signed digits, least-significant first, follow the bias-and-mask rule of
``intwrap.signed_digit``, ``input_width`` bits each. Within the streaming cap of
``2^(ic_width - input_width)`` rows every reachable accumulator value fits
``digits_per_round`` digits, so the array's signed multipliers are reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArrayConfig
from .intwrap import signed_digit, wrap
from .registers import Owner, RegKind


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
        vars(self).update((k.storage, np.zeros(k.shape(cfg), np.int64))
                          for k in RegKind if k.owner is Owner.CHECKER)

    def actual_accumulate(self, wave_sum: int) -> None:
        """Add data waves' OC-chain outputs to the actual checksum."""
        self.actual[...] = wrap(int(self.actual) + int(wave_sum), self.cfg.cksum_width)

    def predicted_accumulate(self, weighted_sum: int) -> None:
        """Add digit waves' OC-chain outputs, each already weighted by its digit."""
        self.predicted[...] = wrap(int(self.predicted) + int(weighted_sum), self.cfg.cksum_width)

    def compare_and_reset(self, round_index: int) -> ChecksumRoundResult:
        """Latch the round result and clear the corner accumulators."""
        actual, predicted = int(self.actual), int(self.predicted)
        self.actual[...] = self.predicted[...] = 0
        return ChecksumRoundResult(round_index, actual, predicted, actual != predicted)

    def digit_wave(self, ic, digit_k) -> np.ndarray:
        """Digit ``digit_k`` of the IC accumulator values ``ic`` (wrapping).

        ``ic`` holds one row of lane values, or a stack of them with one
        digit index per row in ``digit_k``; only that digit is computed.
        """
        return signed_digit(ic, self.cfg.input_width, self.cfg.digits_per_round,
                            np.asarray(digit_k)[..., None])
