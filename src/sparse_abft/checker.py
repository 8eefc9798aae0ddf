"""ABFT checker periphery: digit splitting and checksum accumulators.

The checker owns three groups of state, all embedded in the simulator:

* IC accumulators (west edge): one per input lane per PE row, summing every
  incoming activation of the current checksum round.
* OC adder chain (south edge): one pipeline register per column, forming the
  running west-to-east sum of bottom-of-column results.
* Corner accumulators (south-east): ``actual`` collects OC outputs of data
  waves; ``predicted`` collects OC outputs of digit waves, shifted by
  ``2^(input_width * k)`` for digit ``k``.

Digit decomposition is signed and least-significant first: the low digit is
the two's-complement reading of the low byte, and each higher digit is what
remains after subtracting the lower ones. Within the streaming cap of
``2^(ic_width - input_width)`` rows every reachable accumulator value
decomposes into digits that fit the input width, so the array's signed
multipliers can be reused unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArrayConfig
from .intwrap import wrap


class DigitRangeError(ValueError):
    """Accumulator value not representable in the configured digits."""


def split_digits(value, digit_count: int, digit_width: int, strict: bool = True) -> list:
    """Decompose a value into signed digits, least-significant first.

    ``value`` is an int, giving a list of ints, or an int64 array, giving a
    list of arrays of its shape. With ``strict=True`` a value whose top digit
    does not fit the digit width raises DigitRangeError; this cannot happen
    for sums of at most ``2^(digit_width * (digit_count - 1))``
    digit_width-wide values. With ``strict=False`` the top digit wraps,
    which is what the register-width hardware does when a fault pushes an
    accumulator out of range.
    """
    digits = []
    remaining = value if isinstance(value, np.ndarray) else int(value)
    for _ in range(digit_count - 1):
        digit = wrap(remaining, digit_width)
        digits.append(digit)
        remaining = (remaining - digit) >> digit_width
    top = wrap(remaining, digit_width)
    if strict and np.any(top != remaining):
        raise DigitRangeError(
            f"value {value} needs top digit {remaining}, outside signed {digit_width}-bit range"
        )
    digits.append(top)
    return digits


@dataclass
class ChecksumRoundResult:
    """Comparison outcome of one checksum round."""

    round_index: int
    actual: int
    predicted: int
    flag: bool

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "actual": self.actual,
            "predicted": self.predicted,
            "flag": self.flag,
        }


class CheckerState:
    """Mutable checker registers; one instance lives inside each SimState."""

    def __init__(self, cfg: ArrayConfig):
        self.cfg = cfg
        self.ic = np.zeros((cfg.rows, cfg.pattern.m), dtype=np.int64)
        self.oc = np.zeros(cfg.cols, dtype=np.int64)
        self.actual = 0
        self.predicted = 0

    def actual_accumulate(self, wave_sum: int) -> None:
        """Add one data wave's OC-chain output to the actual checksum."""
        self.actual = int(wrap(self.actual + int(wave_sum), self.cfg.cksum_width))

    def predicted_accumulate(self, wave_sum: int, digit_k: int) -> None:
        """Shift-accumulate one digit wave's OC-chain output."""
        shifted = int(wave_sum) << (self.cfg.input_width * digit_k)
        self.predicted = int(wrap(self.predicted + shifted, self.cfg.cksum_width))

    def compare_and_reset(self, round_index: int) -> ChecksumRoundResult:
        """Latch the round result and clear the corner accumulators."""
        result = ChecksumRoundResult(
            round_index=round_index,
            actual=self.actual,
            predicted=self.predicted,
            flag=self.actual != self.predicted,
        )
        self.actual = 0
        self.predicted = 0
        return result

    def digit_wave(self, pe_row, digit_k) -> np.ndarray:
        """Digit ``digit_k`` of row ``pe_row``'s IC accumulators (wrapping).

        Both arguments may be equal-length index arrays, one digit per row.
        """
        cfg = self.cfg
        digits = split_digits(self.ic, cfg.digits_per_round, cfg.input_width, strict=False)
        return np.stack(digits)[digit_k, pe_row]
