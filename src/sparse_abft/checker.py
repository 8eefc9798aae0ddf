"""ABFT checker periphery: digit splitting and checksum accumulators.

The checker owns three groups of state, all embedded in the simulator:

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


class DigitRangeError(ValueError):
    """Accumulator value not representable in the configured digits."""


def _digit_bias(digit_count: int, digit_width: int) -> int:
    """``B``: added to a value, it makes every signed digit an unsigned field."""
    return sum(1 << (j * digit_width + digit_width - 1) for j in range(digit_count))


def _digit(biased, k, digit_width: int):
    """Signed digit ``k`` (an int or an array of them) of ``biased = v + B``."""
    return (biased >> (k * digit_width) & ((1 << digit_width) - 1)) - (1 << (digit_width - 1))


def split_digits(value, digit_count: int, digit_width: int, strict: bool = True) -> list:
    """Decompose a value into signed digits, least-significant first.

    ``value`` is an int, giving ints, or an int64 array (``digit_count *
    digit_width`` <= 63), giving arrays of its shape. With ``strict=True`` a
    value that does not fit raises DigitRangeError, which sums of at most
    ``2^(digit_width * (digit_count - 1))`` digit_width-wide values never do.
    With ``strict=False`` the top digit wraps, as the register-width hardware
    does when a fault pushes an accumulator out of range.
    """
    value = value if isinstance(value, np.ndarray) else int(value)
    biased = value + _digit_bias(digit_count, digit_width)
    if strict and np.any(biased >> (digit_count * digit_width)):
        raise DigitRangeError(
            f"value {value} does not fit {digit_count} signed {digit_width}-bit digits")
    return [_digit(biased, k, digit_width) for k in range(digit_count)]


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
    """Mutable checker registers; one instance lives inside each SimState."""

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
        cfg = self.cfg
        biased = np.asarray(ic) + _digit_bias(cfg.digits_per_round, cfg.input_width)
        return _digit(biased, np.asarray(digit_k)[..., None], cfg.input_width)
