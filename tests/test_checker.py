import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_abft import ArrayConfig, DigitRangeError, split_digits
from sparse_abft.checker import CheckerState


# ----------------------------------------------------------------------
# split_digits: worked values, reconstruction oracle, boundaries

def reconstruct(digits, width):
    return sum(d << (width * k) for k, d in enumerate(digits))


@pytest.mark.parametrize(
    "value,expected",
    [
        (300, [44, 1]),
        (-1, [-1, 0]),
        (130, [-126, 1]),
        (-32768, [0, -128]),
        (0, [0, 0]),
        (32512, [0, 127]),
    ],
)
def test_split_digits_examples(value, expected):
    digits = split_digits(value, 2, 8)
    assert digits == expected
    assert reconstruct(digits, 8) == value


def test_split_digits_range_error():
    # 32640 is the smallest value whose top digit would need +128
    assert split_digits(32639, 2, 8) == [127, 127]
    with pytest.raises(DigitRangeError):
        split_digits(32640, 2, 8)
    with pytest.raises(DigitRangeError):
        split_digits(-32897, 2, 8)


def test_split_digits_wrapping_mode_matches_mod_2_16():
    for value in (32640, 32767, -32896, 40000):
        digits = split_digits(value, 2, 8, strict=False)
        assert all(-128 <= d <= 127 for d in digits)
        assert (reconstruct(digits, 8) - value) % (1 << 16) == 0


@given(st.integers(-32768, 32512))
def test_split_digits_roundtrip_reachable_range(value):
    digits = split_digits(value, 2, 8)
    assert len(digits) == 2
    assert all(-128 <= d <= 127 for d in digits)
    assert reconstruct(digits, 8) == value


@settings(max_examples=300)
@given(st.integers(2, 4), st.data())
def test_split_digits_general_digit_counts(digit_count, data):
    # sums of <= 2^(8*(d-1)) signed bytes land in [lo, hi]; every such value
    # must decompose with all digits in signed byte range
    lo = -(1 << (8 * digit_count - 1))
    hi = 127 << (8 * (digit_count - 1))
    value = data.draw(st.integers(lo, hi))
    digits = split_digits(value, digit_count, 8)
    assert all(-128 <= d <= 127 for d in digits)
    assert reconstruct(digits, 8) == value


def test_split_digits_array_matches_scalar():
    values = np.array([300, -1, 130, -32768, 0, 32512, 32767])
    for k in range(2):
        column = split_digits(values, 2, 8, strict=False)[k]
        for i, v in enumerate(values):
            assert column[i] == split_digits(int(v), 2, 8, strict=False)[k]


# ----------------------------------------------------------------------
# corner accumulators

def test_actual_accumulate_running_example():
    ck = CheckerState(ArrayConfig(rows=1, cols=2))
    ck.actual_accumulate(-2 + 16)
    ck.actual_accumulate(-2 + 36)
    assert ck.actual == 48


def test_predicted_accumulate_shifts_by_digit():
    ck = CheckerState(ArrayConfig(rows=1, cols=2))
    ck.predicted_accumulate(5, 0)
    ck.predicted_accumulate(3, 1)
    assert ck.predicted == 5 + 256 * 3


def test_accumulate_zero_is_identity():
    ck = CheckerState(ArrayConfig())
    ck.actual_accumulate(0)
    ck.predicted_accumulate(0, 1)
    assert ck.actual == 0 and ck.predicted == 0


def test_accumulators_wrap_at_cksum_width():
    cfg = ArrayConfig(rows=1, cols=1)
    ck = CheckerState(cfg)
    ck.actual = (1 << 47) - 1
    ck.actual_accumulate(1)
    assert ck.actual == -(1 << 47)


def test_compare_and_reset():
    ck = CheckerState(ArrayConfig())
    ck.actual_accumulate(10)
    ck.predicted_accumulate(10, 0)
    res = ck.compare_and_reset(3)
    assert (res.round_index, res.actual, res.predicted, res.flag) == (3, 10, 10, False)
    assert ck.actual == 0 and ck.predicted == 0
    ck.actual_accumulate(1)
    res2 = ck.compare_and_reset(4)
    assert res2.flag and res2.actual == 1 and res2.predicted == 0


def test_digit_wave_reads_ic_lanes():
    cfg = ArrayConfig(rows=2, cols=2)
    ck = CheckerState(cfg)
    ck.ic[1] = [300, -1, 130, -32768]
    assert ck.digit_wave(ck.ic[1], 0).tolist() == [44, -1, -126, 0]
    assert ck.digit_wave(ck.ic[1], 1).tolist() == [1, 0, 1, -128]
