import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_abft import ArrayConfig
from sparse_abft.checker import CheckerState

from conftest import loop_digits

INT64 = st.integers(-(1 << 63), (1 << 63) - 1)


# ----------------------------------------------------------------------
# digit_wave, the engine's digit rule: worked values, reconstruction
# oracle, boundaries

def reconstruct(digits, width):
    return sum(d << (width * k) for k, d in enumerate(digits))


def wave_digits(values, digit_count, digit_width) -> list:
    """Every digit of each of ``values`` by ``digit_wave``, one list per digit."""
    ck = CheckerState(ArrayConfig(rows=1, cols=1, input_width=digit_width,
                                  ic_width=digit_count * digit_width))
    row = np.array(values, dtype=np.int64)
    return [ck.digit_wave(row, k).tolist() for k in range(digit_count)]


def value_digits(value, digit_count, digit_width) -> list:
    return [column[0] for column in wave_digits([value], digit_count, digit_width)]


@pytest.mark.parametrize(
    "value,expected",
    [
        (300, [44, 1]),
        (-1, [-1, 0]),
        (130, [-126, 1]),
        (-32768, [0, -128]),
        (0, [0, 0]),
        (32512, [0, 127]),
        (32639, [127, 127]),   # the largest value whose top digit fits
    ],
)
def test_digit_wave_examples(value, expected):
    digits = value_digits(value, 2, 8)
    assert digits == expected
    assert reconstruct(digits, 8) == value


def test_digit_wave_wraps_mod_2_16():
    for value in (32640, 32767, -32896, 40000):
        digits = value_digits(value, 2, 8)
        assert all(-128 <= d <= 127 for d in digits)
        assert (reconstruct(digits, 8) - value) % (1 << 16) == 0


@given(st.integers(-32768, 32512))
def test_digit_wave_roundtrip_reachable_range(value):
    digits = value_digits(value, 2, 8)
    assert len(digits) == 2
    assert all(-128 <= d <= 127 for d in digits)
    assert reconstruct(digits, 8) == value


@settings(max_examples=300)
@given(st.integers(2, 4), st.data())
def test_digit_wave_general_digit_counts(digit_count, data):
    # sums of <= 2^(8*(d-1)) signed bytes land in [lo, hi]; every such value
    # must decompose with all digits in signed byte range
    lo = -(1 << (8 * digit_count - 1))
    hi = 127 << (8 * (digit_count - 1))
    value = data.draw(st.integers(lo, hi))
    digits = value_digits(value, digit_count, 8)
    assert all(-128 <= d <= 127 for d in digits)
    assert reconstruct(digits, 8) == value


def test_digit_wave_array_matches_scalar():
    values = [300, -1, 130, -32768, 0, 32512, 32767]
    columns = wave_digits(values, 2, 8)
    for i, v in enumerate(values):
        assert [column[i] for column in columns] == value_digits(v, 2, 8)


# ----------------------------------------------------------------------
# the bias-and-mask digit rule against the former loop (conftest)

@st.composite
def digit_cases(draw):
    """``(count, width, values)``: widths 1..31 and counts 1..7 with
    count * width <= 63; values inside the signed range of the digits, at
    and just past its ends, or anywhere in int64."""
    width = draw(st.integers(1, 31))
    count = draw(st.integers(1, min(7, 63 // width)))
    # the signed range of count digits of width bits each
    hi = sum(((1 << width - 1) - 1) << (width * j) for j in range(count))
    lo = -sum(1 << (width * j + width - 1) for j in range(count))
    value = st.one_of(st.integers(lo, hi), st.sampled_from([lo - 1, lo, hi, hi + 1]), INT64)
    return count, width, draw(st.lists(value, min_size=1, max_size=6))


@settings(max_examples=400)
@given(digit_cases())
def test_digit_wave_matches_loop_on_ints(case):
    count, width, values = case
    for value in values:
        assert value_digits(value, count, width) == loop_digits(value, count, width)


@settings(max_examples=400)
@given(digit_cases())
def test_digit_wave_matches_loop_on_int64_arrays(case):
    count, width, values = case
    array = np.array(values, dtype=np.int64)
    got = wave_digits(array, count, width)
    assert got == [d.tolist() for d in loop_digits(array, count, width)]
    # and element by element on exact Python ints
    per_value = [loop_digits(v, count, width) for v in values]
    assert got == [list(column) for column in zip(*per_value)]
    ck = CheckerState(ArrayConfig(rows=1, cols=1, input_width=width, ic_width=count * width))
    assert all(ck.digit_wave(array, k).dtype == np.int64 for k in range(count))


@settings(max_examples=300)
@given(st.integers(1, 31), st.data())
def test_digit_wave_matches_loop_per_row(width, data):
    count = data.draw(st.integers(1, min(7, 63 // width)))
    cfg = ArrayConfig(rows=data.draw(st.integers(1, 4)), cols=1, input_width=width,
                      ic_width=count * width)
    ck = CheckerState(cfg)
    ic = np.array(data.draw(st.lists(st.lists(INT64, min_size=4, max_size=4),
                                     min_size=cfg.rows, max_size=cfg.rows)), dtype=np.int64)
    digit_k = np.array(data.draw(st.lists(st.integers(0, count - 1),
                                          min_size=cfg.rows, max_size=cfg.rows)))
    want = [loop_digits(row, count, width)[k].tolist()
            for row, k in zip(ic, digit_k.tolist())]
    assert ck.digit_wave(ic, digit_k).tolist() == want
    assert ck.digit_wave(ic[0], int(digit_k[0])).tolist() == want[0]


# ----------------------------------------------------------------------
# corner accumulators

def test_actual_accumulate_running_example():
    ck = CheckerState(ArrayConfig(rows=1, cols=2))
    ck.actual_accumulate(-2 + 16)
    ck.actual_accumulate(-2 + 36)
    assert ck.actual == 48


def test_predicted_accumulate_shifts_by_digit():
    ck = CheckerState(ArrayConfig(rows=1, cols=2))
    ck.predicted_accumulate(5)
    ck.predicted_accumulate(3 << 8)
    assert ck.predicted == 5 + 256 * 3


def test_accumulate_zero_is_identity():
    ck = CheckerState(ArrayConfig())
    ck.actual_accumulate(0)
    ck.predicted_accumulate(0 << 8)
    assert ck.actual == 0 and ck.predicted == 0


def test_accumulators_wrap_at_cksum_width():
    cfg = ArrayConfig(rows=1, cols=1)
    ck = CheckerState(cfg)
    ck.actual[...] = (1 << 47) - 1
    ck.actual_accumulate(1)
    assert ck.actual == -(1 << 47)


def test_compare_and_reset():
    ck = CheckerState(ArrayConfig())
    ck.actual_accumulate(10)
    ck.predicted_accumulate(10)
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
