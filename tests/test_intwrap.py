import numpy as np
from hypothesis import given, strategies as st

from sparse_abft.intwrap import int_max, int_min, wrap


def test_wrap_identity_in_range():
    for v in (-128, -1, 0, 1, 127):
        assert wrap(v, 8) == v


def test_wrap_overflow():
    assert wrap(128, 8) == -128
    assert wrap(-129, 8) == 127
    assert wrap((1 << 23) - 1 + 1, 24) == -(1 << 23)


def test_wrap_ndarray():
    arr = np.array([127, 128, -128, -129, 255, 256])
    assert wrap(arr, 8).tolist() == [127, -128, -128, 127, -1, 0]


@given(st.integers(-(1 << 40), 1 << 40), st.integers(2, 48))
def test_wrap_is_congruent_and_in_range(v, width):
    w = wrap(v, width)
    assert int_min(width) <= w <= int_max(width)
    assert (w - v) % (1 << width) == 0
