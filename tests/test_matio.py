import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_abft import DenseMatrix, read_dense, read_packed, write_dense, write_packed
from sparse_abft.matio import MatrixFormatError
from sparse_abft.sparsity import PATTERN_2_4, pack, prune_magnitude

from test_sparsity import valid_structured_matrices


def test_dense_roundtrip(tmp_path):
    m = DenseMatrix.from_array([[1, -2, 3], [-4, 5, -6]])
    path = tmp_path / "m.mat"
    write_dense(path, m)
    assert read_dense(path) == m
    assert path.read_text() == "2 3\n1 -2 3\n-4 5 -6\n"


def test_packed_roundtrip(tmp_path):
    w = DenseMatrix.from_array([[1, 0], [0, 2], [-1, 0], [0, 3]])
    sw = pack(w, PATTERN_2_4)
    path = tmp_path / "w.smat"
    write_packed(path, sw)
    assert read_packed(path) == sw
    lines = path.read_text().splitlines()
    assert lines[0] == "4 2 2 4"
    assert lines[1] == "0101 1 -1"
    assert lines[2] == "1010 2 3"


def test_packed_mask_line_matches_prune_example(tmp_path):
    sw = prune_magnitude(DenseMatrix.from_array([[5], [-2], [0], [3]]), PATTERN_2_4)
    path = tmp_path / "w.smat"
    write_packed(path, sw)
    assert path.read_text().splitlines()[1] == "1001 5 3"


@pytest.mark.parametrize(
    "content",
    [
        "",
        "2\n1 2\n",
        "2 2\n1 2\n",             # missing a row
        "1 2\n1 2 3\n",           # too many columns
        "1 2\n1 x\n",             # not an integer
        "-1 2\n",
    ],
)
def test_dense_parse_errors(tmp_path, content):
    path = tmp_path / "bad.mat"
    path.write_text(content)
    with pytest.raises(MatrixFormatError):
        read_dense(path)


@pytest.mark.parametrize(
    "content",
    [
        "4 1 2\n",                 # short header
        "4 1 2 4\n0101 1\n",       # mask names two values, one given
        "4 1 2 4\n0121 1 2\n",     # bad mask characters
        "4 1 2 4\n1110 1 2 3\n",   # more stored values than n
        "4 1 2 4\n0001 0\n",       # stored zero value
        "4 1 5 4\n",               # n > m
        "2 1 2 4\n1000 5\n",       # mask names row 3 of a 2-row matrix
    ],
)
def test_packed_parse_errors(tmp_path, content):
    path = tmp_path / "bad.smat"
    path.write_text(content)
    with pytest.raises(MatrixFormatError):
        read_packed(path)


@settings(max_examples=50)
@given(valid_structured_matrices())
def test_packed_roundtrip_property(tmp_path_factory, w):
    path = tmp_path_factory.mktemp("io") / "w.smat"
    sw = pack(w, PATTERN_2_4)
    write_packed(path, sw)
    assert read_packed(path) == sw


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_dense_roundtrip_property(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    m = DenseMatrix(rows, cols, rng.integers(-128, 128, size=(rows, cols)))
    path = tmp_path_factory.mktemp("io") / "m.mat"
    write_dense(path, m)
    assert read_dense(path) == m
