import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_abft import DenseMatrix, read_dense, read_packed, write_dense, write_packed
from sparse_abft.matio import MatrixFormatError
from sparse_abft.sparsity import (
    PATTERN_2_4,
    SparsityPattern,
    StructuredSparseMatrix,
    block_rows,
    prune_magnitude,
)

from conftest import packed_block
from test_sparsity import valid_structured_matrices

PATTERNS = ["2:4", "1:4", "1:3", "3:4"]


def test_dense_roundtrip(tmp_path):
    m = DenseMatrix.from_array([[1, -2, 3], [-4, 5, -6]])
    path = tmp_path / "m.mat"
    write_dense(path, m)
    assert read_dense(path) == m
    assert path.read_text() == "2 3\n1 -2 3\n-4 5 -6\n"


def test_packed_roundtrip(tmp_path):
    w = DenseMatrix.from_array([[1, 0], [0, 2], [-1, 0], [0, 3]])
    sw = StructuredSparseMatrix(PATTERN_2_4, w)
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


# content -> message after "<path>: ", each as the per-line reader gave it
DENSE_FAULTS = {
    "": "empty file",
    "2\n1 2\n": "expected 'rows cols' header, got '2'",
    "2 2\n1 2\n": "expected 2 data lines, found 1",  # missing a row
    "1 2\n1 2 3\n": "row 0 has 3 values, expected 2",  # too many columns
    "1 2\n1 x\n": "row 0: invalid literal for int() with base 10: 'x'",  # not an integer
    "-1 2\n": "negative dimensions",
    "x 2\n": "non-integer header 'x 2'",
    "\n\n  \n": "empty file",
    "2 2\n1 2\n3\n": "row 1 has 1 values, expected 2",
    "2 2\n1 -\n3 4\n": "row 0: invalid literal for int() with base 10: '-'",
    "2 2\n1 2-\n3 4\n": "row 0: invalid literal for int() with base 10: '2-'",
    "2 2\n1 2\n3 +-4\n": "row 1: invalid literal for int() with base 10: '+-4'",
    "2 1\n1 x\n2 3\n": "row 0 has 2 values, expected 1",  # first bad row in file order
    "1 2\n99999999999999999999 x\n": "row 0: invalid literal for int() with base 10: 'x'",
    "1 2\n1 3-4\n": "row 0: invalid literal for int() with base 10: '3-4'",
    "99999999999999999999 1\n": "expected 99999999999999999999 data lines, found 0",
}

PACKED_FAULTS = {
    "4 1 2\n": "expected 'rows cols n m' header, got '4 1 2'",  # short header
    "4 1 2 4\n0101 1\n": "block (0,0): mask names 2 values, line has 1",
    "4 1 2 4\n0121 1 2\n": "block (0,0): bad mask '0121'",
    "4 1 2 4\n1110 1 2 3\n": "block (0,0): 3 values exceeds n=2",
    "4 1 2 4\n0001 0\n": "block (0,0): stored value must be non-zero",
    "4 1 5 4\n": "bad header: invalid pattern 5:4 (need 1 <= n <= m)",
    "2 1 2 4\n1000 5\n": "block (0,0): mask names row 3 of 2 rows",
    "4 1 2 x\n": "bad header: invalid literal for int() with base 10: 'x'",
    "4 1 2 4\n": "expected 1 block lines, found 0",
    "4 1 2 4\n01 1\n": "block (0,0): bad mask '01'",
    "4 1 2 4\n00011 5\n": "block (0,0): bad mask '00011'",
    "4 1 2 4\n0001+ 5\n": "block (0,0): bad mask '0001+'",
    "4 1 2 4\n0001 x\n": "block (0,0): invalid literal for int() with base 10: 'x'",
    "4 1 2 4\n0011 -0 x\n": "block (0,0): stored value must be non-zero",
    "4 1 2 4\n0011 5 x\n": "block (0,0): invalid literal for int() with base 10: 'x'",
    "4 1 2 4\n0011 5 5+5\n": "block (0,0): invalid literal for int() with base 10: '5+5'",
    "8 1 2 4\n0001 1\n0001 0\n": "block (1,0): stored value must be non-zero",
    "4 2 2 4\n0001 1\n0001 1 2\n": "block (0,1): mask names 1 values, line has 2",
    "4 1 1 4\n0011 1 2\n": "block (0,0): 2 values exceeds n=1",
    "4 1 2 4\n0101\n": "block (0,0): mask names 2 values, line has 0",
    "8 1 2 4\n0001 x\n1111 1 2 3 4\n": "block (0,0): invalid literal for int() with base 10: 'x'",
}


def assert_fault(reader, path, content, message):
    path.write_text(content)
    with pytest.raises(MatrixFormatError) as excinfo:
        reader(path)
    assert str(excinfo.value) == f"{path}: {message}"


@pytest.mark.parametrize("content", list(DENSE_FAULTS))
def test_dense_parse_errors(tmp_path, content):
    assert_fault(read_dense, tmp_path / "bad.mat", content, DENSE_FAULTS[content])
    assert_fault(loop_read_dense, tmp_path / "bad.mat", content, DENSE_FAULTS[content])


@pytest.mark.parametrize("content", list(PACKED_FAULTS))
def test_packed_parse_errors(tmp_path, content):
    assert_fault(read_packed, tmp_path / "bad.smat", content, PACKED_FAULTS[content])
    assert_fault(loop_read_packed, tmp_path / "bad.smat", content, PACKED_FAULTS[content])


@settings(max_examples=50)
@given(valid_structured_matrices())
def test_packed_roundtrip_property(tmp_path_factory, w):
    path = tmp_path_factory.mktemp("io") / "w.smat"
    sw = StructuredSparseMatrix(PATTERN_2_4, w)
    write_packed(path, sw)
    assert read_packed(path) == sw


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_dense_roundtrip_property(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(0, 9)), int(rng.integers(0, 9))
    m = DenseMatrix(rows, cols, rng.integers(-128, 128, size=(rows, cols)))
    path = tmp_path_factory.mktemp("io") / "m.mat"
    write_dense(path, m)
    assert read_dense(path) == m


@pytest.mark.parametrize("content", ["-4 1 2 4\n", "-3 1 1 4\n", "-4 0 2 4\n", "4 -1 2 4\n"])
def test_packed_negative_dimensions(tmp_path, content):
    """These escaped as ShapeError, numpy's ValueError or a count of -1 block lines."""
    assert_fault(read_packed, tmp_path / "bad.smat", content, "negative dimensions")


def test_zero_column_dense_roundtrip(tmp_path):
    path = tmp_path / "m.mat"
    write_dense(path, DenseMatrix.zeros(2, 0))
    assert path.read_text() == "2 0\n\n\n"
    assert read_dense(path) == DenseMatrix.zeros(2, 0)
    path.write_text("2 0\n")
    assert read_dense(path) == DenseMatrix.zeros(2, 0)
    assert_fault(read_dense, path, "2 0\n5\n", "expected 0 data lines, found 1")


# ----------------------------------------------------------------------
# value grammar: [+-]?[0-9]+ within int64

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def test_int64_extremes_accepted(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text(f"1 2\n{INT64_MIN} +{INT64_MAX}\n")
    assert read_dense(path).data.tolist() == [[INT64_MIN, INT64_MAX]]
    path.write_text(f"2 1 1 2\n01 {INT64_MIN}\n")
    assert read_packed(path).dense.data.tolist() == [[INT64_MIN], [0]]
    path.write_text(f"2 1 2 2\n11 {INT64_MAX} -0000000000000000000000001\n")
    assert read_packed(path).dense.data.tolist() == [[INT64_MAX], [-1]]


@pytest.mark.parametrize("value", [str(2**63), str(-(2**63) - 1), "99999999999999999999"])
def test_values_outside_int64_rejected(tmp_path, value):
    path = tmp_path / "m"
    assert_fault(read_dense, path, f"2 2\n1 2\n3 {value}\n",
                 f"row 1: value {value} outside the int64 range")
    assert_fault(read_packed, path, f"4 1 2 4\n0011 1 {value}\n",
                 f"block (0,0): value {value} outside the int64 range")


@pytest.mark.parametrize("value", ["1_0", "١٢", "５", "0x10", "1.0", "--1"],
                         ids=["underscore", "arabic-indic", "fullwidth", "hex", "point", "two-signs"])
def test_values_outside_grammar_rejected(tmp_path, value):
    """int() reads some of these (1_0, Arabic-Indic and fullwidth digits); the files do not."""
    path = tmp_path / "m"
    with pytest.raises(MatrixFormatError, match="row 0: invalid"):
        path.write_text(f"1 2\n5 {value}\n", encoding="utf-8")
        read_dense(path)
    with pytest.raises(MatrixFormatError, match=r"block \(0,0\): invalid"):
        path.write_text(f"4 1 2 4\n0011 5 {value}\n", encoding="utf-8")
        read_packed(path)


def test_non_utf8_bytes_named(tmp_path):
    """These raised UnicodeDecodeError, which named neither the file nor the row."""
    path = tmp_path / "m.mat"
    path.write_bytes(b"2 2\n1 2\n5 \xe9\n")
    with pytest.raises(MatrixFormatError, match=f"{re.escape(str(path))}: row 1: invalid"):
        read_dense(path)
    path.write_bytes(b"\xe9 2\n")
    with pytest.raises(MatrixFormatError, match=f"{re.escape(str(path))}: non-integer header"):
        read_dense(path)


def test_only_spaces_and_tabs_separate(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("1 2\n5\f6\n")
    with pytest.raises(MatrixFormatError, match="row 0 has 1 values, expected 2"):
        read_dense(path)


# ----------------------------------------------------------------------
# the former per-line reader and writer, kept as the reference

def loop_read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def loop_read_dense(path):
    lines = loop_read_text(path)
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(f"{path}: expected 'rows cols' header, got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-integer header {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise MatrixFormatError(f"{path}: negative dimensions")
    if len(lines) - 1 != rows:
        raise MatrixFormatError(f"{path}: expected {rows} data lines, found {len(lines) - 1}")
    data = np.zeros((rows, cols), dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise MatrixFormatError(f"{path}: row {i} has {len(parts)} values, expected {cols}")
        try:
            data[i] = [int(p) for p in parts]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: row {i}: {exc}") from exc
    return DenseMatrix(rows, cols, data)


def loop_write_dense(path, matrix):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.rows} {matrix.cols}\n")
        for i in range(matrix.rows):
            fh.write(" ".join(str(int(v)) for v in matrix.data[i]) + "\n")


def loop_read_packed(path):
    lines = loop_read_text(path)
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 4:
        raise MatrixFormatError(f"{path}: expected 'rows cols n m' header, got {lines[0]!r}")
    try:
        rows, cols, n, m = (int(h) for h in header)
        pattern = SparsityPattern(n, m)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: bad header: {exc}") from exc
    b = block_rows(rows, m)
    expected = b * cols
    if len(lines) - 1 != expected:
        raise MatrixFormatError(f"{path}: expected {expected} block lines, found {len(lines) - 1}")
    dense = np.zeros((b * m, cols), dtype=np.int64)
    for lineno, line in enumerate(lines[1:]):
        br, c = divmod(lineno, cols)
        parts = line.split()
        mask_str = parts[0]
        if len(mask_str) != m or any(ch not in "01" for ch in mask_str):
            raise MatrixFormatError(f"{path}: block ({br},{c}): bad mask {mask_str!r}")
        mask = int(mask_str, 2)
        idxs = [i for i in range(m) if mask >> i & 1]
        vals = parts[1:]
        if len(vals) != len(idxs):
            raise MatrixFormatError(
                f"{path}: block ({br},{c}): mask names {len(idxs)} values, line has {len(vals)}"
            )
        if len(idxs) > n:
            raise MatrixFormatError(f"{path}: block ({br},{c}): {len(idxs)} values exceeds n={n}")
        if idxs and br * m + idxs[-1] >= rows:
            raise MatrixFormatError(
                f"{path}: block ({br},{c}): mask names row {br * m + idxs[-1]} of {rows} rows"
            )
        for idx, v in zip(idxs, vals):
            try:
                parsed = int(v)
            except ValueError as exc:
                raise MatrixFormatError(f"{path}: block ({br},{c}): {exc}") from exc
            if parsed == 0:
                raise MatrixFormatError(f"{path}: block ({br},{c}): stored value must be non-zero")
            dense[br * m + idx, c] = parsed
    return StructuredSparseMatrix(pattern, DenseMatrix(rows, cols, dense[:rows]))


def loop_write_packed(path, sw):
    m = sw.pattern.m
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{sw.rows} {sw.cols} {sw.pattern.n} {sw.pattern.m}\n")
        for br in range(sw.block_rows):
            for c in range(sw.cols):
                mask, vals, _ = packed_block(sw, br, c)
                line = format(mask, f"0{m}b")
                if vals:
                    line += " " + " ".join(str(v) for v in vals)
                fh.write(line + "\n")


def random_values(rng, shape, zeros=0.0):
    """Values of a random width of 1 to 63 bits; a share of them zeroed."""
    width = int(rng.integers(1, 64))
    lo, hi = -(1 << width - 1), (1 << width - 1) - 1
    data = rng.integers(lo, hi, size=shape, endpoint=True)
    return np.where(rng.random(shape) < zeros, 0, data)


def respace(rng, text, skip_first_token=False):
    """The same tokens with spaces, tabs, blank lines, CRLF, '+' and zero padding."""
    out = []
    for lineno, line in enumerate(text.splitlines()):
        tokens = line.split(" ")
        for k, tok in enumerate(tokens):
            if lineno == 0 or (skip_first_token and k == 0) or rng.random() < 0.5:
                continue
            sign = "-" if tok.startswith("-") else "+" * int(rng.random() < 0.5)
            tokens[k] = sign + "0" * int(rng.integers(0, 4)) + tok.lstrip("-")
        seps = rng.choice([" ", "  ", "\t", " \t ", "\t\t"], size=len(tokens) + 1)
        body = "".join(s + t for s, t in zip(seps[1:], tokens)).lstrip(" \t")
        out.append(seps[0] * int(rng.random() < 0.3) + body + seps[-1] * int(rng.random() < 0.3))
        while rng.random() < 0.2:
            out.append(str(rng.choice(["", " ", "\t", " \t "])))
    return str(rng.choice(["\n", "\r\n"])).join(out) + "\n" * int(rng.random() < 0.8)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dense_io_matches_loop_reference(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(0, 12)), int(rng.integers(1, 12)))
    m = DenseMatrix.from_array(random_values(rng, shape))
    d = tmp_path_factory.mktemp("io")
    write_dense(d / "new.mat", m)
    loop_write_dense(d / "loop.mat", m)
    assert (d / "new.mat").read_bytes() == (d / "loop.mat").read_bytes()
    assert read_dense(d / "new.mat") == m
    spaced = d / "spaced.mat"
    spaced.write_bytes(respace(rng, (d / "loop.mat").read_text()).encode())
    assert read_dense(spaced) == loop_read_dense(spaced) == m


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PATTERNS))
def test_packed_io_matches_loop_reference(tmp_path_factory, seed, pattern_text):
    rng = np.random.default_rng(seed)
    pattern = SparsityPattern.parse(pattern_text)
    shape = (int(rng.integers(0, 14)), int(rng.integers(0, 6)))
    sw = prune_magnitude(DenseMatrix.from_array(random_values(rng, shape, zeros=0.4)), pattern)
    d = tmp_path_factory.mktemp("io")
    write_packed(d / "new.smat", sw)
    loop_write_packed(d / "loop.smat", sw)
    assert (d / "new.smat").read_bytes() == (d / "loop.smat").read_bytes()
    assert read_packed(d / "new.smat") == sw
    spaced = d / "spaced.smat"
    spaced.write_bytes(respace(rng, (d / "loop.smat").read_text(), skip_first_token=True).encode())
    assert read_packed(spaced) == loop_read_packed(spaced) == sw


def test_packed_io_with_63_row_blocks(tmp_path):
    w = DenseMatrix.from_array(np.eye(63, 2, k=-61, dtype=np.int64) * 7)  # rows 61 and 62
    sw = StructuredSparseMatrix(SparsityPattern(2, 63), w)
    write_packed(tmp_path / "new.smat", sw)
    loop_write_packed(tmp_path / "loop.smat", sw)
    text = (tmp_path / "new.smat").read_text()
    assert text == (tmp_path / "loop.smat").read_text()
    assert text.splitlines()[1] == "01" + "0" * 61 + " 7"
    assert read_packed(tmp_path / "new.smat") == sw
