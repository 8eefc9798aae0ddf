"""Text file formats for dense and packed sparse matrices.

Dense format::

    rows cols
    a00 a01 ...          (one line per row)

Packed format::

    rows cols n m
    mask v0 [v1 ...]     (one line per (block-row, column), block-row-major)

A value is an ASCII signed decimal ``[+-]?[0-9]+`` within int64, -2**63 and
2**63 - 1 included; header fields take the same form. Tokens are separated
by spaces or tabs, blank lines are ignored and CRLF line ends are accepted.
Anything else (``1_0``, non-ASCII digits, other whitespace, a value outside
int64) is a MatrixFormatError naming the header, row or block. A row with
zero columns is a blank line, so a dense ``rows 0`` file is its header plus
blank lines, and reads back as a rows x 0 matrix.

The mask is written in binary, most-significant bit first, so the rightmost
character is bit 0 = the first row of the block. Values appear in ascending
row-offset order. Patterns have m <= 63, so a mask fits int64.

The readers check a whole file with numpy operations over its bytes and
convert every value in one call; only when a check fails are the lines
walked one by one, to name the first bad row or block. The dense writer
formats a block of whole rows, about 2,048 values, per %-format call; the
packed writer formats each block row with one %-format string.
"""

from __future__ import annotations

import re

import numpy as np

from .sparsity import DenseMatrix, SparsityPattern, StructuredSparseMatrix

_INT = re.compile(r"[+-]?[0-9]+")
_TOKEN = re.compile(r"[^ \t]+")
_LONG_TOKEN = re.compile(rb"[^ \t\n]{19,}")  # shorter tokens always fit int64
_INT64 = range(-(1 << 63), 1 << 63)

# byte classes for the bulk checks; separators sort first
_NEWLINE, _SPACE, _DIGIT, _SIGN, _OTHER = range(5)
_CLASSES = bytes(
    _NEWLINE if b == 10 else _SPACE if b in b" \t" else _DIGIT if b in b"0123456789"
    else _SIGN if b in b"+-" else _OTHER
    for b in range(256)
)


class MatrixFormatError(ValueError):
    """Malformed matrix file."""


def _not_a_value(token: str):
    """Why ``token`` does not match ``[+-]?[0-9]+``, or None."""
    if _INT.fullmatch(token):
        return None
    try:
        int(token)
    except ValueError as exc:
        return str(exc)  # int()'s own message where int() rejects the token too
    return f"invalid value {token!r} (expected [+-]?[0-9]+)"


def _outside_int64(token: str):
    """Why a ``[+-]?[0-9]+`` token is no int64 value, or None."""
    return None if int(token) in _INT64 else f"value {token} outside the int64 range"


def _first(faults):
    return next(filter(None, faults), None)


def _read_text(path) -> tuple[str, bytes]:
    """The first non-blank line, stripped, and the lines after it with a
    newline added at each end."""
    with open(path, "rb") as fh:
        raw = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, _, body = raw.lstrip(b" \t\n").partition(b"\n")
    if not head:
        raise MatrixFormatError(f"{path}: empty file")
    return head.decode(errors="replace").rstrip(" \t"), b"".join((b"\n", body, b"\n"))


def _classes(text: bytes) -> np.ndarray:
    return np.frombuffer(text.translate(_CLASSES), dtype=np.uint8)


def _tokens(classes: np.ndarray):
    """First-byte positions of the tokens, and the token count of each
    non-blank line, from the ``_classes`` of a text that begins and ends with a newline."""
    sep = classes <= _SPACE
    starts = np.flatnonzero(sep[:-1] > sep[1:]) + 1
    counts = np.diff(np.searchsorted(starts, np.flatnonzero(classes == _NEWLINE)))
    return starts, counts[counts > 0]


def _values_ok(text: bytes, classes: np.ndarray) -> bool:
    """Whether every token of a text that begins and ends with a newline is a value."""
    signs = np.flatnonzero(classes == _SIGN)
    # a sign only opens a token and is followed by a digit
    if (classes.max() == _OTHER or (classes[signs - 1] > _SPACE).any()
            or (classes[signs + 1] != _DIGIT).any()):
        return False
    # runs of 19 or more token bytes, found by doubling the run length
    run, length = classes > _SPACE, 1
    while length < 19 and run.any():
        step = min(length, 19 - length)
        run, length = run[:-step] & run[step:], length + step
    return not run.any() or all(int(t) in _INT64 for t in _LONG_TOKEN.findall(text))


def _parse(text: bytes, count: int) -> np.ndarray:
    """The ``count`` values of a checked text, in order, in one call."""
    # fromstring reads an all-blank text as [0]
    return np.fromstring(text, dtype=np.int64, sep=" ") if count else np.zeros(0, np.int64)


def _name_fault(path, text: bytes, fault_of, *args) -> None:
    """Raise for the first non-blank line that ``fault_of(index, line, *args)`` faults."""
    # undecodable bytes become U+FFFD, which no check accepts
    lines = (line for line in text.decode(errors="replace").split("\n") if line.strip(" \t"))
    for i, line in enumerate(lines):
        fault = fault_of(i, line, *args)
        if fault:
            raise MatrixFormatError(f"{path}: {fault}")


def _row_fault(i: int, line: str, cols: int):
    parts = _TOKEN.findall(line)
    if len(parts) != cols:
        return f"row {i} has {len(parts)} values, expected {cols}"
    # a row's grammar is checked before the range of its values
    fault = _first(map(_not_a_value, parts)) or _first(map(_outside_int64, parts))
    return fault and f"row {i}: {fault}"


def _block_fault(i: int, line: str, rows: int, cols: int, pattern: SparsityPattern):
    m, n = pattern.m, pattern.n
    br, c = divmod(i, cols)
    mask, *vals = _TOKEN.findall(line)
    if len(mask) != m or mask.strip("01"):
        return f"block ({br},{c}): bad mask {mask!r}"
    idxs = [k for k in range(m) if mask[m - 1 - k] == "1"]
    if len(vals) != len(idxs):
        return f"block ({br},{c}): mask names {len(idxs)} values, line has {len(vals)}"
    if len(idxs) > n:
        return f"block ({br},{c}): {len(idxs)} values exceeds n={n}"
    if idxs and br * m + idxs[-1] >= rows:
        return f"block ({br},{c}): mask names row {br * m + idxs[-1]} of {rows} rows"
    fault = _first(_not_a_value(v) or ("stored value must be non-zero" if int(v) == 0
                                       else _outside_int64(v)) for v in vals)
    return fault and f"block ({br},{c}): {fault}"


def read_dense(path) -> DenseMatrix:
    head, text = _read_text(path)
    header = _TOKEN.findall(head)
    if len(header) != 2:
        raise MatrixFormatError(f"{path}: expected 'rows cols' header, got {head!r}")
    if _first(map(_not_a_value, header)):
        raise MatrixFormatError(f"{path}: non-integer header {head!r}")
    rows, cols = map(int, header)
    if rows < 0 or cols < 0:
        raise MatrixFormatError(f"{path}: negative dimensions")
    classes = _classes(text)
    _, counts = _tokens(classes)
    expected = rows if cols else 0  # a row with no columns is a blank line
    if len(counts) != expected:
        raise MatrixFormatError(f"{path}: expected {expected} data lines, found {len(counts)}")
    if not ((counts == cols).all() and _values_ok(text, classes)):
        _name_fault(path, text, _row_fault, cols)
    return DenseMatrix(rows, cols, _parse(text, rows * cols), owned=True)


def write_dense(path, matrix: DenseMatrix) -> None:
    row = " ".join(["%d"] * matrix.cols) + "\n"
    step = max(2048 // max(matrix.cols, 1), 1)   # rows per %-format call
    blocks = (matrix.data[lo:lo + step] for lo in range(0, matrix.rows, step))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.rows} {matrix.cols}\n")
        fh.write("".join([row * len(b) % tuple(b.ravel().tolist()) for b in blocks]))


def read_packed(path) -> StructuredSparseMatrix:
    head, text = _read_text(path)
    header = _TOKEN.findall(head)
    if len(header) != 4:
        raise MatrixFormatError(f"{path}: expected 'rows cols n m' header, got {head!r}")
    fault = _first(map(_not_a_value, header))
    if fault:
        raise MatrixFormatError(f"{path}: bad header: {fault}")
    rows, cols, n, m = map(int, header)
    try:
        pattern = SparsityPattern(n, m)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: bad header: {exc}") from exc
    if rows < 0 or cols < 0:
        raise MatrixFormatError(f"{path}: negative dimensions")

    expected = -(-rows // m) * cols   # one line per (block-row, column)
    starts, counts = _tokens(_classes(text))
    if len(counts) != expected:
        raise MatrixFormatError(f"{path}: expected {expected} block lines, found {len(counts)}")

    # a line's mask is its first token: m characters 0/1 (bit 0 rightmost), then a separator
    mask_at = starts[np.cumsum(counts) - counts, None] + np.arange(m)
    buf = np.frombuffer(text + b"\n" * m, dtype=np.uint8).copy()
    chars = buf[mask_at]
    bits = chars[:, ::-1] == ord("1")  # (line, row offset)
    held = bits.sum(axis=1)
    block_row, col = np.divmod(np.arange(expected), cols)
    buf[mask_at] = ord(" ")
    blanked = buf.tobytes()  # the values alone
    if not (((chars == ord("0")) | (chars == ord("1"))).all()
            and (_classes(buf[mask_at[:, -1] + 1].tobytes()) <= _SPACE).all()
            and (held == counts - 1).all() and (held <= n).all()
            and not (bits & (block_row[:, None] * m + np.arange(m) >= rows)).any()
            and _values_ok(blanked, _classes(blanked))):
        _name_fault(path, text, _block_fault, rows, cols, pattern)
    values = _parse(blanked, int(held.sum()))
    if not values.all():
        _name_fault(path, text, _block_fault, rows, cols, pattern)
    line, offset = np.nonzero(bits)  # in file order, one per stored value
    dense = np.zeros((rows, cols), dtype=np.int64)
    dense[block_row[line] * m + offset, col[line]] = values
    return StructuredSparseMatrix(pattern, DenseMatrix(rows, cols, dense))


def write_packed(path, sw: StructuredSparseMatrix) -> None:
    m, n = sw.pattern.m, sw.pattern.n
    # each mask as m characters 0/1, most-significant bit first
    bits = (sw.masks[..., None] >> np.arange(m - 1, -1, -1) & 1).astype(np.uint8) + ord("0")
    masks = bits.view(f"S{m}")[..., 0].astype(f"U{m}")
    tails = np.array([" %d" * k + "\n" for k in range(n + 1)])
    lines = np.char.add(masks, tails[sw.counts])  # (block row, column) format strings
    stored = np.arange(n) < sw.counts[..., None]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{sw.rows} {sw.cols} {n} {m}\n")
        fh.write("".join(["".join(fmt.tolist()) % tuple(values[kept].tolist())
                          for fmt, values, kept in zip(lines, sw.values, stored)]))
