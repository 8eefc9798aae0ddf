"""Text file formats for dense and packed sparse matrices.

Dense format::

    rows cols
    a00 a01 ...          (one line per row, space-separated signed decimals)

Packed format::

    rows cols n m
    mask v0 [v1 ...]     (one line per (block-row, column), block-row-major)

The mask is written in binary, most-significant bit first, so the rightmost
character is bit 0 = the first row of the block. Values appear in ascending
row-offset order.
"""

from __future__ import annotations

import numpy as np

from .sparsity import (
    DenseMatrix,
    SparsityPattern,
    StructuredSparseMatrix,
    block_rows,
)


class MatrixFormatError(ValueError):
    """Malformed matrix file."""


def _read_text(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def read_dense(path) -> DenseMatrix:
    lines = _read_text(path)
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


def write_dense(path, matrix: DenseMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.rows} {matrix.cols}\n")
        for i in range(matrix.rows):
            fh.write(" ".join(str(int(v)) for v in matrix.data[i]) + "\n")


def read_packed(path) -> StructuredSparseMatrix:
    lines = _read_text(path)
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


def write_packed(path, sw: StructuredSparseMatrix) -> None:
    m = sw.pattern.m
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{sw.rows} {sw.cols} {sw.pattern.n} {sw.pattern.m}\n")
        for br in range(sw.block_rows):
            for c in range(sw.cols):
                mask, vals, _ = sw.block(br, c)
                line = format(mask, f"0{m}b")
                if vals:
                    line += " " + " ".join(str(v) for v in vals)
                fh.write(line + "\n")
