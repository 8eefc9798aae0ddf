"""N:M structured-sparse weight matrices: validation, pruning, packing.

An N:M pattern permits at most ``n`` non-zero elements inside every aligned
block of ``m`` consecutive rows of a column. Packed storage keeps only the
non-zeros, plus one m-bit mask per (block-row, column): bit ``i`` of the mask
is set iff row offset ``i`` within the block holds a stored value. Stored
values are ordered by ascending row offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .intwrap import check_ndarray_width


class ShapeError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class SparsityViolationError(ValueError):
    """Dense matrix does not satisfy the N:M constraint."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        worst = ", ".join(
            f"(block {b}, col {c}: {k} non-zeros)" for b, c, k in report.violations[:4]
        )
        more = "" if len(report.violations) <= 4 else f" and {len(report.violations) - 4} more"
        super().__init__(f"structured-sparsity violations: {worst}{more}")


@dataclass(frozen=True)
class SparsityPattern:
    """n non-zeros permitted per column block of m rows (e.g. 2:4, 1:4)."""

    n: int
    m: int

    def __post_init__(self):
        if not 1 <= self.n <= self.m:
            raise ValueError(f"invalid pattern {self.n}:{self.m} (need 1 <= n <= m)")

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"

    @classmethod
    def parse(cls, text: str) -> "SparsityPattern":
        try:
            n_str, m_str = text.split(":")
            return cls(int(n_str), int(m_str))
        except (ValueError, TypeError) as exc:
            if isinstance(exc, ValueError) and "invalid pattern" in str(exc):
                raise
            raise ValueError(f"cannot parse sparsity pattern {text!r} (expected 'n:m')") from exc


PATTERN_2_4 = SparsityPattern(2, 4)
PATTERN_1_4 = SparsityPattern(1, 4)


@dataclass(frozen=True)
class DenseMatrix:
    """Row-major dense integer matrix."""

    rows: int
    cols: int
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.size != self.rows * self.cols:
            raise ShapeError(f"data length {arr.size} != {self.rows}x{self.cols}")
        arr = arr.reshape(self.rows, self.cols).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, arr) -> "DenseMatrix":
        a = np.asarray(arr, dtype=np.int64)
        if a.ndim != 2:
            raise ShapeError(f"expected 2-D array, got shape {a.shape}")
        return cls(a.shape[0], a.shape[1], a)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls(rows, cols, np.zeros((rows, cols), dtype=np.int64))

    def check_width(self, width: int) -> None:
        check_ndarray_width(self.data, width, what="matrix element")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and bool(
            np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an N:M structure check."""

    valid: bool
    violations: list = field(default_factory=list)  # (block_row, col, nonzero_count)


@dataclass(frozen=True)
class StructuredSparseMatrix:
    """Packed N:M matrix.

    ``masks[b, c]`` is the m-bit occupancy mask of block-row ``b``, column
    ``c``. ``values``/``indexes`` hold up to ``pattern.n`` entries per block
    in ascending row-offset order; unused slots are zero-padded.
    """

    rows: int
    cols: int
    pattern: SparsityPattern
    masks: np.ndarray      # (block_rows, cols) int64
    values: np.ndarray     # (block_rows, cols, n) int64
    indexes: np.ndarray    # (block_rows, cols, n) int64
    counts: np.ndarray     # (block_rows, cols) int64, stored values per block

    def __post_init__(self):
        for name in ("masks", "values", "indexes", "counts"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        b = block_rows(self.rows, self.pattern.m)
        n = self.pattern.n
        if self.masks.shape != (b, self.cols):
            raise ShapeError(f"masks shape {self.masks.shape} != ({b}, {self.cols})")
        if self.values.shape != (b, self.cols, n) or self.indexes.shape != (b, self.cols, n):
            raise ShapeError("values/indexes shape mismatch")
        if self.counts.shape != (b, self.cols):
            raise ShapeError(f"counts shape {self.counts.shape} != ({b}, {self.cols})")
        # the array loads every stored slot while unpack reads ``counts`` of
        # them, so counts that disagree with the masks would split the two
        popcount = (self.masks[..., None] >> np.arange(self.pattern.m) & 1).sum(axis=-1)
        if not np.array_equal(self.counts, popcount):
            raise ValueError("counts differ from the number of bits set in masks")

    @property
    def block_rows(self) -> int:
        return self.masks.shape[0]

    def block(self, block_row: int, col: int):
        """(mask, values, indexes) of one block, trimmed to stored entries."""
        k = int(self.counts[block_row, col])
        return (
            int(self.masks[block_row, col]),
            [int(v) for v in self.values[block_row, col, :k]],
            [int(i) for i in self.indexes[block_row, col, :k]],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructuredSparseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.pattern == other.pattern
            and bool(np.array_equal(self.masks, other.masks))
            and bool(np.array_equal(self.values, other.values))
            and bool(np.array_equal(self.indexes, other.indexes))
            and bool(np.array_equal(self.counts, other.counts))
        )


def block_rows(rows: int, m: int) -> int:
    """Number of m-row blocks covering ``rows`` (last block zero-padded)."""
    return (rows + m - 1) // m


def _padded_blocks(w: DenseMatrix, m: int) -> np.ndarray:
    """View of the dense data as (block_rows, m, cols), zero-padded."""
    b = block_rows(w.rows, m)
    padded = np.zeros((b * m, w.cols), dtype=np.int64)
    padded[: w.rows] = w.data
    return padded.reshape(b, m, w.cols)


def validate_structured(w: DenseMatrix, pattern: SparsityPattern) -> ValidationReport:
    """Check that every column block of ``w`` has at most ``pattern.n`` non-zeros."""
    blocks = _padded_blocks(w, pattern.m)
    counts = np.count_nonzero(blocks, axis=1)  # (block_rows, cols)
    bad = np.argwhere(counts > pattern.n)
    violations = [(int(b), int(c), int(counts[b, c])) for b, c in bad]
    return ValidationReport(valid=not violations, violations=violations)


def _pack_blocks(rows: int, blocks: np.ndarray, pattern: SparsityPattern) -> StructuredSparseMatrix:
    """Pack (block_rows, m, cols) blocks holding at most ``pattern.n`` non-zeros each."""
    m, n = pattern.m, pattern.n
    nonzero = blocks != 0
    masks = (nonzero << np.arange(m)[:, None]).sum(axis=1)
    counts = nonzero.sum(axis=1)
    # a stable sort on "is zero" lists the stored offsets first, ascending
    offsets = np.argsort(~nonzero, axis=1, kind="stable")[:, :n]
    stored = np.arange(n)[:, None] < counts[:, None, :]
    values = np.where(stored, np.take_along_axis(blocks, offsets, axis=1), 0)
    indexes = np.where(stored, offsets, 0)
    return StructuredSparseMatrix(rows, blocks.shape[2], pattern, masks,
                                  values.transpose(0, 2, 1), indexes.transpose(0, 2, 1), counts)


def prune_magnitude(w: DenseMatrix, pattern: SparsityPattern) -> StructuredSparseMatrix:
    """Keep the n largest-magnitude elements per column block, zero the rest.

    Ties on magnitude are broken toward the lower row offset, which makes the
    result deterministic. Kept zeros are dropped entirely (mask bit cleared).
    """
    blocks = _padded_blocks(w, pattern.m)
    # Stable argsort on -|v| implements the lowest-index tie-break.
    order = np.argsort(-np.abs(blocks), axis=1, kind="stable")
    keep = np.zeros(blocks.shape, dtype=bool)
    np.put_along_axis(keep, order[:, :pattern.n], True, axis=1)
    return _pack_blocks(w.rows, np.where(keep, blocks, 0), pattern)


def pack(w: DenseMatrix, pattern: SparsityPattern) -> StructuredSparseMatrix:
    """Pack a dense matrix that already satisfies the N:M constraint.

    Raises SparsityViolationError (carrying the full report) otherwise.
    """
    report = validate_structured(w, pattern)
    if not report.valid:
        raise SparsityViolationError(report)
    return _pack_blocks(w.rows, _padded_blocks(w, pattern.m), pattern)


def unpack(sw: StructuredSparseMatrix) -> DenseMatrix:
    """Expand packed storage back to a dense matrix (inverse of pack)."""
    m = sw.pattern.m
    dense = np.zeros((sw.block_rows, m, sw.cols), dtype=np.int64)
    b, c, j = np.nonzero(np.arange(sw.pattern.n) < sw.counts[:, :, None])
    dense[b, sw.indexes[b, c, j], c] = sw.values[b, c, j]
    return DenseMatrix(sw.rows, sw.cols, dense.reshape(-1, sw.cols)[: sw.rows])
