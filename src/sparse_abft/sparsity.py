"""N:M structured-sparse weight matrices: validation, pruning, packing.

An N:M pattern permits at most ``n`` non-zero elements inside every aligned
block of ``m`` consecutive rows of a column. Packed storage keeps only the
non-zeros, plus one m-bit mask per (block-row, column): bit ``i`` of the mask
is set iff row offset ``i`` within the block holds a stored value. Stored
values are ordered by ascending row offset. A packed matrix is built from its
dense values, and the packed arrays are derived from them.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

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

    def __reduce__(self):
        return type(self), (self.report,)


@dataclass(frozen=True)
class SparsityPattern:
    """n non-zeros permitted per column block of m rows (e.g. 2:4, 1:4)."""

    n: int
    m: int

    def __post_init__(self):
        if not 1 <= self.n <= self.m:
            raise ValueError(f"invalid pattern {self.n}:{self.m} (need 1 <= n <= m)")
        if self.m > 63:  # block masks are int64
            raise ValueError(f"invalid pattern {self.n}:{self.m} (m above 63 does not fit a mask)")

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"

    @classmethod
    def parse(cls, text: str) -> "SparsityPattern":
        try:
            n_str, m_str = text.split(":")
            n, m = int(n_str), int(m_str)
        except ValueError as exc:
            raise ValueError(f"cannot parse sparsity pattern {text!r} (expected 'n:m')") from exc
        return cls(n, m)


PATTERN_2_4 = SparsityPattern(2, 4)
PATTERN_1_4 = SparsityPattern(1, 4)


@dataclass(frozen=True)
class DenseMatrix:
    """Row-major dense integer matrix."""

    rows: int
    cols: int
    data: np.ndarray
    owned: InitVar[bool] = False    # data was built for this matrix alone: kept, not copied

    def __post_init__(self, owned):
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.size != self.rows * self.cols:
            raise ShapeError(f"data length {arr.size} != {self.rows}x{self.cols}")
        arr = arr if owned else arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr.reshape(self.rows, self.cols))

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

    def __reduce__(self):   # unpickled data stays read-only
        return type(self), (self.rows, self.cols, self.data, True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return bool(np.array_equal(self.data, other.data))  # shapes included


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an N:M structure check."""

    valid: bool
    violations: list = field(default_factory=list)  # (block_row, col, nonzero_count)


@dataclass(frozen=True)
class StructuredSparseMatrix:
    """N:M matrix built from its dense values, with the packed form derived.

    ``dense`` is the one source: construction validates it against
    ``pattern`` and derives the read-only packed arrays from it.
    ``masks[b, c]`` is the m-bit occupancy mask of block-row ``b``, column
    ``c``; ``values``/``indexes`` hold up to ``pattern.n`` non-zero entries
    per block in ascending row-offset order, with unused slots zero;
    ``counts[b, c]`` is the number of stored entries.
    """

    pattern: SparsityPattern
    dense: DenseMatrix
    masks: np.ndarray = field(init=False, repr=False)     # (block_rows, cols)
    values: np.ndarray = field(init=False, repr=False)    # (block_rows, cols, n)
    indexes: np.ndarray = field(init=False, repr=False)   # (block_rows, cols, n)
    counts: np.ndarray = field(init=False, repr=False)    # (block_rows, cols)

    def __post_init__(self):
        m, n = self.pattern.m, self.pattern.n
        blocks = _padded_blocks(self.dense, m)
        nonzero = blocks != 0
        counts = nonzero.sum(axis=1)
        if (counts > n).any():
            raise SparsityViolationError(validate_structured(self.dense, self.pattern))
        # slot j holds a block's (j+1)-th non-zero; its offset is the number
        # of offsets i with at most j non-zeros in offsets 0..i
        ranks = nonzero.cumsum(axis=1)
        offsets = (ranks[:, :, None, :] <= np.arange(n)[:, None]).sum(axis=1)
        stored = np.arange(n)[:, None] < counts[:, None, :]
        offsets = np.where(stored, offsets, 0)
        picked = blocks[np.arange(len(blocks))[:, None, None], offsets, np.arange(self.cols)]
        packed = {
            "masks": (1 << np.arange(m)) @ nonzero,
            "values": np.where(stored, picked, 0).transpose(0, 2, 1),
            "indexes": offsets.transpose(0, 2, 1),
            "counts": counts,
        }
        for name, arr in packed.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __reduce__(self):   # unpickled packed arrays stay read-only
        return type(self), (self.pattern, self.dense)

    @property
    def rows(self) -> int:
        return self.dense.rows

    @property
    def cols(self) -> int:
        return self.dense.cols

    @property
    def block_rows(self) -> int:
        return self.masks.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructuredSparseMatrix):
            return NotImplemented
        return self.pattern == other.pattern and self.dense == other.dense


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


def prune_magnitude(w: DenseMatrix, pattern: SparsityPattern) -> StructuredSparseMatrix:
    """Keep the n largest-magnitude elements per column block, zero the rest.

    Ties on magnitude are broken toward the lower row offset, which makes the
    result deterministic. Kept zeros are dropped entirely (mask bit cleared).
    """
    blocks = _padded_blocks(w, pattern.m)
    # Stable argsort on -|v| implements the lowest-index tie-break.
    order = np.argsort(-np.abs(blocks), axis=1, kind="stable")
    keep = np.zeros(blocks.shape, dtype=bool)
    keep[np.arange(len(blocks))[:, None, None], order[:, :pattern.n], np.arange(w.cols)] = True
    pruned = np.where(keep, blocks, 0).reshape(len(blocks) * pattern.m, w.cols)[: w.rows]
    return StructuredSparseMatrix(pattern, DenseMatrix(w.rows, w.cols, pruned))


def unpack(sw: StructuredSparseMatrix) -> DenseMatrix:
    """The dense values of a packed matrix."""
    return sw.dense
