import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_abft import (
    ArrayConfig,
    DenseMatrix,
    SparsityPattern,
    SparsityViolationError,
    matmul_ref,
    prune_magnitude,
    read_packed,
    run_multiplication,
    unpack,
    validate_structured,
    write_packed,
)
from sparse_abft.driver import reference_run
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4, ShapeError, StructuredSparseMatrix

from conftest import packed_block


def col_matrix(*values):
    return DenseMatrix.from_array(np.array(values).T)


# ----------------------------------------------------------------------
# patterns

def test_pattern_parse_and_bounds():
    assert SparsityPattern.parse("2:4") == PATTERN_2_4
    assert SparsityPattern.parse("3:4") == SparsityPattern(3, 4)
    with pytest.raises(ValueError):
        SparsityPattern.parse("5:4")
    with pytest.raises(ValueError):
        SparsityPattern.parse("0:4")
    with pytest.raises(ValueError):
        SparsityPattern.parse("nonsense")


def test_pattern_m_limited_to_63():
    """A block mask is int64: at m = 64 row 63 landed on the sign bit and the
    packed file could not be read back."""
    assert SparsityPattern(1, 63).m == 63
    with pytest.raises(ValueError, match="m above 63"):
        SparsityPattern(1, 64)
    with pytest.raises(ValueError, match="m above 63"):
        SparsityPattern.parse("1:64")


# ----------------------------------------------------------------------
# validate_structured

def test_validate_zero_matrix_any_shape():
    for rows, cols in ((4, 1), (8, 3), (5, 2)):
        report = validate_structured(DenseMatrix.zeros(rows, cols), PATTERN_2_4)
        assert report.valid and not report.violations


def test_validate_reports_violation():
    w = col_matrix([5, 0, 0, 0], [1, 1, 1, 0])
    report = validate_structured(w, PATTERN_2_4)
    assert not report.valid
    assert report.violations == [(0, 1, 3)]


def test_validate_ok_two_per_block():
    w = col_matrix([1, 0, -1, 0], [0, 2, 0, 3])
    # brute-force the count per block-column
    for c in range(2):
        assert np.count_nonzero(w.data[:, c]) <= 2
    assert validate_structured(w, PATTERN_2_4).valid


def test_validate_pads_partial_blocks_with_zeros():
    w = DenseMatrix.from_array([[1], [2]])  # 2 rows, block of 4
    assert validate_structured(w, PATTERN_2_4).valid
    w3 = DenseMatrix.from_array([[1], [2], [3]])
    assert not validate_structured(w3, PATTERN_2_4).valid


def test_dense_matrix_shape_checked():
    with pytest.raises(ShapeError):
        DenseMatrix(2, 3, np.zeros(5, dtype=np.int64))


# ----------------------------------------------------------------------
# prune_magnitude, with a brute-force optimality oracle

def brute_force_best_subset(block, n):
    """Max total magnitude over all size-n subsets (the independent oracle)."""
    best = -1
    for combo in itertools.combinations(range(len(block)), n):
        total = sum(abs(block[i]) for i in combo)
        best = max(best, total)
    return best


def test_prune_keeps_largest_magnitudes():
    sw = prune_magnitude(col_matrix([5, -2, 0, 3]), PATTERN_2_4)
    mask, values, indexes = packed_block(sw, 0, 0)
    assert (mask, values, indexes) == (0b1001, [5, 3], [0, 3])
    assert brute_force_best_subset([5, -2, 0, 3], 2) == abs(5) + abs(3)


def test_prune_tie_breaks_to_lower_index():
    sw = prune_magnitude(col_matrix([3, -3, 3, 0]), PATTERN_2_4)
    mask, values, indexes = packed_block(sw, 0, 0)
    assert (mask, values, indexes) == (0b0011, [3, -3], [0, 1])


def test_prune_all_zero_block():
    sw = prune_magnitude(DenseMatrix.zeros(4, 2), PATTERN_2_4)
    assert packed_block(sw, 0, 0) == (0, [], [])
    assert packed_block(sw, 0, 1) == (0, [], [])


def test_prune_drops_zeros_from_kept_set():
    sw = prune_magnitude(col_matrix([5, 0, 0, 0]), PATTERN_2_4)
    assert packed_block(sw, 0, 0) == (0b0001, [5], [0])


@settings(max_examples=200)
@given(st.lists(st.integers(-128, 127), min_size=4, max_size=4), st.integers(1, 4))
def test_prune_is_magnitude_optimal(block, n):
    pattern = SparsityPattern(n, 4)
    sw = prune_magnitude(col_matrix(block), pattern)
    _, values, _ = packed_block(sw, 0, 0)
    # dropping zeros never changes the magnitude sum, so the kept set must
    # match the brute-force optimum exactly
    assert sum(abs(v) for v in values) == brute_force_best_subset(block, n)
    assert validate_structured(unpack(sw), pattern).valid


# ----------------------------------------------------------------------
# packing / unpack

def test_pack_bit_convention():
    sw = StructuredSparseMatrix(PATTERN_2_4, col_matrix([1, 0, -1, 0]))
    assert packed_block(sw, 0, 0) == (0b0101, [1, -1], [0, 2])


def test_pack_single_element_1_4():
    sw = StructuredSparseMatrix(PATTERN_1_4, col_matrix([0, 0, 7, 0]))
    assert packed_block(sw, 0, 0) == (0b0100, [7], [2])


def test_pack_rejects_invalid():
    w = col_matrix([1, 1, 1, 0])
    with pytest.raises(SparsityViolationError) as excinfo:
        StructuredSparseMatrix(PATTERN_2_4, w)
    assert excinfo.value.report.violations == [(0, 0, 3)]


def test_violation_error_survives_pickling():
    """A campaign child sends its exception to the caller pickled."""
    with pytest.raises(SparsityViolationError) as excinfo:
        StructuredSparseMatrix(PATTERN_2_4, DenseMatrix.from_array([[1], [2], [3], [0]]))
    error = excinfo.value
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is SparsityViolationError
    assert str(copy) == str(error)
    assert copy.report.violations == error.report.violations == [(0, 0, 3)]


def test_pickled_matrices_stay_read_only():
    """Unpickled matrices, as a spawned campaign child gets its A, W, golden
    product and ``Reference``, keep their data read-only and equal."""
    dense = DenseMatrix(2, 2, np.arange(4))
    sw = StructuredSparseMatrix(PATTERN_2_4,
                                DenseMatrix.from_array([[0, 1], [2, 0], [0, 0], [-3, 4]]))
    cfg = ArrayConfig(rows=1, cols=2)
    a = DenseMatrix.from_array(np.arange(-12, 12).reshape(3, 8))
    reference = reference_run(cfg, a, prune_magnitude(DenseMatrix.from_array(
        np.arange(-10, 14).reshape(8, 3)), cfg.pattern))
    dense2, sw2, reference2 = pickle.loads(pickle.dumps((dense, sw, reference)))
    assert dense2 == dense and sw2 == sw
    packed = ("values", "indexes", "masks", "counts")
    assert all((getattr(sw2, n) == getattr(sw, n)).all() for n in packed)
    matrices = [m for _, a_tile, w_tile in reference2.operands for m in (a_tile, w_tile)]
    matrices += [r.outputs for r in reference2.results]
    assert len(matrices) == 3 * 4
    arrays = [dense2.data, *(getattr(sw2, n) for n in packed), sw2.dense.data]
    for m in matrices:
        if isinstance(m, DenseMatrix):
            arrays.append(m.data)
        else:
            arrays += [m.dense.data, *(getattr(m, n) for n in packed)]
    assert not any(x.flags.writeable for x in arrays)


def test_packed_arrays_derived_and_read_only():
    """The packed arrays come from the dense values only, and cannot be
    edited afterwards."""
    dense = DenseMatrix.from_array([[0], [0], [0], [5]])
    sw = StructuredSparseMatrix(PATTERN_2_4, dense)
    assert sw == StructuredSparseMatrix(PATTERN_2_4, DenseMatrix(4, 1, dense.data))
    assert sw.dense is dense and unpack(sw) is dense
    assert (sw.rows, sw.cols, packed_block(sw, 0, 0)) == (4, 1, (0b1000, [5], [3]))
    assert sw.values.tolist() == [[[5, 0]]] and sw.indexes.tolist() == [[[3, 0]]]
    for name in ("masks", "values", "indexes", "counts"):
        assert not getattr(sw, name).flags.writeable


def test_unpack_pack_zero_identity():
    z = DenseMatrix.zeros(8, 3)
    assert unpack(StructuredSparseMatrix(PATTERN_2_4, z)) == z


def valid_structured_matrices(pattern=PATTERN_2_4, max_blocks=4, max_cols=5):
    """Hypothesis strategy: dense matrices that satisfy the pattern."""
    m, n = pattern.m, pattern.n

    @st.composite
    def build(draw):
        blocks = draw(st.integers(1, max_blocks))
        cols = draw(st.integers(1, max_cols))
        data = np.zeros((blocks * m, cols), dtype=np.int64)
        for b in range(blocks):
            for c in range(cols):
                count = draw(st.integers(0, n))
                rows = draw(st.permutations(range(m)))[:count]
                for r in rows:
                    data[b * m + r, c] = draw(
                        st.integers(-128, 127).filter(lambda v: v != 0)
                    )
        return DenseMatrix.from_array(data)

    return build()


@settings(max_examples=150)
@given(valid_structured_matrices())
def test_pack_unpack_roundtrip(w):
    assert unpack(StructuredSparseMatrix(PATTERN_2_4, w)) == w


@settings(max_examples=100)
@given(valid_structured_matrices(pattern=PATTERN_1_4))
def test_pack_unpack_roundtrip_1_4(w):
    assert unpack(StructuredSparseMatrix(PATTERN_1_4, w)) == w


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_prune_validates_on_random_dense(seed):
    rng = np.random.default_rng(seed)
    w = DenseMatrix(8, 4, rng.integers(-128, 128, size=(8, 4)))
    for pattern in (PATTERN_2_4, PATTERN_1_4):
        assert validate_structured(unpack(prune_magnitude(w, pattern)), pattern).valid


def test_prune_zero_columns():
    w = prune_magnitude(DenseMatrix.zeros(5, 0), PATTERN_2_4)
    assert w.dense == DenseMatrix.zeros(5, 0)
    assert w.masks.shape == (2, 0)


def loop_pack(w, pattern, prune):
    """Per-block loop packer, the reference for the vectorized one.

    With ``prune`` each block keeps its n largest magnitudes (stable sort:
    ties go to the lower offset); otherwise every offset is kept. Zeros are
    never stored. Returns the masks, values, indexes and counts arrays.
    """
    m, n = pattern.m, pattern.n
    b = -(-w.rows // m)
    padded = np.zeros((b * m, w.cols), dtype=np.int64)
    padded[: w.rows] = w.data
    masks = np.zeros((b, w.cols), dtype=np.int64)
    values = np.zeros((b, w.cols, n), dtype=np.int64)
    indexes = np.zeros((b, w.cols, n), dtype=np.int64)
    counts = np.zeros((b, w.cols), dtype=np.int64)
    for br in range(b):
        for c in range(w.cols):
            block = [int(v) for v in padded[br * m:(br + 1) * m, c]]
            kept = sorted(range(m), key=lambda i: -abs(block[i]))[:n] if prune else range(m)
            for idx in sorted(kept):
                if block[idx]:
                    k = counts[br, c]
                    masks[br, c] |= 1 << idx
                    values[br, c, k], indexes[br, c, k] = block[idx], idx
                    counts[br, c] += 1
    return {"masks": masks, "values": values, "indexes": indexes, "counts": counts}


def assert_packed_as(sw, want):
    for name, arr in want.items():
        assert np.array_equal(getattr(sw, name), arr), name


def loop_unpack(sw):
    m = sw.pattern.m
    dense = np.zeros((sw.block_rows * m, sw.cols), dtype=np.int64)
    for br in range(sw.block_rows):
        for c in range(sw.cols):
            for j in range(int(sw.counts[br, c])):
                dense[br * m + int(sw.indexes[br, c, j]), c] = int(sw.values[br, c, j])
    return DenseMatrix(sw.rows, sw.cols, dense[: sw.rows])


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_vectorized_packing_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    pattern = SparsityPattern(int(rng.integers(1, m + 1)), m)
    # small magnitudes make ties and zeros common
    shape = (int(rng.integers(1, 14)), int(rng.integers(1, 5)))
    w = DenseMatrix.from_array(rng.integers(-3, 4, size=shape))
    pruned = prune_magnitude(w, pattern)
    assert_packed_as(pruned, loop_pack(w, pattern, prune=True))
    dense = unpack(pruned)
    assert dense == loop_unpack(pruned)
    packed = StructuredSparseMatrix(pattern, dense)
    assert_packed_as(packed, loop_pack(dense, pattern, prune=False))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["2:4", "1:4", "1:3", "3:4"]))
def test_file_and_array_agree_with_dense(tmp_path_factory, seed, pattern_text):
    """The packed file and the array both carry exactly the dense values."""
    rng = np.random.default_rng(seed)
    pattern = SparsityPattern.parse(pattern_text)
    cfg = ArrayConfig(rows=int(rng.integers(1, 4)), cols=int(rng.integers(1, 5)),
                      pattern=pattern)
    k, cols = int(rng.integers(1, 3 * cfg.tile_k)), int(rng.integers(1, 2 * cfg.cols + 2))
    # small magnitudes make zeros, and so partly empty blocks, common
    w = prune_magnitude(DenseMatrix.from_array(rng.integers(-2, 3, size=(k, cols))), pattern)
    path = tmp_path_factory.mktemp("io") / "w.smat"
    write_packed(path, w)
    assert read_packed(path) == w
    a = DenseMatrix.from_array(rng.integers(-128, 128, size=(int(rng.integers(1, 6)), k)))
    run = run_multiplication(cfg, a, w)
    assert not run.flagged
    assert run.outputs == matmul_ref(a, unpack(w), cfg.col_out_width)
