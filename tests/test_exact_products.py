"""The segment engine at the edge of its float64 products.

A segment's diagonal sums of products run on float64 BLAS over one slice of
the bundles and lane weights while ``R m n 2^(2 input_width - 2)`` stays
below 2^53, and over signed-digit slices of both, recombined in int64, past
that. Full-scale tiles at both ends of the range and top-bit faults on the
registers that feed the products (weights, indexes, input pipes) and on the
partial sums must give what the per-cycle reference engine gives, on both
sides of that edge.
"""

import numpy as np
import pytest

from sparse_abft import (
    ArrayConfig,
    FaultSpec,
    SimState,
    enumerate_registers,
    prune_magnitude,
)
from sparse_abft import systolic
from sparse_abft.intwrap import blas_matmul, int_max, int_min
from sparse_abft.registers import RegKind
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4
from sparse_abft.systolic import _tile_schedule, tile_active_cycles

from conftest import as_dense, random_inputs, random_weights
from test_engine_equivalence import run_both

# (pattern, largest input_width whose one-row products m n 2^(2 input_width - 2)
# stay below 2^53, next one up)
EDGES = [(PATTERN_2_4, 25, 26), (PATTERN_1_4, 26, 27)]


def edge_config(pattern, width):
    return ArrayConfig(rows=3, cols=4, pattern=pattern, input_width=width, ic_width=2 * width,
                       col_out_width=63, oc_width=63, cksum_width=63)


def full_scale(cfg, value, a_rows=6):
    """A tile whose inputs and pruned weights all equal ``value``."""
    a = as_dense(np.full((a_rows, cfg.tile_k), value))
    w = prune_magnitude(as_dense(np.full((cfg.tile_k, cfg.cols), value)),
                        cfg.pattern)
    return a, w


def slice_pairs(cfg):
    """The slice pairs of a segment's products, each one ``blas_matmul`` per PE row."""
    width, count, lw = SimState(cfg)._lane_weights
    return sum((i + j) * width < 64 for i in range(count) for j in range(len(lw)))


# (pattern, input_width) of EDGES and the slice pairs of its products at R = 3
EDGE_PAIRS = {(PATTERN_2_4, 25): 1, (PATTERN_2_4, 26): 4, (PATTERN_1_4, 26): 4,
              (PATTERN_1_4, 27): 4}


def test_edges_straddle_the_float64_bound(monkeypatch):
    """The float64 sums span a diagonal's R m products, so one slice holds
    while ``R m peak < 2^53``: on 3 rows, 2:4 straddles its one-row edge at
    25 and 26 bits, and 1:4 takes 2 slices of each operand at 26 and 27. A
    segment calls ``blas_matmul`` once per PE row and slice pair."""
    calls = []
    monkeypatch.setattr(systolic, "blas_matmul", lambda *args: calls.append(1) or blas_matmul(*args))
    for pattern, below, above in EDGES:
        for width in (below, above):
            cfg = edge_config(pattern, width)
            peak = pattern.n << 2 * width - 2
            assert (slice_pairs(cfg) == 1) == (cfg.rows * pattern.m * peak < 1 << 53)
            assert slice_pairs(cfg) == EDGE_PAIRS[pattern, width]
            calls.clear()
            SimState(cfg).run_tile(*full_scale(cfg, int_min(width)))
            assert len(calls) == cfg.rows * EDGE_PAIRS[pattern, width]


def top_bit_faults(rng, cfg, window, count):
    """``count`` flips of the top bit of weight, index, input-pipe and psum registers."""
    entries = [(reg, width) for reg, width in enumerate_registers(cfg).entries if reg.kind in
               (RegKind.WEIGHT, RegKind.INDEX, RegKind.INPUT_PIPE, RegKind.PSUM)]
    picks = rng.choice(len(entries), count, replace=False)
    return [FaultSpec(int(rng.integers(window)), entries[i][0], entries[i][1] - 1)
            for i in picks]


@pytest.mark.parametrize("pattern, width", [(p, w) for p, *widths in EDGES for w in widths],
                         ids=lambda x: str(x))
def test_full_scale_tiles_at_the_edge_match_reference(pattern, width):
    cfg = edge_config(pattern, width)
    rng = np.random.default_rng(width)
    for value in (int_min(width), int_max(width)):
        tiles = [full_scale(cfg, value)] * 2
        window = 2 * tile_active_cycles(cfg, tiles[0][0].rows)
        run_both(cfg, tiles, [])
        for _ in range(6):
            run_both(cfg, tiles, top_bit_faults(rng, cfg, window, 8))


# ----------------------------------------------------------------------
# A segment's diagonal sums are a psum and up to R dot products of m lanes.
# The products sum in float64 and the psum is added in int64 after them, so
# col_out_width does not move the float64 bound R m peak < 2^53.

def sums_config(rows, pattern, width, col_out_width):
    return ArrayConfig(rows=rows, cols=4, pattern=pattern, input_width=width, ic_width=2 * width,
                       col_out_width=col_out_width, oc_width=63, cksum_width=63)


# (config, whether its psum and products together stay below 2^53)
SUMS_EDGES = [
    (sums_config(3, PATTERN_2_4, 8, 53), True),     # 3*4*2^15 + 2^52
    (sums_config(3, PATTERN_2_4, 8, 54), False),    # the psum term alone is 2^53
    (sums_config(3, PATTERN_1_4, 8, 63), False),
    (sums_config(1, PATTERN_2_4, 25, 53), True),    # 2^51 + 2^52
    (sums_config(2, PATTERN_2_4, 25, 53), False),   # 2^52 + 2^52: exactly 2^53
]


def sums_id(cfg):
    return f"R{cfg.rows},{cfg.pattern},w{cfg.input_width},cow{cfg.col_out_width}"


def test_sums_straddle_the_float64_bound(monkeypatch):
    """On both sides of 2^53 for psum and products together, the products
    alone stay below it: every config takes one slice, one ``blas_matmul``
    per PE row a segment, and adds its psums, up to 2^62, in int64."""
    calls = []
    monkeypatch.setattr(systolic, "blas_matmul", lambda *args: calls.append(1) or blas_matmul(*args))
    for cfg, below in SUMS_EDGES:
        peak = cfg.pattern.n << 2 * cfg.input_width - 2
        bound = cfg.rows * cfg.pattern.m * peak + (1 << cfg.col_out_width - 1)
        assert (bound < 1 << 53) == below
        assert cfg.rows * cfg.pattern.m * peak < 1 << 53 and slice_pairs(cfg) == 1
        calls.clear()
        SimState(cfg).run_tile(*full_scale(cfg, int_min(cfg.input_width)))
        assert len(calls) == cfg.rows, sums_id(cfg)


@pytest.mark.parametrize("cfg", [cfg for cfg, _ in SUMS_EDGES], ids=sums_id)
def test_full_scale_tiles_at_the_sums_bound_match_reference(cfg):
    """Full-scale tiles with top-bit flips of weight, index, input-pipe and
    psum registers, on both sides of the bound."""
    rng = np.random.default_rng(cfg.rows * cfg.col_out_width)
    for value in (int_min(cfg.input_width), int_max(cfg.input_width)):
        tiles = [full_scale(cfg, value)] * 2
        window = 2 * tile_active_cycles(cfg, tiles[0][0].rows)
        run_both(cfg, tiles, [])
        for _ in range(6):
            run_both(cfg, tiles, top_bit_faults(rng, cfg, window, 8))


def test_top_bit_psum_faults_just_past_the_bound_match_reference():
    """A top-bit flip leaves a 54-bit psum near 2^53 and a 63-bit one near
    2^62, where float64 rounds odd sums; the int64 sums must not. Mixed-sign
    operands move some of them further out."""
    rng = np.random.default_rng(54)
    for col_out_width in (54, 63):
        cfg = sums_config(3, PATTERN_2_4, 8, col_out_width)
        w = random_weights(rng, cfg.tile_k, cfg.cols, cfg.pattern)
        tiles = [(random_inputs(rng, 20, cfg.tile_k), w) for _ in range(2)]
        window = 2 * tile_active_cycles(cfg, 20)
        psums = [e for e in enumerate_registers(cfg).entries if e[0].kind is RegKind.PSUM]
        for _ in range(8):
            picks = rng.choice(len(psums), 4, replace=False)
            run_both(cfg, tiles, [FaultSpec(int(rng.integers(window)), psums[i][0],
                                            psums[i][1] - 1) for i in picks])


def test_long_segments_keep_every_product_on_one_thread(monkeypatch):
    """A 2,100-row round on 8x64 (ic_width 24) clocks as one segment of
    2,176 cycles. Its row products, (64 + 2,176) x 4 by 4 x 64, are larger
    than 2^18 multiply-adds, so they must run in row blocks: every float64
    product issued is at most 2^18 multiply-adds, and together they do all of
    the segment's work. The run equals the reference engine's."""
    cfg = ArrayConfig(rows=8, cols=64, ic_width=24)
    rng = np.random.default_rng(24)
    a = random_inputs(rng, 2100, cfg.tile_k)
    w = random_weights(rng, cfg.tile_k, cfg.cols, cfg.pattern)
    cycles = tile_active_cycles(cfg, a.rows)
    assert _tile_schedule(cfg, a.rows)[1] == (cycles,) and cycles > 2000
    sizes = []

    def spy(original):
        def product(x, y, *args, **kwargs):
            if np.ndim(x) == np.ndim(y) == 2 and np.result_type(x, y) == np.float64:
                sizes.append(x.shape[0] * x.shape[1] * y.shape[1])
            return original(x, y, *args, **kwargs)
        return product

    for name in ("dot", "matmul"):
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    SimState(cfg).run_tile(a, w)
    monkeypatch.undo()
    assert sizes and max(sizes) <= 1 << 18
    assert sum(sizes) == cfg.rows * (cfg.cols + cycles) * cfg.pattern.m * cfg.cols
    run_both(cfg, [(a, w)], [])
    run_both(cfg, [(a, w)], top_bit_faults(rng, cfg, cycles, 6))
