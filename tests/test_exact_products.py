"""The segment engine at the edge of its float64 products.

A PE row's products run on float64 BLAS while ``m n 2^(2 input_width - 2)``
stays below 2^53, and in int64 past that: for 2:4 up to ``input_width`` 25,
for 1:4 up to 26. Full-scale tiles at both ends of the range and top-bit
faults on the registers that feed the products (weights, indexes, input
pipes) and on the partial sums must give what the per-cycle reference
engine gives, on both sides of that edge.
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
from sparse_abft.intwrap import blas_matmul, exact_matmul, float64_exact, int_max, int_min
from sparse_abft.registers import RegKind
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4
from sparse_abft.systolic import _tile_schedule, tile_active_cycles

from conftest import as_dense, random_inputs, random_weights
from test_engine_equivalence import run_both

# (pattern, largest input_width on float64, next one up)
EDGES = [(PATTERN_2_4, 25, 26), (PATTERN_1_4, 26, 27)]


def edge_config(pattern, width):
    return ArrayConfig(rows=3, cols=4, pattern=pattern, input_width=width, ic_width=2 * width,
                       col_out_width=63, oc_width=63, cksum_width=200)


def full_scale(cfg, value, a_rows=6):
    """A tile whose inputs and pruned weights all equal ``value``."""
    a = as_dense(np.full((a_rows, cfg.tile_k), value))
    w = prune_magnitude(as_dense(np.full((cfg.tile_k, cfg.cols), value)),
                        cfg.pattern)
    return a, w


def test_edges_straddle_the_float64_bound(monkeypatch):
    """Each PE row's products take float64 BLAS below the edge and int64 above it."""
    on_float = []

    def spy(a, b, peak):
        on_float.append(peak * b.shape[0] < 1 << 53)
        return exact_matmul(a, b, peak)

    monkeypatch.setattr(systolic, "exact_matmul", spy)
    for pattern, below, above in EDGES:
        for width, expected in ((below, True), (above, False)):
            cfg = edge_config(pattern, width)
            on_float.clear()
            SimState(cfg).run_tile(*full_scale(cfg, int_min(width)))
            assert on_float and set(on_float) == {expected}


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
# A segment's diagonal sums (a psum and up to R dot products of m lanes) run
# in float64 while R m peak + 2^(col_out_width - 1) < 2^53, and as int64 sums
# of each row's exact_matmul past that.

def sums_config(rows, pattern, width, col_out_width):
    return ArrayConfig(rows=rows, cols=4, pattern=pattern, input_width=width, ic_width=2 * width,
                       col_out_width=col_out_width, oc_width=63, cksum_width=200)


# (config, whether its sums run in float64)
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
    """Below the bound every row's products go through ``blas_matmul`` into
    float64 sums; at or past it every row takes ``exact_matmul``."""
    paths = []
    monkeypatch.setattr(systolic, "blas_matmul",
                        lambda *args: paths.append(True) or blas_matmul(*args))
    monkeypatch.setattr(systolic, "exact_matmul",
                        lambda *args: paths.append(False) or exact_matmul(*args))
    for cfg, on_float in SUMS_EDGES:
        peak = cfg.pattern.n << 2 * cfg.input_width - 2
        bound = cfg.rows * cfg.pattern.m * peak + (1 << cfg.col_out_width - 1)
        assert (bound < 1 << 53) == on_float
        assert float64_exact(peak, cfg.rows * cfg.pattern.m, 1 << cfg.col_out_width - 1) == on_float
        paths.clear()
        SimState(cfg).run_tile(*full_scale(cfg, int_min(cfg.input_width)))
        assert paths and set(paths) == {on_float}, sums_id(cfg)


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
