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
    DenseMatrix,
    FaultSpec,
    SimState,
    enumerate_registers,
    prune_magnitude,
)
from sparse_abft import systolic
from sparse_abft.intwrap import exact_matmul, int_max, int_min
from sparse_abft.registers import RegKind
from sparse_abft.sparsity import PATTERN_1_4, PATTERN_2_4
from sparse_abft.systolic import tile_active_cycles

from test_engine_equivalence import run_both

# (pattern, largest input_width on float64, next one up)
EDGES = [(PATTERN_2_4, 25, 26), (PATTERN_1_4, 26, 27)]


def edge_config(pattern, width):
    return ArrayConfig(rows=3, cols=4, pattern=pattern, input_width=width, ic_width=2 * width,
                       col_out_width=63, oc_width=63, cksum_width=200)


def full_scale(cfg, value, a_rows=6):
    """A tile whose inputs and pruned weights all equal ``value``."""
    a = DenseMatrix.from_array(np.full((a_rows, cfg.tile_k), value))
    w = prune_magnitude(DenseMatrix.from_array(np.full((cfg.tile_k, cfg.cols), value)),
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
    entries = [e for e in enumerate_registers(cfg).entries if e.reg.kind in
               (RegKind.WEIGHT, RegKind.INDEX, RegKind.INPUT_PIPE, RegKind.PSUM)]
    picks = rng.choice(len(entries), count, replace=False)
    return [FaultSpec(int(rng.integers(window)), entries[i].reg, entries[i].width_bits - 1)
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
