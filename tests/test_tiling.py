import numpy as np
import pytest

from sparse_abft import ArrayConfig
from sparse_abft.systolic import wave_schedule
from sparse_abft.tiling import tile_plan


def rounds_per_tile(cfg, a_rows):
    """Checksum rounds in one tile's schedule (one digit-0 wave each)."""
    return int((wave_schedule(cfg, a_rows)[1] == 0).sum())


def test_everything_fits_one_tile():
    cfg = ArrayConfig(rows=1, cols=2)
    plan = tile_plan(2, 4, 2, cfg)
    assert len(plan.tiles) == 1
    assert plan.tiles[0].k_range == (0, cfg.tile_k)
    assert plan.tiles[0].col_range == (0, 2)
    assert rounds_per_tile(cfg, 2) == 1


def test_flush_interval_from_widths():
    assert ArrayConfig().rows_per_round == 256  # 16-bit IC, 8-bit inputs
    assert ArrayConfig(ic_width=24).rows_per_round == 2**16
    assert ArrayConfig(rows=1, cols=2).rows_per_round == 256


def test_derived_multi_tile_plan():
    cfg = ArrayConfig(rows=8, cols=32)  # tile_k = 32
    plan = tile_plan(300, 64, 64, cfg)
    assert len(plan.tiles) == 4  # 2 k-chunks x 2 column chunks
    assert rounds_per_tile(cfg, 300) == 2  # ceil(300 / cfg.rows_per_round)


def test_partial_chunks_cover_edges():
    cfg = ArrayConfig(rows=8, cols=32)
    plan = tile_plan(10, 70, 40, cfg)
    assert len(plan.tiles) == 3 * 2
    assert plan.tiles[-1].k_range == (64, 70)
    assert plan.tiles[-1].col_range == (32, 40)


def test_tiles_cover_product_exactly_once():
    cfg = ArrayConfig(rows=2, cols=3)  # tile_k = 8
    a_rows, k, cols = 5, 20, 7
    plan = tile_plan(a_rows, k, cols, cfg)
    hits = np.zeros((a_rows, k, cols), dtype=int)
    for tile in plan.tiles:  # every tile streams all rows of A
        (k0, k1), (c0, c1) = tile.k_range, tile.col_range
        hits[:, k0:k1, c0:c1] += 1
    assert (hits == 1).all()


def test_dimensions_validated():
    cfg = ArrayConfig()
    for bad in ((0, 4, 2), (2, 0, 2), (2, 4, 0)):
        with pytest.raises(ValueError):
            tile_plan(*bad, cfg)
