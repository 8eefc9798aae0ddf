"""Tiling of large multiplications onto the fixed-size array."""

from __future__ import annotations

from dataclasses import dataclass

from .config import ArrayConfig


@dataclass(frozen=True)
class Tile:
    """Index ranges (half-open) of one tile of the product computation."""

    k_range: tuple      # inner-dimension slice mapped onto the loaded weights
    col_range: tuple    # output columns produced by this tile


@dataclass(frozen=True)
class TilePlan:
    tiles: tuple


def tile_plan(a_rows: int, k: int, cols: int, cfg: ArrayConfig) -> TilePlan:
    """Split a full multiplication into array-sized weight tiles.

    The inner dimension is chunked by the array's ``tile_k`` and the output
    columns by its width; every tile streams all rows of A, interrupted for a
    checksum round every ``rows_per_round`` rows. Partial edge chunks are
    zero-padded by the driver.
    """
    if a_rows < 1 or k < 1 or cols < 1:
        raise ValueError("all dimensions must be at least 1")
    tiles = []
    for k_lo in range(0, k, cfg.tile_k):
        for c_lo in range(0, cols, cfg.cols):
            tiles.append(
                Tile(
                    k_range=(k_lo, min(k_lo + cfg.tile_k, k)),
                    col_range=(c_lo, min(c_lo + cfg.cols, cols)),
                )
            )
    return TilePlan(tiles=tuple(tiles))
