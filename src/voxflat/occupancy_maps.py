"""UAV and UGV occupancy grids, each one array rule applied to a window.

Cells with a navigable span (a height cell) are free (0). A boundary cell,
one without a span but with a present 8-neighbour, counts its occupied voxels
inside each present neighbour's [floor_k, ceil_k) span with a prefix sum
along k, and divides by the span's length in voxels. The largest ratio over
neighbours is its value when it reaches min_occupancy; below that, and on
cells with no present neighbour, the value is unknown (-1). `uav_cell_value`
computes this for any window of the map, `build_uav_map` for the whole
extent, and `update()` for the dirty columns grown by one cell.

The ground-robot grid is the aerial grid with free cells steeper than the
traversable slope made fully occupied: `ugv_values`, one elementwise rule
for the full build and for every update window.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .column_extraction import HeightMap
from .slope_map import SlopeMap
from .voxel_store import VoxelMap, VoxelState

NEIGHBORS_8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
# Row and column offsets of the 8-neighbours in a block padded by one cell.
_DM, _DN = (1 + np.array(d)[:, None] for d in zip(*NEIGHBORS_8))

# Output rows per kernel pass; bounds the gathered boundary columns and their
# prefix sums to a few MB.
_BAND_ROWS = 64

# A plain int: numpy compares an array with an IntEnum member much slower.
_OCCUPIED = int(VoxelState.OCCUPIED)


@dataclass
class OccupancyGrid:
    """M x N grid of -1 (unknown) or occupancy in [0, 1] (0 = free)."""

    kind: str  # "uav" or "ugv"
    resolution: float
    origin: tuple[float, float, float]
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("uav", "ugv"):
            raise ValueError(f"kind must be 'uav' or 'ugv', got {self.kind!r}")

    @property
    def extent(self) -> tuple[int, int]:
        return self.values.shape


def uav_cell_value(vmap: VoxelMap, height: HeightMap, rows: slice, cols: slice,
                   min_occupancy: float) -> np.ndarray:
    """Aerial-map values of the window `[rows, cols]`.

    Reads the heights one cell beyond the window and the voxels of its own
    boundary cells only, so any window equals the same cells of
    `build_uav_map` bit for bit.
    """
    m0, m1, n0, n1 = height.window(rows, cols)
    values = np.empty((m1 - m0, n1 - n0))
    for b0 in range(m0, m1, _BAND_ROWS):
        b1 = min(b0 + _BAND_ROWS, m1)
        values[b0 - m0:b1 - m0] = _uav_block(vmap, height, b0, b1, n0, n1,
                                             min_occupancy)
    return values


def _uav_block(vmap: VoxelMap, height: HeightMap, m0: int, m1: int, n0: int,
               n1: int, min_occupancy: float) -> np.ndarray:
    """Aerial values of the block [m0, m1) x [n0, n1).

    The block's floor and ceiling faces, grown by one cell by
    `HeightMap.block`, give every boundary cell's eight neighbour spans at
    once. A span's length is taken as given; the part of it outside [0, K)
    counts no occupied voxels (voxels there are Unknown).
    """
    K = vmap.extent[2]
    k, present = height.block(m0, m1, n0, n1, 1)
    here = present[1:-1, 1:-1]
    near = present[:-2] | present[1:-1] | present[2:]
    near = near[:, :-2] | near[:, 1:-1] | near[:, 2:]
    values = np.where(here, 0.0, -1.0)
    bm, bn = np.nonzero(near > here)
    if not bm.size:
        return values
    occupied = vmap.states[bm + m0, bn + n0] == _OCCUPIED
    prefix = np.zeros((bm.size, K + 1), dtype=np.int32)
    occupied.cumsum(axis=1, out=prefix[:, 1:])
    # An absent neighbour reads the empty span [0, 0), ratio 0; every
    # boundary cell has a present neighbour, whose ratio is at least 0.
    span = np.maximum(k[1] - k[0], 1)
    k = np.minimum(np.maximum(k, 0), K)
    # (8, boundary cells) arrays: the neighbours in padded block coordinates.
    pm, pn = bm + _DM, bn + _DN
    ends = prefix[np.arange(bm.size), k[:, pm, pn]]
    best = ((ends[1] - ends[0]) / span[pm, pn]).max(axis=0)
    values[bm, bn] = np.where(best >= min_occupancy, best, -1.0)
    return values


def ugv_values(uav_values: np.ndarray, slope_values: np.ndarray,
               max_slope: float) -> np.ndarray:
    """Ground-map values: free cells steeper than max_slope become occupied.

    NaN slopes (absent cells) are never steep, and degenerate-fit cells carry
    slope 0, so they stay free by design.
    """
    return np.where((uav_values == 0.0) & (slope_values > max_slope), 1.0, uav_values)


def build_uav_map(vmap: VoxelMap, height: HeightMap,
                  min_occupancy: float) -> OccupancyGrid:
    """uav_cell_value over the whole extent."""
    if not (0.0 < min_occupancy <= 1.0):
        raise ValueError(f"min_occupancy must be in (0, 1], got {min_occupancy}")
    if vmap.extent[:2] != height.extent:
        raise ValueError(f"voxel extent {vmap.extent} does not match height "
                         f"extent {height.extent}")
    M, N = height.extent
    values = uav_cell_value(vmap, height, slice(0, M), slice(0, N), min_occupancy)
    return OccupancyGrid("uav", height.resolution, height.origin, values)


def build_ugv_map(uav: OccupancyGrid, slope: SlopeMap, max_slope: float) -> OccupancyGrid:
    """ugv_values over the whole extent."""
    if uav.kind != "uav":
        raise ValueError(f"expected a uav grid, got kind {uav.kind!r}")
    if max_slope <= 0:
        raise ValueError(f"max_slope must be positive, got {max_slope}")
    return OccupancyGrid("ugv", uav.resolution, uav.origin,
                         ugv_values(uav.values, slope.values, max_slope))
