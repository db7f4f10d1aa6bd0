"""UAV and UGV occupancy grids, each one array rule applied to a window.

Cells with a navigable span (a height cell) are free (0). A boundary cell,
one without a span but with a present 8-neighbour, counts its occupied voxels
inside each present neighbour's [floor_k, ceil_k) span with a prefix sum
along k, and divides by the span's length in voxels. The largest ratio over
neighbours is its value when it reaches min_occupancy; below that, and on
cells with no present neighbour, the value is unknown (-1). `uav_cell_value`
computes this for any window of the map, and `update()` for the dirty columns
grown by one cell. `build_uav_map` runs it on the bounding box of the
present cells (`nonzero_box`) grown by one cell and pads the result with -1
to the extent: no cell outside that box has a present neighbour. A window is
computed in bands of whole rows holding about _BAND_CELLS cells through
`column_extraction.run_bands`, so a fully observed map's bands run on its
thread pool, and an explored map's box or an update's window, one band, on
the caller's thread.

The ground-robot grid is the aerial grid with free cells steeper than the
traversable slope made fully occupied: `ugv_values`, one elementwise rule
for the full build and for every update window.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .column_extraction import HeightMap, grow, run_bands
from .slope_map import SlopeMap
from .voxel_store import VoxelMap, VoxelState, nonzero_box

NEIGHBORS_8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
# Row and column offsets of the 8-neighbours in a block padded by one cell.
_DM, _DN = (1 + np.array(d)[:, None] for d in zip(*NEIGHBORS_8))

# Output cells per kernel pass, as whole rows of the window; bounds the
# gathered boundary columns and their prefix sums to a few MB. On a 2-core
# VM a 512x512 box took 6.7-7.7 ms in 4 bands of this size on two threads,
# 7.3-8.0 ms in 2, 8.0-8.9 ms in 8 and 10.3-11.0 ms in 16. An explored map's
# box, such as 440x86, is one band, inline: split in 64-row bands on two
# threads it took 4.8-5.0 ms against 2.4-2.9 ms, the threads waiting on the
# interpreter lock between the kernel's many short numpy calls.
_BAND_CELLS = 1 << 16

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
    box = m0, m1, n0, n1 = height.window(rows, cols)
    values = np.empty((m1 - m0, n1 - n0))

    def band(r: slice, c: slice) -> None:
        values[r.start - m0:r.stop - m0] = _uav_block(
            vmap, height, r.start, r.stop, c.start, c.stop, min_occupancy)

    run_bands(band, box, max(1, _BAND_CELLS // max(1, n1 - n0)))
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
    k = height.block(m0, m1, n0, n1, 1)
    present = k[0] >= 0
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
    """uav_cell_value over the box of present cells grown by one; every
    other cell has no present 8-neighbour and reads -1."""
    if not (0.0 < min_occupancy <= 1.0):
        raise ValueError(f"min_occupancy must be in (0, 1], got {min_occupancy}")
    if vmap.extent[:2] != height.extent:
        raise ValueError(f"voxel extent {vmap.extent} does not match height "
                         f"extent {height.extent}")
    M, N = height.extent
    box = nonzero_box(height.floor_k >= 0)
    if box is None:
        values = np.full((M, N), -1.0)
    else:  # the box's values padded with -1: every cell is written once
        rows, cols = grow(box, 1, M, N)
        values = np.pad(uav_cell_value(vmap, height, rows, cols, min_occupancy),
                        ((rows.start, M - rows.stop), (cols.start, N - cols.stop)),
                        constant_values=-1.0)
    return OccupancyGrid("uav", height.resolution, height.origin, values)


def build_ugv_map(uav: OccupancyGrid, slope: SlopeMap, max_slope: float) -> OccupancyGrid:
    """ugv_values over the whole extent."""
    if uav.kind != "uav":
        raise ValueError(f"expected a uav grid, got kind {uav.kind!r}")
    if max_slope <= 0:
        raise ValueError(f"max_slope must be positive, got {max_slope}")
    return OccupancyGrid("ugv", uav.resolution, uav.origin,
                         ugv_values(uav.values, slope.values, max_slope))
