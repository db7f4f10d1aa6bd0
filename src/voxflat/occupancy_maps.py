"""UAV and UGV occupancy grids, each one array rule applied to a window.

Cells with a navigable span (a height cell) are free (0). A boundary cell,
one without a span but with a present 8-neighbour, counts its occupied voxels
inside each present neighbour's [floor_k, ceil_k) span with a prefix sum
along k, and divides by the span's length in voxels. The largest ratio over
neighbours is its value when it reaches min_occupancy; below that, and on
cells with no present neighbour, the value is unknown (-1). `uav_cell_value`
computes this for any window of the map, and `update()` for the dirty columns
grown by one cell. `build_uav_map` fills its grid with -1 and writes the
kernel's bands straight into it, on the bounding box of the present cells
(`HeightMap.present_box`) grown by one cell: no cell outside that box has a
present neighbour. The grid keeps that box as its `known_box`. A window is
computed in bands of whole rows holding about _BAND_CELLS cells through
`column_extraction.run_bands`, so a fully observed map's bands run on its
thread pool, and an explored map's box or an update's window, one band, on
the caller's thread.

The ground-robot grid is the aerial grid with free cells steeper than the
traversable slope made fully occupied: `ugv_values`, one elementwise rule
for the full build, which writes it straight into the aerial grid's
`known_box` of a -1 grid, and for every update window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .column_extraction import HeightMap, grow, pad_block, run_bands
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

    @cached_property
    def known_box(self) -> tuple[int, int, int, int] | None:
        """A box (m0, m1, n0, n1) outside which every value is -1, None when
        every value is: the bounding box of the other cells when found on
        first read, or the box `build_uav_map` wrote. Dropped by set_values."""
        return nonzero_box(self.values != -1.0)

    def set_values(self, index, values: np.ndarray) -> None:
        """Store values at `index`."""
        self.values[index] = values
        self.__dict__.pop("known_box", None)


def uav_cell_value(vmap: VoxelMap, height: HeightMap, rows: slice, cols: slice,
                   min_occupancy: float) -> np.ndarray:
    """Aerial-map values of the window `[rows, cols]`.

    Reads the heights one cell beyond the window and the voxels of its own
    boundary cells only, so any window equals the same cells of
    `build_uav_map` bit for bit.
    """
    box = m0, m1, n0, n1 = height.window(rows, cols)
    values = np.empty((m1 - m0, n1 - n0))
    _write_uav(values, vmap, height, box, min_occupancy)
    return values


def _write_uav(out: np.ndarray, vmap: VoxelMap, height: HeightMap,
               box: tuple[int, int, int, int], min_occupancy: float) -> None:
    """Aerial values of the box (m0, m1, n0, n1) into `out`, an array of its
    shape, in bands of whole rows through `run_bands`."""
    m0, _, n0, n1 = box

    def band(r: slice, c: slice) -> None:
        out[r.start - m0:r.stop - m0] = _uav_block(
            vmap, height, r.start, r.stop, c.start, c.stop, min_occupancy)

    run_bands(band, box, max(1, _BAND_CELLS // max(1, n1 - n0)))


def _uav_block(vmap: VoxelMap, height: HeightMap, m0: int, m1: int, n0: int,
               n1: int, min_occupancy: float) -> np.ndarray:
    """Aerial values of the block [m0, m1) x [n0, n1).

    The block's floor and ceiling faces, grown by one cell by `pad_block`,
    give every boundary cell's eight neighbour spans at once. A span's
    length is taken as given; the part of it outside [0, K) counts no
    occupied voxels (voxels there are Unknown).
    """
    K = vmap.extent[2]
    k = pad_block(m0, m1, n0, n1, 1, height.floor_k, height.ceil_k)
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
               max_slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """Ground-map values: free cells steeper than max_slope become occupied.

    NaN slopes (absent cells) are never steep, and degenerate-fit cells carry
    slope 0, so they stay free by design. The values are written into `out`,
    an array of the windows' shape, or a new array when it is None, and
    returned: the aerial values, then 1 on the steep cells.
    """
    steep = (uav_values == 0.0) & (slope_values > max_slope)
    if out is None:
        out = np.array(uav_values, dtype=np.float64)
    else:
        np.copyto(out, uav_values)
    np.copyto(out, 1.0, where=steep)
    return out


def build_uav_map(vmap: VoxelMap, height: HeightMap,
                  min_occupancy: float) -> OccupancyGrid:
    """uav_cell_value, written in place, over the map's `present_box` grown
    by one; every other cell has no present 8-neighbour and reads -1."""
    if not (0.0 < min_occupancy <= 1.0):
        raise ValueError(f"min_occupancy must be in (0, 1], got {min_occupancy}")
    if vmap.extent[:2] != height.extent:
        raise ValueError(f"voxel extent {vmap.extent} does not match height "
                         f"extent {height.extent}")
    M, N = height.extent
    values = np.full((M, N), -1.0)
    grid = OccupancyGrid("uav", height.resolution, height.origin, values)
    box = height.present_box
    if box is not None:
        rows, cols = grow(box, 1, M, N)
        box = rows.start, rows.stop, cols.start, cols.stop
        _write_uav(values[rows, cols], vmap, height, box, min_occupancy)
    grid.known_box = box
    return grid


def build_ugv_map(uav: OccupancyGrid, slope: SlopeMap, max_slope: float) -> OccupancyGrid:
    """ugv_values over the aerial grid's `known_box`; outside it UGV equals
    UAV, -1. A slope map of another extent, or a max_slope that is not
    finite and positive, raises ValueError."""
    if uav.kind != "uav":
        raise ValueError(f"expected a uav grid, got kind {uav.kind!r}")
    if slope.extent != uav.extent:
        raise ValueError(f"slope extent {slope.extent} does not match uav "
                         f"extent {uav.extent}")
    if not 0 < max_slope < math.inf:  # NaN fails both comparisons
        raise ValueError(f"max_slope must be positive and finite, got {max_slope}")
    values = np.full(uav.extent, -1.0)
    box = uav.known_box
    if box is not None:
        m0, m1, n0, n1 = box
        box = slice(m0, m1), slice(n0, n1)
        ugv_values(uav.values[box], slope.values[box], max_slope, out=values[box])
    return OccupancyGrid("ugv", uav.resolution, uav.origin, values)
