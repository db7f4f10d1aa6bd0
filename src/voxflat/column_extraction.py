"""The 2D height map, by integer run detection along voxel columns.

A free run of L voxels is navigable when L >= `ConversionParams.min_run(res)`,
the robot's vertical clearance in whole voxels. A column's floor is the
bottom face of its lowest kept run and its ceiling the top face of its
highest, as voxel-face indices (floor_k, ceil_k); the map stores them in
meters as `origin_z + k*res`. `convert_column` finds both indices for any
(..., K) stack of columns with whole-array operations, so `build_height_map`
(every column, in row bands) and `update()` (the written columns) run the
same code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .voxel_store import VoxelMap, VoxelState

# Voxels per convert_column pass in build_height_map; bounds its int32
# temporaries to a few MB.
_BAND_VOXELS = 1 << 18

# A plain int: numpy compares an array with an IntEnum member much slower.
_FREE = int(VoxelState.FREE)


def convert_column(columns: np.ndarray, min_run: int) -> tuple[np.ndarray, np.ndarray]:
    """Floor and ceiling face indices of every column of a (..., K) stack.

    A free run is kept when it is at least min_run voxels long. floor_k is
    the bottom of the lowest kept run and ceil_k the top (one past the last
    voxel) of the highest; both read -1 where no run is kept.

    A run is kept exactly when some window of min_run voxels inside it is
    all free, so the lowest all-free window starts at the floor and the
    highest ends at the ceiling. Window sums come from a prefix count of
    free voxels along k.
    """
    if not isinstance(min_run, (int, np.integer)) or min_run < 1:
        raise ValueError(f"min_run must be an int >= 1, got {min_run!r}")
    *lead, K = columns.shape
    if min_run > K:
        return np.full(lead, -1), np.full(lead, -1)
    count = np.zeros((*lead, K + 1), dtype=np.int32)
    (columns == _FREE).cumsum(axis=-1, out=count[..., 1:])
    window = count[..., min_run:] - count[..., :-min_run] == min_run
    found = window.any(axis=-1)
    floor_k = np.where(found, window.argmax(axis=-1), -1)
    ceil_k = np.where(found, K - window[..., ::-1].argmax(axis=-1), -1)
    return floor_k, ceil_k


@dataclass
class HeightMap:
    """Per-cell optional floor/ceiling heights, NaN marking absent cells."""

    resolution: float
    origin: tuple[float, float, float]
    floor: np.ndarray
    ceiling: np.ndarray

    @property
    def extent(self) -> tuple[int, int]:
        return self.floor.shape

    @property
    def present_mask(self) -> np.ndarray:
        return ~np.isnan(self.floor)

    def set_faces(self, index, floor_k: np.ndarray, ceil_k: np.ndarray) -> None:
        """Store face indices at `index` as `origin_z + k*res`; -1 stores NaN."""
        oz, res = self.origin[2], self.resolution
        self.floor[index] = np.where(floor_k < 0, np.nan, oz + floor_k * res)
        self.ceiling[index] = np.where(ceil_k < 0, np.nan, oz + ceil_k * res)

    def window(self, rows: slice, cols: slice) -> tuple[int, int, int, int]:
        """Bounds (m0, m1, n0, n1) of the cells [rows, cols], clipped to the map."""
        m0, m1, _ = rows.indices(self.extent[0])
        n0, n1, _ = cols.indices(self.extent[1])
        return m0, max(m0, m1), n0, max(n0, n1)

    def present_box(self, m0: int, m1: int, n0: int,
                    n1: int) -> tuple[int, int, int, int] | None:
        """Bounds (r0, r1, c0, c1) of the present cells in a window, or None."""
        present = ~np.isnan(self.floor[m0:m1, n0:n1])
        rows = np.flatnonzero(present.any(axis=1))
        if not rows.size:
            return None
        cols = np.flatnonzero(present.any(axis=0))
        return (m0 + int(rows[0]), m0 + int(rows[-1]) + 1,
                n0 + int(cols[0]), n0 + int(cols[-1]) + 1)

    def block(self, m0: int, m1: int, n0: int, n1: int,
              halo: int) -> tuple[np.ndarray, np.ndarray]:
        """Floor and ceiling faces, int64 (2, h, w), and the (h, w) presence
        mask of [m0, m1) x [n0, n1) grown by halo cells on every side. Heights
        snap to the nearest face; absent cells and cells past the edge read -1,
        but presence comes from NaN: hand-built faces may lie below origin_z."""
        M, N = self.extent
        i0, j0 = m0 - halo, n0 - halo  # the grown block's first row and column
        a0, a1, b0, b1 = max(0, i0), min(M, m1 + halo), max(0, j0), min(N, n1 + halo)
        z = np.full((2, m1 + halo - i0, n1 + halo - j0), np.nan)
        z[0, a0 - i0:a1 - i0, b0 - j0:b1 - j0] = self.floor[a0:a1, b0:b1]
        z[1, a0 - i0:a1 - i0, b0 - j0:b1 - j0] = self.ceiling[a0:a1, b0:b1]
        present = ~np.isnan(z[0])
        np.rint((z - self.origin[2]) / self.resolution, out=z)
        z[np.isnan(z)] = -1
        return z.astype(np.int64), present

    def gather(self, m: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Floors and ceilings in meters at integer cell arrays of one shape;
        a cell off the map or without a floor reads NaN in both."""
        M, N = self.extent
        inside = (m >= 0) & (m < M) & (n >= 0) & (n < N)
        m, n = np.where(inside, m, 0), np.where(inside, n, 0)
        floor = np.where(inside, self.floor[m, n], np.nan)
        return floor, np.where(np.isnan(floor), np.nan, self.ceiling[m, n])


def build_height_map(vmap: VoxelMap, min_run: int) -> HeightMap:
    """convert_column over every observed column, in bands of whole rows.

    Only the bounding box of columns holding any voxel is read; columns
    outside it have no free run, and their cells stay absent.
    """
    M, N, K = vmap.extent
    height = HeightMap(vmap.resolution, vmap.origin, np.full((M, N), np.nan),
                       np.full((M, N), np.nan))
    states = vmap.states
    observed = states.any(axis=2)
    om = np.flatnonzero(observed.any(axis=1))
    on = np.flatnonzero(observed.any(axis=0))
    if not len(om):
        return height
    cols = slice(int(on[0]), int(on[-1]) + 1)
    rows = max(1, _BAND_VOXELS // ((cols.stop - cols.start) * K))
    for m0 in range(int(om[0]), int(om[-1]) + 1, rows):
        band = (slice(m0, min(m0 + rows, int(om[-1]) + 1)), cols)
        height.set_faces(band, *convert_column(states[band], min_run))
    return height
