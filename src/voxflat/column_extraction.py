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

    def face_index(self, z: np.ndarray) -> np.ndarray:
        """Nearest voxel-face index of heights z as int64; NaN reads -1.

        Heights built by `set_faces` come back exactly; others (a hand-built
        map) snap to the nearest face.
        """
        k = np.rint((z - self.origin[2]) / self.resolution)
        return np.where(np.isnan(k), -1, k).astype(np.int64)


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
