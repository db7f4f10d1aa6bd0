"""Least-squares floor-plane fitting and the per-cell slope magnitude map.

Each cell's slope is the gradient magnitude of the plane fitted to the floors
of the present cells in the (2r+1)² Chebyshev window around it, sampled at
cell centers. The fit runs on the stored voxel-face indices: a floor is
`origin_z + k*res` with integer k, and cell centers sit on integer (m, n), so
the gradient in meters per meter equals the gradient of k over (m, n) and the
resolution cancels.

The nine window sums the fit needs (count, Σm, Σn, Σk, Σm², Σmn, Σn², Σmk,
Σnk) are int64 box sums taken from summed-area tables (Crow, SIGGRAPH 1984),
and the count-scaled centered moments are formed exactly in integers. Their
products (the determinant and the two numerators of the gradient), the
final division, `hypot` and the degeneracy test run in float64, elementwise:
the products are exact while each stays below 2**53, as at the default
radius, and past that they round instead of wrapping. Every step is a
function of one cell's exact sums, with no summation order, so any window of
the map gives the same bits as the full map: `init()` and `update()` share
`slope_at`, and rebuild equivalence holds by construction. An exact plane
reads exactly, so a flat floor has slope 0.0 and a 2:1 ramp has slope 2.0.

`slope_at` fits the window's present-cell box in bands of _BAND_ROWS output
rows through `column_extraction.run_bands`: a full build's bands run on its
thread pool, and an update's window, one band, runs on the caller's thread.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .column_extraction import HeightMap, check_positive_int, run_bands
from .voxel_store import nonzero_box

# A normal system whose condition estimate exceeds this is treated as
# degenerate (collinear or near-collinear sample layout).
_MAX_CONDITION = 1e12

# Output rows per kernel pass; bounds the kernel's temporaries to a few MB.
_BAND_ROWS = 64


@dataclass
class SlopeMap:
    """Per-cell slope magnitude; NaN where the height cell is absent.

    Cells where the plane fit was degenerate carry slope 0 and are flagged,
    so they stay navigable downstream instead of blocking frontier cells.
    """

    resolution: float
    origin: tuple[float, float, float]
    values: np.ndarray
    degenerate: np.ndarray
    neighborhood_cells: int

    @property
    def extent(self) -> tuple[int, int]:
        return self.values.shape


def slope_at(height: HeightMap, rows: slice, cols: slice,
             radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and degeneracy flags of the window `floor[rows, cols]`.

    Absent cells read NaN and unflagged; degenerate fits read 0.0 and
    flagged. The window's values equal the same cells of `build_slope_map`
    bit for bit, whatever the window. A radius beyond max(M, N) reads the
    whole map from every cell, so it is read as max(M, N). A radius that is
    not an int >= 1 (a bool or a float included) raises ValueError.
    """
    check_positive_int(radius, "neighborhood radius")
    radius = min(radius, max(height.extent))
    m0, m1, n0, n1 = height.window(rows, cols)
    values = np.full((m1 - m0, n1 - n0), np.nan)
    degenerate = np.zeros(values.shape, dtype=bool)

    def band(r: slice, c: slice) -> None:
        values[r, c], degenerate[r, c] = _kernel(
            height, m0 + r.start, m0 + r.stop, n0 + c.start, n0 + c.stop, radius)

    # Only the bounding box of present cells has output; absent cells outside
    # it read NaN already.
    run_bands(band, nonzero_box(height.floor_k[m0:m1, n0:n1] >= 0), _BAND_ROWS)
    return values, degenerate


def _kernel(height: HeightMap, m0: int, m1: int, n0: int, n1: int,
            r: int) -> tuple[np.ndarray, np.ndarray]:
    """Slope and degeneracy of the output block [m0, m1) x [n0, n1).

    The block's floor faces, grown by r on every side by `HeightMap.block`,
    feed nine summed-area tables; each (2r+1)² box sum is four table reads.
    Absent cells contribute 0 to every moment. Coordinates are local to the
    grown block: the centered moments are translation invariant and exact,
    so the origin changes no bit. Table entries may wrap in int64, but box
    sums and centered moments are exact modulo 2**64, so every one whose true
    value fits in int64 is exact. The centered moments' products can leave
    int64 from radius 28, so they are taken in float64.
    """
    faces = height.block(m0, m1, n0, n1, r)
    present = faces[0] >= 0
    H, W = present.shape
    p = present.astype(np.int64)
    kk = faces[0] * p
    mm = np.arange(H, dtype=np.int64)[:, None] * p
    nn = np.arange(W, dtype=np.int64)[None, :] * p
    # Summed-area tables of the nine moments, with a leading row and column
    # of zeros so that every box sum is four plain slices.
    table = np.zeros((9, H + 1, W + 1), dtype=np.int64)
    for i, moment in enumerate((p, mm, nn, kk, mm * mm, mm * nn, nn * nn,
                                mm * kk, nn * kk)):
        table[i, 1:, 1:] = moment
    np.cumsum(table, axis=1, out=table)
    np.cumsum(table, axis=2, out=table)
    d = 2 * r + 1
    s = (table[:, d:, d:] - table[:, :-d, d:]
         - table[:, d:, :-d] + table[:, :-d, :-d])
    c, sm, sn, sk, smm, smn, snn, smk, snk = s
    cxx = (c * smm - sm * sm).astype(np.float64)
    cxy = (c * smn - sm * sn).astype(np.float64)
    cyy = (c * snn - sn * sn).astype(np.float64)
    cxz = (c * smk - sm * sk).astype(np.float64)
    cyz = (c * snk - sn * sk).astype(np.float64)
    det = cxx * cyy - cxy * cxy
    num_a = cyy * cxz - cxy * cyz
    num_b = cxx * cyz - cxy * cxz
    # Condition estimate lam_max / lam_min = lam_max² / det of the centered
    # normal matrix, from the exact moments.
    lam_max = ((cxx + cyy) + np.sqrt((cxx - cyy) ** 2 + 4 * cxy * cxy)) / 2.0
    degenerate = (c < 3) | (det == 0) | (lam_max * lam_max > _MAX_CONDITION * det)
    safe = np.where(degenerate, 1, det)
    slope = np.hypot(num_a / safe, num_b / safe)
    present = present[r:H - r, r:W - r]
    values = np.where(present, np.where(degenerate, 0.0, slope), np.nan)
    return values, present & degenerate


def build_slope_map(height: HeightMap, radius: int) -> SlopeMap:
    """slope_at over the whole extent; degenerate fits become flagged zeros."""
    M, N = height.extent
    values, degenerate = slope_at(height, slice(0, M), slice(0, N), radius)
    return SlopeMap(height.resolution, height.origin, values, degenerate, radius)
