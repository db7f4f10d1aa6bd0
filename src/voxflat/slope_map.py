"""Least-squares floor-plane fitting and the per-cell slope magnitude map.

Each cell's slope is the gradient magnitude of the plane fitted to the floors
of the present cells in the (2r+1)² Chebyshev window around it, sampled at
cell centers. The fit runs on the stored voxel-face indices: a floor is
`origin_z + k*res` with integer k, and cell centers sit on integer (m, n), so
the gradient in meters per meter equals the gradient of k over (m, n) and the
resolution cancels.

The nine window sums the fit needs (count, Σm, Σn, Σk, Σm², Σmn, Σn², Σmk,
Σnk) are `column_extraction.window_reduce` additions, first along n and then
along m, over one flat buffer of the nine moment planes: no summed-area
table, and no intermediate exceeds its window's sum. The sums and the
count-scaled centered moments formed from them are exact integers, in int32
where the bound in `_kernel` allows and in int64 otherwise. The moments'
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
`build_slope_map` takes that box from `HeightMap.present_box`, which a built
map holds already, so it scans no plane of the extent for it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .column_extraction import HeightMap, check_positive_int, pad_block, run_bands, window_reduce
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
    not a count >= 1 (a bool or a float included) raises ValueError.
    """
    window = m0, m1, n0, n1 = height.window(rows, cols)
    return _fit(height, window, nonzero_box(height.floor_k[m0:m1, n0:n1] >= 0), radius)


def _fit(height: HeightMap, window: tuple[int, int, int, int],
         box: tuple[int, int, int, int] | None, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and flags of the window (m0, m1, n0, n1), fitted in bands over
    `box`, the bounding box of its present cells in window coordinates (None
    when it has none); absent cells outside the box read NaN already."""
    check_positive_int(radius, "neighborhood radius")
    radius = min(radius, max(height.extent))
    m0, m1, n0, n1 = window
    values = np.full((m1 - m0, n1 - n0), np.nan)
    degenerate = np.zeros(values.shape, dtype=bool)

    def band(r: slice, c: slice) -> None:
        values[r, c], degenerate[r, c] = _kernel(
            height, m0 + r.start, m0 + r.stop, n0 + c.start, n0 + c.stop, radius)

    run_bands(band, box, _BAND_ROWS)
    return values, degenerate


def _kernel(height: HeightMap, m0: int, m1: int, n0: int, n1: int,
            r: int) -> tuple[np.ndarray, np.ndarray]:
    """Slope and degeneracy of the output block [m0, m1) x [n0, n1).

    The block's floor faces, grown by r on every side by `pad_block` to
    H x W cells, give nine moment planes, laid one after another in one
    flat buffer; absent cells contribute 0 to every moment. Coordinates are
    local to the grown block: the centered moments are translation
    invariant and exact, so the origin changes no bit. `window_reduce` adds
    over the flat buffer with steps of 1 (along n) and W (along m), so a sum
    that crosses into the next row or plane lands past column W - d or row
    H - d, which the output drops; those of the last plane run into the
    buffer's zeroed tail, which the two passes use up.

    With d = 2r+1 and X = max(H, W, max face + 1), every coordinate is below
    X, so each window sum and each product of two of them, such as c * Σm²,
    is below d**4 * X**2. The integer work runs in int32 when that is below
    2**31 and in int64 otherwise; either way it is exact. The centered
    moments' products can leave int64 from radius 28, so they are taken in
    float64.
    """
    fk, = pad_block(m0, m1, n0, n1, r, height.floor_k)
    H, W = fk.shape
    d = 2 * r + 1
    X = max(H, W, int(fk.max()) + 1)
    dtype = np.int32 if d ** 4 * X ** 2 < 2 ** 31 else np.int64
    size = 9 * H * W
    flat = np.empty(size + (d - 1) * (W + 1), dtype=dtype)
    flat[size:] = 0
    # The planes p, m·p, n·p, k·p, m·m·p, m·n·p, m·k·p, n·n·p, n·k·p, with p
    # 1 at present cells and 0 at absent ones.
    moments = flat[:size].reshape(9, H, W)
    present = fk >= 0
    moments[0] = present
    m = np.arange(H, dtype=dtype)[:, None]
    n = np.arange(W, dtype=dtype)
    np.multiply(m, moments[0], out=moments[1])
    np.multiply(n, moments[0], out=moments[2])
    np.multiply(fk, moments[0], out=moments[3])
    np.multiply(m, moments[1:4], out=moments[4:7])
    np.multiply(n, moments[2:4], out=moments[7:9])
    sums = window_reduce(window_reduce(flat, d, operator.add), d, operator.add, W)
    sums = sums.reshape(9, H, W)[:, :H - 2 * r, :W - 2 * r]
    c, sm, sn = sums[:3]
    # Count-scaled centered moments c*Σm² - (Σm)², c*Σmn - ΣmΣn, ..., in the
    # order of the last five planes.
    centered = c * sums[4:9]
    centered[:3] -= sm * sums[1:4]
    centered[3:] -= sn * sums[2:4]
    cxx, cxy, cxz, cyy, cyz = centered.astype(np.float64)
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
    """slope_at's fit over the whole extent, on the map's `present_box`;
    degenerate fits become flagged zeros."""
    M, N = height.extent
    values, degenerate = _fit(height, (0, M, 0, N), height.present_box, radius)
    return SlopeMap(height.resolution, height.origin, values, degenerate, radius)
