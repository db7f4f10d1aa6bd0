"""Least-squares floor-plane fitting and the per-cell slope magnitude map.

Each cell's slope is the gradient magnitude of the plane fitted to the floors
of the present cells in the (2r+1)² Chebyshev window around it, sampled at
cell centers. The fit runs on voxel-face indices: a floor is
`origin_z + k*res` with integer k, and cell centers sit on integer (m, n), so
the gradient in meters per meter equals the gradient of k over (m, n) and the
resolution cancels. A floor that is not on a voxel face (a hand-built
`HeightMap`) is snapped to the nearest face by `HeightMap.face_index`, the
snap the aerial-map kernel uses too.

The nine window sums the fit needs (count, Σm, Σn, Σk, Σm², Σmn, Σn², Σmk,
Σnk) are int64 box sums taken from summed-area tables (Crow, SIGGRAPH 1984),
and the count-scaled centered moments are formed exactly in integers. Only
the final division, `hypot` and degeneracy test run in float64, elementwise.
An exact sum has no summation order, so any window of the map gives the same
bits as the full map: `init()` and `update()` share `slope_at`, and rebuild
equivalence holds by construction. An exact plane reads exactly, so a flat
floor has slope 0.0 and a 2:1 ramp has slope 2.0.

`fit_plane` is the float fit on arbitrary samples, kept as the oracle the
kernel is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .column_extraction import HeightMap

# A normal system whose condition estimate exceeds this is treated as
# degenerate (collinear or near-collinear sample layout).
_MAX_CONDITION = 1e12

# Output rows per kernel pass; bounds the kernel's temporaries to a few MB.
_BAND_ROWS = 64


class PlaneFit(NamedTuple):
    a: float  # slope along x, meters per meter
    b: float  # slope along y
    c: float  # offset, meters


def fit_plane(samples: Sequence[tuple[float, float, float]]) -> PlaneFit | None:
    """Least-squares plane through (x, y, z) samples, or None if degenerate.

    Minimizes sum((a*x + b*y + c - z)^2). The normal equations are solved in
    mean-centered coordinates, which gives the same minimizer but keeps the
    solve well conditioned for maps far from the world origin; degeneracy
    (fewer than 3 samples, collinear layout, condition estimate above 1e12)
    yields None rather than a garbage plane.
    """
    n = len(samples)
    if n < 3:
        return None
    mx = sum(s[0] for s in samples) / n
    my = sum(s[1] for s in samples) / n
    mz = sum(s[2] for s in samples) / n
    cxx = cxy = cyy = cxz = cyz = 0.0
    for x, y, z in samples:
        dx = x - mx
        dy = y - my
        dz = z - mz
        cxx += dx * dx
        cxy += dx * dy
        cyy += dy * dy
        cxz += dx * dz
        cyz += dy * dz
    # Eigenvalues of the centered 2x2 normal matrix bound its conditioning.
    trace = cxx + cyy
    disc = math.sqrt(max((cxx - cyy) * (cxx - cyy) + 4.0 * cxy * cxy, 0.0))
    lam_min = (trace - disc) / 2.0
    lam_max = (trace + disc) / 2.0
    if lam_min <= 0.0 or lam_max > lam_min * _MAX_CONDITION:
        return None
    det = cxx * cyy - cxy * cxy
    a = (cyy * cxz - cxy * cyz) / det
    b = (cxx * cyz - cxy * cxz) / det
    return PlaneFit(a, b, mz - a * mx - b * my)


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
    bit for bit, whatever the window.
    """
    if radius < 1:
        raise ValueError(f"neighborhood radius must be >= 1, got {radius}")
    M, N = height.extent
    m0, m1, _ = rows.indices(M)
    n0, n1, _ = cols.indices(N)
    m1 = max(m0, m1)
    n1 = max(n0, n1)
    values = np.full((m1 - m0, n1 - n0), np.nan)
    degenerate = np.zeros(values.shape, dtype=bool)
    present = ~np.isnan(height.floor[m0:m1, n0:n1])
    pm = np.flatnonzero(present.any(axis=1))
    pn = np.flatnonzero(present.any(axis=0))
    if not len(pm):
        return values, degenerate
    # Only the bounding box of present cells has output; absent cells outside
    # it read NaN already.
    c0, c1 = n0 + int(pn[0]), n0 + int(pn[-1]) + 1
    for b0 in range(m0 + int(pm[0]), m0 + int(pm[-1]) + 1, _BAND_ROWS):
        b1 = min(b0 + _BAND_ROWS, m0 + int(pm[-1]) + 1)
        out_v, out_d = _kernel(height, b0, b1, c0, c1, radius)
        values[b0 - m0:b1 - m0, c0 - n0:c1 - n0] = out_v
        degenerate[b0 - m0:b1 - m0, c0 - n0:c1 - n0] = out_d
    return values, degenerate


def _kernel(height: HeightMap, m0: int, m1: int, n0: int, n1: int,
            r: int) -> tuple[np.ndarray, np.ndarray]:
    """Slope and degeneracy of the output block [m0, m1) x [n0, n1).

    The block's floors, grown by r on every side and zero-padded past the
    map edge, become face indices k and feed nine summed-area tables; each
    (2r+1)² box sum is four table reads. Absent cells contribute 0 to every
    moment. Coordinates are local to the padded block: the centered moments
    are translation invariant and exact, so the origin changes no bit. Table
    entries may wrap in int64, but box sums and moments are exact modulo
    2**64, so every one whose true value fits in int64 is exact.
    """
    M, N = height.extent
    h, w = m1 - m0, n1 - n0
    H, W = h + 2 * r, w + 2 * r
    src = height.floor[max(0, m0 - r):min(M, m1 + r), max(0, n0 - r):min(N, n1 + r)]
    top, left = max(0, r - m0), max(0, r - n0)  # zero rows/columns of padding
    inside = (slice(top, top + src.shape[0]), slice(left, left + src.shape[1]))
    ok = ~np.isnan(src)
    p = np.zeros((H, W), dtype=np.int64)
    p[inside] = ok
    kk = np.zeros((H, W), dtype=np.int64)
    kk[inside] = np.where(ok, height.face_index(src), 0)
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
    cxx = c * smm - sm * sm
    cxy = c * smn - sm * sn
    cyy = c * snn - sn * sn
    cxz = c * smk - sm * sk
    cyz = c * snk - sn * sk
    det = cxx * cyy - cxy * cxy
    num_a = cyy * cxz - cxy * cyz
    num_b = cxx * cyz - cxy * cxz
    # Condition estimate lam_max / lam_min = lam_max² / det of the centered
    # normal matrix, from the exact integer moments.
    lam_max = ((cxx + cyy) + np.sqrt((cxx - cyy) ** 2 + 4 * cxy * cxy)) / 2.0
    degenerate = (c < 3) | (det == 0) | (lam_max * lam_max > _MAX_CONDITION * det)
    safe = np.where(degenerate, 1, det)
    slope = np.hypot(num_a / safe, num_b / safe)
    present = p[r:r + h, r:r + w].astype(bool)
    values = np.where(present, np.where(degenerate, 0.0, slope), np.nan)
    return values, present & degenerate


def build_slope_map(height: HeightMap, radius: int) -> SlopeMap:
    """slope_at over the whole extent; degenerate fits become flagged zeros."""
    M, N = height.extent
    values, degenerate = slope_at(height, slice(0, M), slice(0, N), radius)
    return SlopeMap(height.resolution, height.origin, values, degenerate, radius)
