"""Independent oracles and small builders the tests compare against.

Everything here deliberately avoids the library's own computation paths:
the column, occupancy and plane-fit rules are stated on float world-meter
ranges and samples, one column or cell at a time, where the library's kernels
work on integer voxel indices over whole windows; rasterization inverts range
extraction by painting voxels, the plane search is exhaustive, the grid
planner cost check is a plain Dijkstra and its path check the same A* over
(m, n) tuple keys, path lifting and clearance are per-waypoint loops, and
the VXG codec reads and writes the whole file at once.
"""
from __future__ import annotations

import contextlib
import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence
from unittest import mock

import numpy as np

from voxflat import (ColumnView, HeightMap, VoxelMap, VoxelState, VxgError,
                     VxgHeaderError, VxgRecordError, VxgTruncatedError, VxgVersionError)
from voxflat import voxel_store
from voxflat.occupancy_maps import NEIGHBORS_8
from voxflat.voxel_store import Cell, cell_center, fmt_float, header_fields


# -- float-meter column ranges: the height rule, one column at a time -------

class HeightRange(NamedTuple):
    low: float
    high: float


class HeightCell(NamedTuple):
    floor: float
    ceiling: float


@dataclass(frozen=True)
class ColumnRanges:
    """Ordered, disjoint, non-adjacent vertical ranges of one column."""

    free: tuple[HeightRange, ...]
    occupied: tuple[HeightRange, ...]

    def is_empty(self) -> bool:
        return not self.free and not self.occupied


def extract_ranges(view: ColumnView, resolution: float, origin_z: float) -> ColumnRanges:
    """Convert a column's runs to world-meter ranges; Unknown yields nothing.

    A run starting at index z0 with length L spans the voxel faces
    [origin_z + z0*res, origin_z + (z0+L)*res], so range heights are exact
    voxel-count multiples of the resolution.
    """
    free: list[HeightRange] = []
    occupied: list[HeightRange] = []
    for z0, length, state in view.runs:
        if state == VoxelState.UNKNOWN:
            continue
        rng = HeightRange(origin_z + z0 * resolution,
                          origin_z + (z0 + length) * resolution)
        if state == VoxelState.FREE:
            free.append(rng)
        else:
            occupied.append(rng)
    return ColumnRanges(tuple(free), tuple(occupied))


def filter_free_ranges(ranges: ColumnRanges, min_clearance: float) -> ColumnRanges:
    """Drop free ranges shorter than min_clearance; occupied pass through.

    Exactly threshold-tall ranges are kept (removal uses a strict less-than).
    A range's height is a difference of origin_z + k*res terms, so an exactly
    threshold-tall range can land a few ulps below the threshold; a 1e-9 m
    tolerance keeps it.
    """
    if min_clearance <= 0:
        raise ValueError(f"min_clearance must be positive, got {min_clearance}")
    kept = tuple(r for r in ranges.free
                 if r.high - r.low >= min_clearance - 1e-9)
    return ColumnRanges(kept, ranges.occupied)


def height_from_ranges(ranges: ColumnRanges) -> HeightCell | None:
    """Floor = bottom of the first free range, ceiling = top of the last.

    Assumes a single level of navigable space; disjoint free ranges collapse
    into one floor-to-ceiling span. Returns None when no free range survives.
    """
    if not ranges.free:
        return None
    return HeightCell(ranges.free[0].low, ranges.free[-1].high)


# -- float-meter aerial rule, one cell at a time ----------------------------

def overlap_length(a: HeightRange, b: HeightRange) -> float:
    """Length of the overlap of two vertical ranges, 0 when disjoint."""
    return max(0.0, min(a.high, b.high) - max(a.low, b.low))


def occupancy_value(cell: Cell, occupied: tuple[HeightRange, ...],
                    height: HeightMap, free_mask: np.ndarray) -> float | None:
    """Max over free 8-neighbors of the occupied-overlap ratio, in [0, 1].

    For each free neighbor, the cell's occupied ranges are intersected with
    the neighbor's floor-to-ceiling span and the summed overlap is divided by
    that span's height. Ratios above 1 (obstacle taller than the neighboring
    navigable space) clamp to 1. Returns None when no 8-neighbor is free; a
    cell with no occupied ranges but a free neighbor yields 0.0.
    """
    m, n = cell
    M, N = height.extent
    floor = height.floor
    ceiling = height.ceiling
    best = None
    for dm, dn in NEIGHBORS_8:
        mm = m + dm
        nn = n + dn
        if not (0 <= mm < M and 0 <= nn < N) or not free_mask[mm, nn]:
            continue
        span = HeightRange(floor[mm, nn], ceiling[mm, nn])
        total = 0.0
        for r in occupied:
            total += overlap_length(span, r)
        ratio = total / (span.high - span.low)
        if ratio > 1.0:
            ratio = 1.0
        if best is None or ratio > best:
            best = ratio
    return best


# -- float plane fit on arbitrary samples -----------------------------------

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
    if lam_min <= 0.0 or lam_max > lam_min * 1e12:
        return None
    det = cxx * cyy - cxy * cxy
    a = (cyy * cxz - cxy * cyz) / det
    b = (cxx * cyz - cxy * cxz) / det
    return PlaneFit(a, b, mz - a * mx - b * my)


# -- builders and other oracles ---------------------------------------------


def rasterize_ranges(ranges: ColumnRanges, resolution: float, origin_z: float,
                     K: int) -> np.ndarray:
    """Paint free/occupied ranges back onto a voxel column."""
    col = np.zeros(K, dtype=np.uint8)
    for state, items in ((VoxelState.FREE, ranges.free),
                         (VoxelState.OCCUPIED, ranges.occupied)):
        for r in items:
            k0 = int(round((r.low - origin_z) / resolution))
            k1 = int(round((r.high - origin_z) / resolution))
            col[k0:k1] = int(state)
    return col


def plane_residual(samples, a: float, b: float, c: float) -> float:
    return sum((a * x + b * y + c - z) ** 2 for x, y, z in samples)


def best_grid_residual(samples, coeff_span: float = 2.0, c_span: float = 2.0,
                       steps: int = 21) -> float:
    """Smallest residual over an exhaustive (a, b, c) grid.

    a and b sweep [-coeff_span, coeff_span]; c sweeps that span around the
    sample mean height. The grid never looks at the fit under test.
    """
    pts = np.asarray(samples, dtype=float)
    coeffs = np.linspace(-coeff_span, coeff_span, steps)
    zbar = pts[:, 2].mean()
    offsets = np.linspace(zbar - c_span, zbar + c_span, steps)
    grid = np.stack(np.meshgrid(coeffs, coeffs, offsets, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    resid = (grid[:, 0:1] * pts[:, 0][None, :]
             + grid[:, 1:2] * pts[:, 1][None, :]
             + grid[:, 2:3] - pts[:, 2][None, :])
    return float((resid * resid).sum(axis=1).min())


_SQRT2 = math.sqrt(2.0)
_STEPS = ((-1, -1, _SQRT2), (-1, 0, 1.0), (-1, 1, _SQRT2), (0, -1, 1.0),
          (0, 1, 1.0), (1, -1, _SQRT2), (1, 0, 1.0), (1, 1, _SQRT2))


def plan_2d_reference(grid, start, goal):
    """plan_2d's search over (m, n) tuple keys, reading each neighbour's value
    from the 2D array and the heuristic through a function call. The library
    must return exactly this path, or None, for valid endpoints."""
    values = grid.values
    M, N = values.shape
    for name, (m, n) in (("start", start), ("goal", goal)):
        if not (0 <= m < M and 0 <= n < N) or values[m, n] != 0.0:
            raise ValueError(f"{name} cell ({m}, {n}) is not a free cell")
    start = (int(start[0]), int(start[1]))
    goal = (int(goal[0]), int(goal[1]))
    if start == goal:
        return [start]

    def heuristic(cell) -> float:
        dm = abs(cell[0] - goal[0])
        dn = abs(cell[1] - goal[1])
        return abs(dm - dn) + _SQRT2 * min(dm, dn)

    best_g = {start: 0.0}
    parent = {}
    heap = [(heuristic(start), *start)]
    done = set()
    while heap:
        f, m, n = heapq.heappop(heap)
        cell = (m, n)
        if cell in done:
            continue
        if cell == goal:
            path = [cell]
            while cell != start:
                cell = parent[cell]
                path.append(cell)
            path.reverse()
            return path
        done.add(cell)
        g = best_g[cell]
        for dm, dn, cost in _STEPS:
            mm = m + dm
            nn = n + dn
            if not (0 <= mm < M and 0 <= nn < N) or values[mm, nn] != 0.0:
                continue
            nxt = (mm, nn)
            ng = g + cost
            if nxt not in best_g or ng < best_g[nxt]:
                best_g[nxt] = ng
                parent[nxt] = cell
                heapq.heappush(heap, (ng + heuristic(nxt), mm, nn))
    return None


def dijkstra_cost(values: np.ndarray, start, goal) -> float | None:
    """Shortest 8-connected cost through free cells, no heuristic."""
    M, N = values.shape
    dist = {tuple(start): 0.0}
    heap = [(0.0, tuple(start))]
    seen = set()
    goal = tuple(goal)
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in seen:
            continue
        if cell == goal:
            return d
        seen.add(cell)
        m, n = cell
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                if dm == 0 and dn == 0:
                    continue
                mm, nn = m + dm, n + dn
                if not (0 <= mm < M and 0 <= nn < N) or values[mm, nn] != 0.0:
                    continue
                nd = d + (math.sqrt(2.0) if dm and dn else 1.0)
                if nd < dist.get((mm, nn), math.inf):
                    dist[(mm, nn)] = nd
                    heapq.heappush(heap, (nd, (mm, nn)))
    return None


def bfs_hops(values: np.ndarray, start, goal) -> int | None:
    """Minimum 8-connected hop count through free cells."""
    from collections import deque
    M, N = values.shape
    goal = tuple(goal)
    seen = {tuple(start)}
    queue = deque([(tuple(start), 0)])
    while queue:
        (m, n), hops = queue.popleft()
        if (m, n) == goal:
            return hops
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                mm, nn = m + dm, n + dn
                if (dm or dn) and 0 <= mm < M and 0 <= nn < N \
                        and values[mm, nn] == 0.0 and (mm, nn) not in seen:
                    seen.add((mm, nn))
                    queue.append(((mm, nn), hops + 1))
    return None


def make_height_map(floor_rows, ceiling_rows=None, resolution: float = 0.1,
                    origin=(0.0, 0.0, 0.0)) -> HeightMap:
    """HeightMap from nested lists; None marks absent cells."""
    floor = np.array([[np.nan if v is None else float(v) for v in row]
                      for row in floor_rows])
    if ceiling_rows is None:
        ceiling = np.where(np.isnan(floor), np.nan, floor + 3.0)
    else:
        ceiling = np.array([[np.nan if v is None else float(v) for v in row]
                            for row in ceiling_rows])
    return HeightMap(resolution, tuple(origin), floor, ceiling)


def random_column(rng: np.random.Generator, K: int) -> np.ndarray:
    """Random tri-state column biased toward contiguous structure."""
    col = np.zeros(K, dtype=np.uint8)
    pos = 0
    while pos < K:
        length = int(rng.integers(1, max(2, K // 3)))
        state = int(rng.integers(0, 3))
        col[pos:pos + length] = state
        pos += length
    return col


def column_from_array(arr: np.ndarray):
    """Wrap a raw state array as the single column of a 1x1 voxel map."""
    from voxflat import VoxelMap
    vm = VoxelMap(0.1, (0.0, 0.0, 0.0), (1, 1, len(arr)))
    updates = [(0, 0, k, VoxelState(int(v))) for k, v in enumerate(arr) if v]
    vm.apply_cells(updates)
    return vm.column(0, 0)


def states_equal(a, b) -> list[str]:
    """Compare two conversion states grid by grid; returns mismatch labels."""
    problems = []
    if not np.array_equal(a.height.floor, b.height.floor, equal_nan=True):
        problems.append("floor")
    if not np.array_equal(a.height.ceiling, b.height.ceiling, equal_nan=True):
        problems.append("ceiling")
    if not np.array_equal(a.slope.values, b.slope.values, equal_nan=True):
        problems.append("slope")
    if not np.array_equal(a.slope.degenerate, b.slope.degenerate):
        problems.append("slope degeneracy flags")
    if not np.array_equal(a.uav.values, b.uav.values):
        problems.append("uav")
    if not np.array_equal(a.ugv.values, b.ugv.values):
        problems.append("ugv")
    if a.ranges != b.ranges:
        problems.append("ranges")
    return problems


def lift_path_reference(path, height: HeightMap, lookahead: int, offset: float):
    """lift_path as a per-waypoint loop: max floor over the clipped window."""
    M, N = height.extent
    floors = []
    for idx, (m, n) in enumerate(path):
        if not (0 <= m < M and 0 <= n < N) or np.isnan(height.floor[m, n]):
            raise ValueError(f"waypoint {idx} at cell ({m}, {n}) has no height data")
        floors.append(float(height.floor[m, n]))
    out = []
    for i, (m, n) in enumerate(path):
        window = floors[max(0, i - lookahead):min(len(path), i + lookahead + 1)]
        x, y = cell_center(height.origin, height.resolution, m, n)
        out.append((x, y, max(window) + offset))
    return out


def enforce_clearance_reference(path, height: HeightMap, radius: float):
    """enforce_clearance as a loop over waypoints and the cells of the disc."""
    res = height.resolution
    ox, oy = height.origin[0], height.origin[1]
    M, N = height.extent
    reach = math.ceil(radius / res)
    offsets = [(dm, dn)
               for dm in range(-reach, reach + 1)
               for dn in range(-reach, reach + 1)
               if math.hypot(dm, dn) * res <= radius * (1.0 + 1e-12)]
    out = []
    for idx, (x, y, z) in enumerate(path):
        m = int(math.floor((x - ox) / res))
        n = int(math.floor((y - oy) / res))
        if not (0 <= m < M and 0 <= n < N):
            raise ValueError(f"waypoint {idx} at ({x}, {y}, {z}) is off the map")
        max_floor = -math.inf
        min_ceiling = math.inf
        for dm, dn in offsets:
            mm, nn = m + dm, n + dn
            if not (0 <= mm < M and 0 <= nn < N):
                continue
            f = height.floor[mm, nn]
            if f == f:  # NaN check
                max_floor = max(max_floor, float(f))
                min_ceiling = min(min_ceiling, float(height.ceiling[mm, nn]))
        if max_floor == -math.inf:
            raise ValueError(f"waypoint {idx} at ({x}, {y}, {z}) has no height "
                             f"cell within clearance radius {radius}")
        lo = max_floor + radius
        hi = min_ceiling - radius
        if lo > hi:
            raise ValueError(
                f"waypoint {idx}: navigable span [{max_floor}, {min_ceiling}] "
                f"is too narrow for clearance radius {radius}")
        out.append((x, y, lo if z < lo else hi if z > hi else z))
    return out


# -- VXG codec: whole-file reference ------------------------------------------

def save_voxel_map_reference(vmap: VoxelMap, path) -> None:
    """The canonical VXG encoding in one piece: np.nonzero walks the array
    in C order, the canonical (i, j, k) record order, and every record is
    built before the one write."""
    index = np.nonzero(vmap._voxels)
    records = np.empty((index[0].size, 4), dtype="<u4")
    for c, values in enumerate(index + (vmap._voxels[index],)):
        records[:, c] = values
    ox, oy, oz = vmap.origin
    M, N, K = vmap.extent
    header = (
        f"VXG 1\n"
        f"res {fmt_float(vmap.resolution)}\n"
        f"origin {fmt_float(ox)} {fmt_float(oy)} {fmt_float(oz)}\n"
        f"extent {M} {N} {K}\n"
        f"count {records.shape[0]}\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(records.data)


def load_voxel_map_reference(path) -> VoxelMap:
    """VXG parse of the whole file at once, with each check a whole-payload
    array pass: header, payload length, invalid states, out-of-range voxels,
    allocation, then duplicates (named by their later record)."""
    data = Path(path).read_bytes()
    lines = []
    offset = 0
    for _ in range(5):
        nl = data.find(b"\n", offset)
        if nl < 0:
            raise VxgHeaderError("incomplete header: expected 5 header lines")
        lines.append(data[offset:nl].decode("ascii", errors="replace"))
        offset = nl + 1

    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != "VXG":
        raise VxgHeaderError(f"bad magic line {lines[0]!r}")
    try:
        version = int(magic[1])
    except ValueError:
        raise VxgHeaderError(f"unreadable version in {lines[0]!r}") from None
    if version != 1:
        raise VxgVersionError(f"unsupported VXG version {version}")

    resolution = header_fields(lines[1], "res", 1, float, VxgHeaderError)[0]
    if not (math.isfinite(resolution) and resolution > 0):
        raise VxgHeaderError(f"resolution must be finite and positive, got {resolution}")
    origin = header_fields(lines[2], "origin", 3, float, VxgHeaderError)
    if not all(map(math.isfinite, origin)):
        raise VxgHeaderError(f"non-finite origin {origin}")
    extent = header_fields(lines[3], "extent", 3, int, VxgHeaderError)
    if any(e < 1 for e in extent):
        raise VxgHeaderError(f"extent components must be >= 1, got {extent}")
    count = header_fields(lines[4], "count", 1, int, VxgHeaderError)[0]
    if count < 0:
        raise VxgHeaderError(f"negative record count {count}")

    payload = data[offset:]
    expected = count * 16
    if len(payload) != expected:
        raise VxgTruncatedError(
            f"expected {expected} record bytes, found {len(payload)}"
        )
    records = np.frombuffer(payload, dtype="<u4").reshape(count, 4)

    M, N, K = extent
    bad_state = ~np.isin(records[:, 3], (1, 2))
    if bad_state.any():
        r = int(np.argmax(bad_state))
        raise VxgRecordError(f"record {r}: invalid state {int(records[r, 3])}")
    out_of_range = (records[:, 0] >= M) | (records[:, 1] >= N) | (records[:, 2] >= K)
    if out_of_range.any():
        r = int(np.argmax(out_of_range))
        raise VxgRecordError(
            f"record {r}: voxel ({int(records[r, 0])}, {int(records[r, 1])}, "
            f"{int(records[r, 2])}) outside extent {M}x{N}x{K}"
        )

    try:
        vmap = VoxelMap(resolution, origin, extent)
    except (MemoryError, ValueError):
        raise VxgHeaderError(
            f"extent {M}x{N}x{K} is too large to allocate ({M * N * K} bytes)"
        ) from None
    flat = vmap._voxels.reshape(-1)
    linear = np.ravel_multi_index(tuple(records[:, :3].T), extent)
    flat[linear] = records[:, 3]
    if np.count_nonzero(flat) != count:
        order = np.argsort(linear, kind="stable")
        repeats = order[1:][linear[order[1:]] == linear[order[:-1]]]
        r = int(repeats.min())
        raise VxgRecordError(
            f"record {r}: duplicate voxel ({int(records[r, 0])}, "
            f"{int(records[r, 1])}, {int(records[r, 2])})"
        )
    return vmap


def vxg_blocks_of(block: int | None):
    """Set the VXG codec's records per block for a with-block (None: keep
    the default), so small maps cross block boundaries."""
    if block is None:
        return contextlib.nullcontext()
    return mock.patch.object(voxel_store, "_BLOCK_RECORDS", block)


def load_outcome(load, path):
    """What a VXG reader makes of a file: the map, or its error's class and
    message, so two readers' outcomes compare with ==."""
    try:
        return load(path)
    except VxgError as e:
        return type(e), str(e)
