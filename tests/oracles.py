"""Independent oracles and small builders the tests compare against.

Everything here deliberately avoids the library's own computation paths:
the column, occupancy and plane-fit rules are stated on float world-meter
ranges and samples, one column or cell at a time, where the library's kernels
work on integer voxel indices over whole windows; the integer slope kernel
takes its window sums from summed-area tables, where the library's doubles
them along each axis; rasterization inverts range extraction by painting
voxels, the plane search is exhaustive, the grid planner cost check is a
plain Dijkstra and its path check the same A* over (m, n) tuple keys, path
lifting and clearance are per-waypoint loops, and the VXG codec reads and
writes the whole file at once, finding its box by a per-column `any` and its
payload by `np.frombuffer`, and the G2D reader reads the whole file at once,
finding its header lines by `bytes.find`.
"""
from __future__ import annotations

import decimal
import heapq
import itertools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from voxflat import (GridFileHeader, GridFormatError, HeightMap, VoxelMap, VoxelState,
                     VxgError, VxgHeaderError, VxgRecordError, VxgTruncatedError,
                     VxgVersionError)
from voxflat.column_extraction import pad_block
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


def extract_ranges(column: np.ndarray, resolution: float, origin_z: float) -> ColumnRanges:
    """Convert a column's states to world-meter ranges; Unknown yields nothing.

    A run of equal states starting at index z0 with length L spans the voxel
    faces [origin_z + z0*res, origin_z + (z0+L)*res], so range heights are
    exact voxel-count multiples of the resolution.
    """
    free: list[HeightRange] = []
    occupied: list[HeightRange] = []
    z0 = 0
    for state, run in itertools.groupby(np.asarray(column).tolist()):
        length = len(list(run))
        if state != VoxelState.UNKNOWN:
            rng = HeightRange(origin_z + z0 * resolution,
                              origin_z + (z0 + length) * resolution)
            (free if state == VoxelState.FREE else occupied).append(rng)
        z0 += length
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


def slope_kernel_reference(height: HeightMap, m0: int, m1: int, n0: int, n1: int,
                           r: int) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and degeneracy flags of the cells [m0, m1) x [n0, n1) at radius
    r, from int64 summed-area tables (Crow, SIGGRAPH 1984).

    The nine moment planes of the block grown by r are cumulated along both
    axes, and each (2r+1)² box sum is four table reads. Table entries may
    wrap in int64, but box sums and centered moments are exact modulo 2**64,
    so every one whose true value fits in int64 is exact. The float64 tail is
    the library's, so the bits must match `slope_at`'s wherever both are
    exact.
    """
    floor, = pad_block(m0, m1, n0, n1, r, height.floor_k)
    present = floor >= 0
    H, W = present.shape
    p = present.astype(np.int64)
    kk = floor * p
    mm = np.arange(H, dtype=np.int64)[:, None] * p
    nn = np.arange(W, dtype=np.int64)[None, :] * p
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
    lam_max = ((cxx + cyy) + np.sqrt((cxx - cyy) ** 2 + 4 * cxy * cxy)) / 2.0
    degenerate = (c < 3) | (det == 0) | (lam_max * lam_max > 1e12 * det)
    safe = np.where(degenerate, 1, det)
    slope = np.hypot(num_a / safe, num_b / safe)
    present = present[r:H - r, r:W - r]
    values = np.where(present, np.where(degenerate, 0.0, slope), np.nan)
    return values, present & degenerate


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


# Integer step costs: 2**121 straight, and sqrt(2) * 2**121 rounded to the
# nearest integer diagonal, worked out here in 80-digit decimal arithmetic.
_UNIT = 2**121
_CONTEXT = decimal.Context(prec=80)
_DIAG = int(_CONTEXT.multiply(_CONTEXT.sqrt(2), _UNIT).to_integral_value(
    rounding=decimal.ROUND_HALF_EVEN))
_STEPS = ((-1, -1, _DIAG), (-1, 0, _UNIT), (-1, 1, _DIAG), (0, -1, _UNIT),
          (0, 1, _UNIT), (1, -1, _DIAG), (1, 0, _UNIT), (1, 1, _DIAG))


def integer_path_cost(path) -> int:
    """The integer cost plan_2d minimises: _UNIT per straight step and _DIAG
    per diagonal one."""
    return sum(_DIAG if a[0] != b[0] and a[1] != b[1] else _UNIT
               for a, b in zip(path, path[1:]))


def plan_2d_reference(grid, start, goal):
    """plan_2d's search over (m, n) tuple keys, reading each neighbour's value
    from the 2D array and the heuristic through a function call. Path costs
    are integers (the octile heuristic uses the same two step costs), heap
    entries are (f, h, m, n), so equal f breaks toward the goal and then on
    (m, n), and a closed cell is final. The library must return exactly this
    path, or None, for valid endpoints."""
    values = grid.values
    M, N = values.shape
    for name, (m, n) in (("start", start), ("goal", goal)):
        if not (0 <= m < M and 0 <= n < N) or values[m, n] != 0.0:
            raise ValueError(f"{name} cell ({m}, {n}) is not a free cell")
    start = (int(start[0]), int(start[1]))
    goal = (int(goal[0]), int(goal[1]))
    if start == goal:
        return [start]

    def heuristic(cell) -> int:
        dm = abs(cell[0] - goal[0])
        dn = abs(cell[1] - goal[1])
        return _UNIT * abs(dm - dn) + _DIAG * min(dm, dn)

    best_g = {start: 0}
    parent = {}
    h = heuristic(start)
    heap = [(h, h, *start)]
    done = set()
    while heap:
        f, h, m, n = heapq.heappop(heap)
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
            nxt = (mm, nn)
            if (not (0 <= mm < M and 0 <= nn < N) or values[mm, nn] != 0.0
                    or nxt in done):
                continue
            ng = g + cost
            if nxt not in best_g or ng < best_g[nxt]:
                best_g[nxt] = ng
                parent[nxt] = cell
                h = heuristic(nxt)
                heapq.heappush(heap, (ng + h, h, mm, nn))
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
    """HeightMap from nested lists of meters, snapped to the nearest voxel
    face by `HeightMap.from_meters`; None marks absent cells."""
    floor = np.array([[np.nan if v is None else float(v) for v in row]
                      for row in floor_rows])
    if ceiling_rows is None:
        ceiling = np.where(np.isnan(floor), np.nan, floor + 3.0)
    else:
        ceiling = np.array([[np.nan if v is None else float(v) for v in row]
                            for row in ceiling_rows])
    return HeightMap.from_meters(resolution, tuple(origin), floor, ceiling)


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


def states_equal(a, b) -> list[str]:
    """Compare two conversion states grid by grid; returns mismatch labels."""
    problems = []
    if not np.array_equal(a.height.floor_k, b.height.floor_k):
        problems.append("floor faces")
    if not np.array_equal(a.height.ceil_k, b.height.ceil_k):
        problems.append("ceiling faces")
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


def disc_offsets_reference(radius: float, res: float) -> list[tuple[int, int]]:
    """Cell offsets whose centers lie within radius of the center cell's."""
    reach = math.ceil(radius / res)
    return [(dm, dn)
            for dm in range(-reach, reach + 1)
            for dn in range(-reach, reach + 1)
            if math.hypot(dm, dn) * res <= radius * (1.0 + 1e-12)]


def enforce_clearance_reference(path, height: HeightMap, radius: float):
    """enforce_clearance as a loop over waypoints and the cells of the disc."""
    res = height.resolution
    ox, oy = height.origin[0], height.origin[1]
    M, N = height.extent
    offsets = disc_offsets_reference(radius, res)
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
    """The canonical VXG encoding in one piece: the box from a per-column
    `any`, and its voxels as one C-order byte string before the one write."""
    observed = vmap.states.any(axis=2)
    rows = np.flatnonzero(observed.any(axis=1))
    cols = np.flatnonzero(observed.any(axis=0))
    m0, m1, n0, n1 = ((rows[0], rows[-1] + 1, cols[0], cols[-1] + 1) if rows.size
                      else (0, 0, 0, 0))
    ox, oy, oz = vmap.origin
    M, N, K = vmap.extent
    header = (
        f"VXG 2\n"
        f"res {fmt_float(vmap.resolution)}\n"
        f"origin {fmt_float(ox)} {fmt_float(oy)} {fmt_float(oz)}\n"
        f"extent {M} {N} {K}\n"
        f"box {m0} {m1} {n0} {n1}\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii") + vmap.states[m0:m1, n0:n1].tobytes())


def load_voxel_map_reference(path) -> VoxelMap:
    """VXG parse of the whole file at once, with each check in order:
    header, box, payload length, allocation, then the first invalid state
    over the whole payload (`np.frombuffer`) in C order."""
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
    if version != 2:
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
    M, N, K = extent
    m0, m1, n0, n1 = header_fields(lines[4], "box", 4, int, VxgHeaderError)
    if not (0 <= m0 <= m1 <= M and 0 <= n0 <= n1 <= N):
        raise VxgHeaderError(
            f"box [{m0},{m1})x[{n0},{n1}) is not a box inside extent {M}x{N}")

    payload = data[offset:]
    shape = (m1 - m0, n1 - n0, K)
    expected = math.prod(shape)
    if len(payload) != expected:
        raise VxgTruncatedError(f"expected {expected} payload bytes, found {len(payload)}")

    try:
        voxels = np.zeros(extent, dtype=np.uint8)
    except (MemoryError, ValueError):
        raise VxgHeaderError(
            f"extent {M}x{N}x{K} is too large to allocate ({M * N * K} bytes)"
        ) from None
    states = np.frombuffer(payload, dtype=np.uint8)
    bad = np.flatnonzero(states > 2)
    if bad.size:
        i, j, k = np.unravel_index(bad[0], shape)
        raise VxgRecordError(f"voxel ({m0 + i}, {n0 + j}, {k}): invalid state "
                             f"{states[bad[0]]}")
    voxels[m0:m1, n0:n1] = states.reshape(shape)
    return VoxelMap.from_states(resolution, origin, voxels)


def through_a_pipe(tmp_path: Path, data: bytes, outcome):
    """outcome(fifo), a FIFO under tmp_path, while another thread writes data
    into it."""
    fifo = tmp_path / "fifo"
    if not fifo.exists():
        os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, daemon=True, args=(data,))
    writer.start()
    try:
        return outcome(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def load_outcome(load, path):
    """What a VXG or G2D reader makes of a file: its value, or its error's
    class and message, so two readers' outcomes compare with ==."""
    try:
        return load(path)
    except (VxgError, GridFormatError) as e:
        return type(e), str(e)


# -- G2D reader: whole-file reference -------------------------------------------

_G2D_CELL_BYTES = {"occupancy": 1, "height-floor": 4, "height-floor-ceiling": 8,
                   "slope": 4}


def read_grid_reference(path) -> tuple[GridFileHeader, list[np.ndarray]]:
    """G2D parse of the whole file at once, the header lines found by
    `bytes.find` and the payload sliced off, with read_grid's checks in its
    order and its messages."""
    def bad(message: str) -> GridFormatError:
        return GridFormatError(f"{path}: {message}")

    data = Path(path).read_bytes()
    offset = 0
    lines = []
    for _ in range(5):
        nl = data.find(b"\n", offset)
        if nl < 0:
            raise bad("incomplete header: expected 5 header lines")
        lines.append(data[offset:nl].decode("ascii", errors="replace"))
        offset = nl + 1
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != "G2D":
        raise bad(f"bad magic line {lines[0]!r}")
    try:
        version = int(magic[1])
    except ValueError:
        raise bad(f"unreadable version in {lines[0]!r}") from None
    if version != 1:
        raise bad(f"unsupported G2D version {version}")
    kind, = header_fields(lines[1], "kind", 1, str, bad)
    if kind not in _G2D_CELL_BYTES:
        raise bad(f"unknown grid kind {kind!r}")
    extent = header_fields(lines[2], "extent", 2, int, bad)
    if any(e < 1 for e in extent):
        raise bad(f"extent components must be >= 1, got {extent}")
    res, = header_fields(lines[3], "res", 1, float, bad)
    if not (math.isfinite(res) and res > 0):
        raise bad(f"resolution must be finite and positive, got {res}")
    origin = header_fields(lines[4], "origin", 3, float, bad)
    if not all(map(math.isfinite, origin)):
        raise bad(f"non-finite origin {origin}")
    robot = window = None
    if kind in ("occupancy", "slope"):
        # The last line may lack its newline; then no payload follows it.
        nl = data.find(b"\n", offset)
        end = len(data) if nl < 0 else nl
        extra = data[offset:end].decode("ascii", errors="replace")
        offset = end + 1
        if kind == "occupancy":
            robot, = header_fields(extra, "robot", 1, str, bad)
            if robot not in ("uav", "ugv"):
                raise bad(f"unknown robot tag {robot!r}")
        else:
            window, = header_fields(extra, "window", 1, int, bad)
            if window < 1:
                raise bad(f"slope window must be >= 1, got {window}")
    M, N = extent
    payload = data[offset:]
    expected = M * N * _G2D_CELL_BYTES[kind]
    if len(payload) != expected:
        raise bad(f"expected {expected} payload bytes, found {len(payload)}")
    hdr = GridFileHeader(kind, extent, res, origin, robot, window)
    if kind == "occupancy":
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(extent)
        return hdr, [np.where(raw == 255, -1.0, raw / 254.0)]
    with np.errstate(invalid="ignore"):
        planes = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return hdr, list(planes.reshape(-1, M, N))


def grid_outcome(read, path):
    """load_outcome of a G2D reader, each plane as its dtype, shape and bytes,
    so two readers' outcomes compare with == bit for bit."""
    got = load_outcome(read, path)
    if isinstance(got[0], GridFileHeader):
        hdr, planes = got
        return hdr, [(p.dtype, p.shape, p.tobytes()) for p in planes]
    return got
