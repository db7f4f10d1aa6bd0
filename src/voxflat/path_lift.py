"""2D grid planning, 2D-to-3D path lifting, and spherical clearance for UAVs.

The planner is an 8-connected A* over the occupancy grid, on exact integer
path costs: 2**121 a straight step, sqrt(2) * 2**121 rounded a diagonal one.
Its heap orders cells by (f, h, m, n), so equal f breaks toward the goal, and
a closed cell is final. A popped cell generates only the natural and forced
neighbours of the step that reached it, the neighbour pruning of jump point
search (Harabor & Grastien, AAAI 2011) without its jumps, so it never scans
past the goal. It keys cells by flat index and reads freeness through a view
of the grid's buffer, so a plan costs work in proportion to the cells it
expands, not to the map. Lifting gives each waypoint a windowed maximum of
nearby floor heights plus an offset, and aerial paths get an additional
sphere check against every height cell within the safety radius; both read
the faces through one padded block of their waypoints' box.
"""
from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .column_extraction import HeightMap, pad_block, window_reduce
from .occupancy_maps import OccupancyGrid
from .params import check_fields
from .voxel_store import Cell, cell_center, int_records, read_records

Waypoint3D = tuple[float, float, float]

# enforce_clearance gathers at most this many waypoint x disc cells at once,
# which bounds its memory on long paths with large radii
_GATHER_CELLS = 1 << 16

# plan_2d's integer step costs: 2**121 straight, sqrt(2) * 2**121 rounded to
# the nearest integer diagonal (isqrt gives floor(2 * sqrt(2) * 2**121)); see
# plan_2d for why 121 bits. _NEVER exceeds any path cost (< 2**182) on any grid.
_UNIT = 1 << 121
_DIAG = (math.isqrt(8 * _UNIT * _UNIT) + 1) // 2
_EXTRA = _DIAG - _UNIT
_NEVER = 1 << 192
_STEPS = ((-1, -1, _DIAG), (-1, 0, _UNIT), (-1, 1, _DIAG), (0, -1, _UNIT),
          (0, 1, _UNIT), (1, -1, _DIAG), (1, 0, _UNIT), (1, 1, _DIAG))


@dataclass(frozen=True)
class LiftParams:
    """How a 2D path becomes 3D.

    lookahead is the window half-width in waypoints: waypoint i takes the
    maximum floor over waypoints i-lookahead..i+lookahead (clipped to the
    path) plus height_offset. safety_radius, when given, is the radius of
    the aerial collision sphere enforced afterwards; it must be positive.
    Fields are checked by `check_fields`.
    """

    lookahead: int
    height_offset: float
    safety_radius: float | None = None

    def __post_init__(self):
        check_fields(self)
        if self.safety_radius is not None and self.safety_radius <= 0:
            raise ValueError(f"safety_radius must be positive, got {self.safety_radius}")

    @classmethod
    def uav_defaults(cls, resolution: float) -> "LiftParams":
        # 2 m of path lookahead, 1 m above floor, 0.5 m sphere.
        return cls(round(2.0 / resolution), 1.0, 0.5)

    @classmethod
    def ugv_defaults(cls, resolution: float) -> "LiftParams":
        # 0.5 m lookahead, 0.1 m above floor, no sphere.
        return cls(round(0.5 / resolution), 0.1)


def plan_2d(grid: OccupancyGrid, start: Cell, goal: Cell) -> list[Cell] | None:
    """Shortest 8-connected path through free cells, or None if disconnected.

    Path costs are integers: a straight step costs U = 2**121 and a diagonal
    step D = round(sqrt(2) * U), and the octile heuristic U*max(a, b) +
    (D - U)*min(a, b) uses the same two constants. Sums are exact, so routes
    of equal cost tie exactly whatever order their steps come in. The
    heuristic is the cost of the same route on an all-free grid, so it is
    consistent: a closed cell's cost is final, and closed cells are skipped.
    The A* heap orders cells by (f, h, m, n): equal f breaks toward the goal
    (smaller h), then on (m, n), so results are deterministic.

    Moves are pruned as in jump point search (Harabor & Grastien, AAAI 2011)
    for these corner-cutting moves, which need only their target free. The
    start makes all eight. Any other cell makes the natural moves of the step
    (dm, dn) that reached it: after a straight step the same step again;
    after a diagonal one that step and its two straight parts, (dm, 0) and
    (0, dn). It also makes a forced move wherever a side cell is not free: a
    straight step forces the diagonal past each side cell (m + dn, n + dm)
    and (m - dn, n - dm) that is not free, and a diagonal one forces (m - dm,
    n + dn) when (m - dm, n) is not free and (m + dm, n - dn) when (m, n - dn)
    is not. A pruned move's target has a route through free cells from the
    cell's parent, avoiding the cell, that costs no more, so pruning drops
    only routes that another of no greater cost stands for, and a closed
    cell's cost is still final. The path costs what unpruned A*'s does, but
    among routes of equal cost it may be another one. Moves are tabled per
    grid width by `_moves`.

    The integer order keeps the order of true costs s + d*sqrt(2) (s straight
    and d diagonal steps) among routes of at most L steps when U > (1 +
    sqrt(2)) * L**2 / 2. D is off by at most 1/2, so the rounding terms
    d * (D - sqrt(2)*U) of two such routes differ by at most L/2, while
    distinct true costs differ by at least 1/((1 + sqrt(2)) * L), since
    |x + y*sqrt(2)| * |x - y*sqrt(2)| = |x**2 - 2*y**2| >= 1 for their
    differences x, y. A shortest route visits no cell twice, so L < M*N, and
    a float64 grid numpy can hold has M*N < 2**60 cells (2**63 bytes), which
    U = 2**121 covers. The path is thus shortest by true cost too.

    Endpoints are (m, n) integer pairs (bool acts as its integer); another
    field raises TypeError and another length ValueError. A start or goal
    that is off the map or not free (value exactly 0) is a ValueError.
    """
    values = grid.values
    M, N = values.shape
    # Freeness is read through a flat view of the grid's own float64 buffer;
    # for a C-contiguous float64 grid this copies nothing.
    cells = memoryview(np.ascontiguousarray(values, np.float64).ravel())
    ends = []
    for name, cell in (("start", start), ("goal", goal)):
        (m, n), = int_records([cell], 2, name).tolist()
        if not (0 <= m < M and 0 <= n < N) or cells[m * N + n] != 0.0:
            m, n = map(operator.index, cell)  # int_records clamps huge values
            raise ValueError(f"{name} cell ({m}, {n}) is not a free cell")
        ends.append((m, n))
    (sm, sn), (gm, gn) = ends
    source = sm * N + sn
    target = gm * N + gn
    moves = _moves(N)
    a, b = abs(sm - gm), abs(sn - gn)
    h = _UNIT * a + _EXTRA * b if a > b else _UNIT * b + _EXTRA * a
    heap = [(h, h, source)]
    # g of each reached cell; a closed cell's is -1, below any route's cost
    best_g = {source: 0}
    parent: dict[int, int] = {}
    # the step that last improved each cell's g, as an index into _STEPS;
    # the start's is len(_STEPS), whose row of moves holds all eight
    came = {source: len(_STEPS)}
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        c = pop(heap)[2]
        g = best_g[c]
        if g < 0:
            continue
        if c == target:
            path = [c]
            while c != source:
                c = parent[c]
                path.append(c)
            return [divmod(c, N) for c in reversed(path)]
        best_g[c] = -1
        m, n = divmod(c, N)
        border = m == 0 or n == 0 or m == M - 1 or n == N - 1
        am, an = m - gm, n - gn
        for dm, dn, dc, cost, step, side in moves[came[c]]:
            if border and not (0 <= m + dm < M and 0 <= n + dn < N):
                continue
            nc = c + dc
            # any nonzero value, NaN included, is not free; a forced move is
            # made only when its side cell (on the map whenever nc is) is not
            if cells[nc] or (side and not cells[c + side]):
                continue
            ng = g + cost
            if ng < best_g.get(nc, _NEVER):
                best_g[nc] = ng
                parent[nc] = c
                came[nc] = step
                a = abs(am + dm)
                b = abs(an + dn)
                h = _UNIT * a + _EXTRA * b if a > b else _UNIT * b + _EXTRA * a
                push(heap, (ng + h, h, nc))
    return None


@lru_cache(maxsize=16)
def _moves(N: int) -> tuple[tuple[tuple[int, int, int, int, int, int], ...], ...]:
    """plan_2d's successor rows on a grid N cells wide: row k lists the moves
    a cell reached by step k of _STEPS makes, and a last row the start's, all
    eight. A move is (dm, dn, flat offset, cost, its index in _STEPS, side),
    where side is 0 for a natural move and, for a forced one, the flat offset
    of the side cell whose being non-free forces it. Rows are keyed by step,
    never by flat offset: dm*N + dn is one offset for two steps when N <= 2.
    """
    index = {(dm, dn): k for k, (dm, dn, _) in enumerate(_STEPS)}

    def move(dm, dn, side=(0, 0)):
        k = index[dm, dn]
        return dm, dn, dm * N + dn, _STEPS[k][2], k, side[0] * N + side[1]

    rows = []
    for dm, dn, _ in _STEPS:
        if dm and dn:  # diagonal: itself, its straight parts, past each side
            row = (move(dm, dn), move(dm, 0), move(0, dn),
                   move(-dm, dn, (-dm, 0)), move(dm, -dn, (0, -dn)))
        else:  # straight: ahead, and diagonally past each side
            sm, sn = dn, dm  # a unit step across the direction of travel
            row = (move(dm, dn), move(dm + sm, dn + sn, (sm, sn)),
                   move(dm - sm, dn - sn, (-sm, -sn)))
        rows.append(row)
    rows.append(tuple(move(dm, dn) for dm, dn, _ in _STEPS))
    return tuple(rows)


def lift_path(path: Sequence[Cell] | np.ndarray, height: HeightMap,
              params: LiftParams) -> list[Waypoint3D]:
    """Assign each waypoint the windowed-max floor height plus the offset.

    The window is clipped at the path ends. Every waypoint must sit on a
    present height cell; the raised error names the offending waypoint. An
    (n, 2) array path is read as the list of its `tolist()` records, so it
    lifts, and fails, exactly as that list does.
    """
    if len(path) == 0:
        return []
    if isinstance(path, np.ndarray):
        path = path.tolist()
    m, n = int_records(path, 2, "waypoint").T
    block, at, _ = _padded(height, m, n, 0, height.floor_k)
    floor_k = block[0].take(at)
    missing = floor_k < 0
    if missing.any():
        idx = int(np.argmax(missing))
        bad_m, bad_n = path[idx]
        raise ValueError(f"waypoint {idx} at cell ({bad_m}, {bad_n}) has no height data")
    # Windows are clipped to the path, so a wider one reads nothing more.
    w = min(params.lookahead, len(path))
    # oz + k*res is monotone in k, so the highest face gives the highest floor.
    pad = np.full(w, -1, dtype=floor_k.dtype)
    top = window_reduce(np.concatenate((pad, floor_k, pad)), 2 * w + 1, np.maximum)
    z = height.meters(top) + params.height_offset
    x, y = cell_center(height.origin, height.resolution, m, n)
    return list(zip(x.tolist(), y.tolist(), z.tolist()))


def enforce_clearance(path: Sequence[Waypoint3D] | np.ndarray, height: HeightMap,
                      radius: float) -> list[Waypoint3D]:
    """Move waypoints so a sphere of the given radius fits between floor and
    ceiling of every height cell whose center lies within the radius.

    A violating waypoint is clamped to the nearest end of the feasible
    interval [max floor + radius, min ceiling - radius], overriding whatever
    offset lifting applied. An empty interval (navigable span locally thinner
    than the sphere) is an error naming the waypoint, never a compromise; so
    is a waypoint off the map or with no height cell within the radius,
    where nothing is known to be clear, and a waypoint with a non-finite
    coordinate. An error names the first waypoint that has one. An (n, 3)
    array path is read as the list of its `tolist()` records, as in
    `lift_path`.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"clearance radius must be finite and positive, got {radius}")
    if len(path) == 0:
        return []
    if isinstance(path, np.ndarray):
        path = path.tolist()
    res = height.resolution
    M, N = height.extent
    # An offset of max(M, N) cells or more leaves the map from any waypoint
    # on it, so the disc is clipped there however large the radius.
    reach = min(math.ceil(radius / res), max(M, N))
    dm, dn = _disc(radius, res, reach)
    try:
        points = np.array(path, dtype=np.float64)
    except (TypeError, ValueError):  # ragged or non-numeric waypoints
        points = None
    if points is None or points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("waypoints must be (x, y, z) triples")
    finite = np.isfinite(points)
    if not finite.all():
        idx, axis = np.argwhere(~finite)[0].tolist()
        bx, by, bz = path[idx]
        raise ValueError(f"waypoint {idx} at ({bx}, {by}, {bz}) has a non-finite "
                         f"{'xyz'[axis]} coordinate")
    x, y, z = points.T
    m = np.floor((x - height.origin[0]) / res)
    n = np.floor((y - height.origin[1]) / res)
    off_map = ~((m >= 0) & (m < M) & (n >= 0) & (n < N))
    # Faces of every waypoint x disc offset, -1 off the map and where absent:
    # the highest floor face is -1 only with no height cell. Read as uint32, a
    # missing ceiling's -1 is the largest value, so it is never the lowest.
    # oz + k*res is monotone in k, so only the extremes become meters.
    top = np.empty(m.size, dtype=np.int32)
    low = np.empty(m.size, dtype=np.uint32)
    step = max(1, _GATHER_CELLS // dm.size)
    for s in range(0, m.size, step):
        block, at, W = _padded(height, m[s:s + step], n[s:s + step], reach,
                               height.floor_k, height.ceil_k)
        floor_k, ceil_k = block.take(at[:, None] + (dm * W + dn), axis=1)
        top[s:s + step] = floor_k.max(axis=1)
        low[s:s + step] = ceil_k.view(np.uint32).min(axis=1)
    no_height = top < 0
    max_floor = height.meters(top)
    min_ceiling = np.where(low > np.iinfo(np.int32).max, np.inf, height.meters(low))
    lo = max_floor + radius
    hi = min_ceiling - radius
    too_narrow = lo > hi
    bad = off_map | no_height | too_narrow
    if bad.any():
        idx = int(np.argmax(bad))
        bx, by, bz = path[idx]
        if off_map[idx]:
            raise ValueError(f"waypoint {idx} at ({bx}, {by}, {bz}) is off the map")
        if no_height[idx]:
            raise ValueError(f"waypoint {idx} at ({bx}, {by}, {bz}) has no height "
                             f"cell within clearance radius {radius}")
        raise ValueError(
            f"waypoint {idx}: navigable span [{float(max_floor[idx])}, "
            f"{float(min_ceiling[idx])}] is too narrow for clearance radius {radius}"
        )
    z = np.minimum(np.maximum(z, lo), hi)
    return [(wx, wy, wz) for (wx, wy, _), wz in zip(path, z.tolist())]


def _padded(height: HeightMap, m: np.ndarray, n: np.ndarray, reach: int,
            *planes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """One `pad_block` of the planes over the box of the cells (m, n) grown
    by reach, as a (planes, block cells) array; each cell's flat index into
    it; and the block's width. Cells are first clipped to one past the map's
    edge, so a cell off the map stays off it and reads -1, as an absent one
    does, and an offset of up to reach cells from a cell stays in the block."""
    M, N = height.extent
    m = np.minimum(np.maximum(m, -1), M).astype(np.int64, copy=False)
    n = np.minimum(np.maximum(n, -1), N).astype(np.int64, copy=False)
    m0, n0 = int(m.min()), int(n.min())
    block = pad_block(m0, int(m.max()) + 1, n0, int(n.max()) + 1, reach, *planes)
    W = block.shape[2]
    corner = (m0 - reach) * W + (n0 - reach)  # the block's first cell
    return block.reshape(len(planes), -1), m * W + n - corner, W


@lru_cache(maxsize=16)
def _disc(radius: float, res: float, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """(dm, dn) offsets of the cells within reach whose centers lie within
    radius of the center cell's, in row-major order. Cached, as a replan
    asks for the same disc each time, so both arrays are read-only."""
    dm, dn = np.mgrid[-reach:reach + 1, -reach:reach + 1]
    inside = np.hypot(dm, dn) * res <= radius * (1.0 + 1e-12)
    dm, dn = dm[inside], dn[inside]
    dm.flags.writeable = dn.flags.writeable = False
    return dm, dn


# -- path files -----------------------------------------------------------
# One waypoint per line: "m n" (2D, grid indices) or "x y z" (3D, meters).
# Lines starting with '#' are comments; blank lines are ignored.


def write_path_2d(path: Sequence[Cell], file: str | Path) -> None:
    Path(file).write_text("".join(f"{m} {n}\n" for m, n in path), encoding="ascii")


def read_path_2d(file: str | Path) -> list[Cell]:
    return _read_path(file, int, "m n", "grid indices")


def write_path_3d(path: Sequence[Waypoint3D], file: str | Path) -> None:
    Path(file).write_text(
        "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in path), encoding="ascii")


def read_path_3d(file: str | Path) -> list[Waypoint3D]:
    return _read_path(file, float, "x y z", "coordinates")


def _read_path(file: str | Path, number, fields: str, what: str) -> list[tuple]:
    """One tuple of finite `number`s per line, one per name in `fields`."""
    def parse(parts: list[str]) -> tuple:
        try:
            values = tuple(map(number, parts))
        except ValueError:
            raise ValueError(f"unreadable {what}") from None
        # An int is finite however large; math.isfinite would overflow on it.
        if number is float and not all(map(math.isfinite, values)):
            raise ValueError(f"non-finite {what} {' '.join(parts)!r}")
        return values
    return [record for group in read_records(file, fields, parse) for record in group]
