"""2D grid planning, 2D-to-3D path lifting, and spherical clearance for UAVs.

The planner is an 8-connected A* over the occupancy grid. It keys cells by
flat index and reads freeness through a view of the grid's buffer, so a plan
costs work in proportion to the cells it expands, not to the map. Lifting
gives each waypoint a windowed maximum of nearby floor heights plus an
offset, and aerial paths get an additional sphere check against every height
cell within the safety radius.
"""
from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .column_extraction import HeightMap
from .occupancy_maps import OccupancyGrid
from .voxel_store import Cell, cell_center, int_records

Waypoint3D = tuple[float, float, float]

# enforce_clearance gathers at most this many waypoint x disc cells at once,
# which bounds its memory on long paths with large radii
_GATHER_CELLS = 1 << 16

_SQRT2 = math.sqrt(2.0)
_STEPS = ((-1, -1, _SQRT2), (-1, 0, 1.0), (-1, 1, _SQRT2), (0, -1, 1.0),
          (0, 1, 1.0), (1, -1, _SQRT2), (1, 0, 1.0), (1, 1, _SQRT2))


@dataclass(frozen=True)
class LiftParams:
    """How a 2D path becomes 3D.

    lookahead is the window half-width in waypoints: waypoint i takes the
    maximum floor over waypoints i-lookahead..i+lookahead (clipped to the
    path) plus height_offset. UAV mode also needs safety_radius, the radius
    of the collision sphere enforced afterwards.
    """

    mode: str  # "uav" or "ugv"
    lookahead: int
    height_offset: float
    safety_radius: float | None = None

    def __post_init__(self):
        if self.mode not in ("uav", "ugv"):
            raise ValueError(f"mode must be 'uav' or 'ugv', got {self.mode!r}")
        if not isinstance(self.lookahead, int) or isinstance(self.lookahead, bool):
            raise ValueError(f"lookahead must be an int, got {self.lookahead!r}")
        if self.lookahead < 0:
            raise ValueError(f"lookahead must be >= 0, got {self.lookahead}")
        if not math.isfinite(self.height_offset):
            raise ValueError(f"height_offset must be finite, got {self.height_offset}")
        if self.mode == "uav":
            if (self.safety_radius is None or not math.isfinite(self.safety_radius)
                    or self.safety_radius <= 0):
                raise ValueError("uav mode requires a finite, positive safety_radius")

    @classmethod
    def uav_defaults(cls, resolution: float) -> "LiftParams":
        # 2 m of path lookahead, 1 m above floor, 0.5 m sphere.
        return cls("uav", round(2.0 / resolution), 1.0, 0.5)

    @classmethod
    def ugv_defaults(cls, resolution: float) -> "LiftParams":
        # 0.5 m lookahead, 0.1 m above floor, no sphere.
        return cls("ugv", round(0.5 / resolution), 0.1, None)


def plan_2d(grid: OccupancyGrid, start: Cell, goal: Cell) -> list[Cell] | None:
    """Shortest 8-connected path through free cells, or None if disconnected.

    Straight steps cost 1 and diagonal steps sqrt(2). The A* search keys
    cells by their flat index m*N + n, whose order is (m, n) order, so equal
    f values still break ties on (m, n) and results are deterministic.
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
    if (sm, sn) == (gm, gn):
        return [(sm, sn)]
    source = sm * N + sn
    target = gm * N + gn
    steps = [(dm, dn, dm * N + dn, cost) for dm, dn, cost in _STEPS]
    a, b = abs(sm - gm), abs(sn - gn)
    heap = [(abs(a - b) + _SQRT2 * min(a, b), source)]
    best_g = {source: 0.0}
    parent: dict[int, int] = {}
    done: set[int] = set()
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        c = pop(heap)[1]
        if c in done:
            continue
        if c == target:
            path = [c]
            while c != source:
                c = parent[c]
                path.append(c)
            return [divmod(c, N) for c in reversed(path)]
        done.add(c)
        g = best_g[c]
        m, n = divmod(c, N)
        border = m == 0 or n == 0 or m == M - 1 or n == N - 1
        for dm, dn, dc, cost in steps:
            if border and not (0 <= m + dm < M and 0 <= n + dn < N):
                continue
            nc = c + dc
            if cells[nc]:  # any nonzero value, NaN included, is not free
                continue
            ng = g + cost
            # A closed cell reopens on a strictly lower g, which float rounding
            # can give; that decides which of two equal-cost parents wins.
            if ng < best_g.get(nc, math.inf):
                best_g[nc] = ng
                parent[nc] = c
                a = abs(m + dm - gm)
                b = abs(n + dn - gn)
                push(heap, (ng + (abs(a - b) + _SQRT2 * min(a, b)), nc))
    return None


def lift_path(path: Sequence[Cell], height: HeightMap,
              params: LiftParams) -> list[Waypoint3D]:
    """Assign each waypoint the windowed-max floor height plus the offset.

    The window is clipped at the path ends. Every waypoint must sit on a
    present height cell; the raised error names the offending waypoint.
    """
    if not path:
        return []
    m, n = int_records(path, 2, "waypoint").T
    floors = height.gather(m, n)[0]
    missing = np.isnan(floors)
    if missing.any():
        idx = int(np.argmax(missing))
        bad_m, bad_n = path[idx]
        raise ValueError(f"waypoint {idx} at cell ({bad_m}, {bad_n}) has no height data")
    w = params.lookahead
    padded = np.concatenate((np.full(w, -np.inf), floors, np.full(w, -np.inf)))
    z = sliding_window_view(padded, 2 * w + 1).max(axis=1) + params.height_offset
    x, y = cell_center(height.origin, height.resolution, m, n)
    return list(zip(x.tolist(), y.tolist(), z.tolist()))


def enforce_clearance(path: Sequence[Waypoint3D], height: HeightMap,
                      radius: float) -> list[Waypoint3D]:
    """Move waypoints so a sphere of the given radius fits between floor and
    ceiling of every height cell whose center lies within the radius.

    A violating waypoint is clamped to the nearest end of the feasible
    interval [max floor + radius, min ceiling - radius], overriding whatever
    offset lifting applied. An empty interval (navigable span locally thinner
    than the sphere) is an error naming the waypoint, never a compromise; so
    is a waypoint off the map or with no height cell within the radius,
    where nothing is known to be clear, and a waypoint with a non-finite
    coordinate. An error names the first waypoint that has one.
    """
    if radius <= 0:
        raise ValueError(f"clearance radius must be positive, got {radius}")
    if not path:
        return []
    res = height.resolution
    M, N = height.extent
    reach = math.ceil(radius / res)
    dm, dn = np.array([(dm, dn)
                       for dm in range(-reach, reach + 1)
                       for dn in range(-reach, reach + 1)
                       if math.hypot(dm, dn) * res <= radius * (1.0 + 1e-12)]).T
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
    m = np.where(off_map, 0, m).astype(np.int64)
    n = np.where(off_map, 0, n).astype(np.int64)
    # Floors and ceilings of every waypoint x disc offset, NaN off the map;
    # fmax and fmin skip NaN, so absent cells drop out of both extremes.
    max_floor = np.empty(m.size)
    min_ceiling = np.empty(m.size)
    step = max(1, _GATHER_CELLS // dm.size)
    for s in range(0, m.size, step):
        floor, ceiling = height.gather(m[s:s + step, None] + dm,
                                       n[s:s + step, None] + dn)
        max_floor[s:s + step] = np.fmax.reduce(floor, axis=1, initial=-np.inf)
        min_ceiling[s:s + step] = np.fmin.reduce(ceiling, axis=1, initial=np.inf)
    no_height = max_floor == -np.inf
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


# -- path files -----------------------------------------------------------
# One waypoint per line: "m n" (2D, grid indices) or "x y z" (3D, meters).
# Lines starting with '#' are comments; blank lines are ignored.


def write_path_2d(path: Sequence[Cell], file: str | Path) -> None:
    Path(file).write_text("".join(f"{m} {n}\n" for m, n in path), encoding="ascii")


def read_path_2d(file: str | Path) -> list[Cell]:
    out: list[Cell] = []
    for lineno, parts in _path_lines(file):
        if len(parts) != 2:
            raise ValueError(f"{file}:{lineno}: expected 'm n', got {' '.join(parts)!r}")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"{file}:{lineno}: unreadable grid indices") from None
    return out


def write_path_3d(path: Sequence[Waypoint3D], file: str | Path) -> None:
    Path(file).write_text(
        "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in path), encoding="ascii")


def read_path_3d(file: str | Path) -> list[Waypoint3D]:
    out: list[Waypoint3D] = []
    for lineno, parts in _path_lines(file):
        if len(parts) != 3:
            raise ValueError(f"{file}:{lineno}: expected 'x y z', got {' '.join(parts)!r}")
        try:
            out.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"{file}:{lineno}: unreadable coordinates") from None
    return out


def _path_lines(file: str | Path):
    for lineno, raw in enumerate(Path(file).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()
