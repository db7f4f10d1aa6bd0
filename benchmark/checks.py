"""Correctness checks the benchmark runs on the program's outputs.

Each check compares against a computation made here, apart from the
program (integer voxel indices, `np.linalg.lstsq`, voxel counting, an
independent G2D parser, a scipy Dijkstra), or against a property the method
must have. Each returns a list of problem strings; an empty list passes.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from world import OCCUPIED

NEIGHBORS_8 = [(dm, dn) for dm in (-1, 0, 1) for dn in (-1, 0, 1) if dm or dn]
_LIMIT = 5  # problems listed per check before the rest are summarised


def _summary(problems: list[str], what: str, count: int) -> list[str]:
    if count > len(problems):
        problems.append(f"{what}: {count} mismatches in all")
    return problems


def next_to(mask: np.ndarray) -> np.ndarray:
    """Cells with at least one 8-neighbour in `mask`."""
    M, N = mask.shape
    out = np.zeros_like(mask)
    for dm, dn in NEIGHBORS_8:
        out[max(0, dm):M + min(0, dm), max(0, dn):N + min(0, dn)] |= \
            mask[max(0, -dm):M + min(0, -dm), max(0, -dn):N + min(0, -dn)]
    return out


def floor_ceiling(height, fk: np.ndarray, ck: np.ndarray, res: float,
                  oz: float) -> list[str]:
    """Program floor/ceiling per column equal the voxel-index computation."""
    out = []
    present = fk >= 0
    for label, got, want in (("floor", height.floor, fk), ("ceiling", height.ceiling, ck)):
        idx = (got - oz) / res
        rounded = np.rint(np.nan_to_num(idx, nan=-1.0))
        bad = present & (np.isnan(got) | (np.abs(idx - rounded) > 1e-6)
                         | (rounded != want))
        bad |= ~present & ~np.isnan(got)
        for m, n in np.argwhere(bad)[:_LIMIT]:
            out.append(f"{label} ({m},{n}): got {got[m, n]}, voxel index {want[m, n]}")
        _summary(out, label, int(bad.sum()))
    return out


def floors_m(fk: np.ndarray, res: float, oz: float) -> np.ndarray:
    """Floor heights in meters from voxel indices, NaN where absent."""
    return np.where(fk >= 0, oz + fk * res, np.nan)


def slope_sample(slope, floor_m: np.ndarray, cells: np.ndarray, radius: int,
                 res: float, origin) -> list[str]:
    """Sampled slopes equal an `np.linalg.lstsq` plane fit of the window."""
    out = []
    M, N = floor_m.shape
    for m, n in cells.tolist():
        got = slope.values[m, n]
        if np.isnan(floor_m[m, n]):
            if not np.isnan(got):
                out.append(f"slope ({m},{n}): absent cell has slope {got}")
            continue
        m0, m1 = max(0, m - radius), min(M, m + radius + 1)
        n0, n1 = max(0, n - radius), min(N, n + radius + 1)
        mm, nn = np.meshgrid(np.arange(m0, m1), np.arange(n0, n1), indexing="ij")
        z = floor_m[m0:m1, n0:n1]
        ok = ~np.isnan(z)
        x = origin[0] + (mm[ok] + 0.5) * res
        y = origin[1] + (nn[ok] + 0.5) * res
        a = np.column_stack([x - x.mean(), y - y.mean(), np.ones(x.size)])
        coef, _, rank, _ = np.linalg.lstsq(a, z[ok] - z[ok].mean(), rcond=None)
        if rank < 3:
            if not (got == 0.0 and slope.degenerate[m, n]):
                out.append(f"slope ({m},{n}): degenerate window, got {got}")
            continue
        want = math.hypot(coef[0], coef[1])
        if slope.degenerate[m, n] or not abs(got - want) <= 1e-9 * max(1.0, want):
            out.append(f"slope ({m},{n}): got {got}, lstsq {want}")
        if len(out) >= _LIMIT:
            break
    return out


def occupancy(uav_values: np.ndarray, vox: np.ndarray, fk: np.ndarray,
              ck: np.ndarray, cells: np.ndarray, res: float,
              min_occupancy: float) -> list[str]:
    """Free/unknown classification over the whole grid, plus voxel-counting
    ratios on sampled boundary cells (tolerance res/span, as in acceptance
    criterion 3)."""
    out = []
    M, N = fk.shape
    present = fk >= 0
    near = next_to(present)
    bad = (present & (uav_values != 0.0)) | (~present & ~near & (uav_values != -1.0))
    for m, n in np.argwhere(bad)[:_LIMIT]:
        out.append(f"uav ({m},{n}): got {uav_values[m, n]}, present={present[m, n]}")
    _summary(out, "uav classification", int(bad.sum()))
    for m, n in cells.tolist():
        if present[m, n] or not near[m, n]:
            continue
        best, tol = -1.0, 0.0
        for dm, dn in NEIGHBORS_8:
            mm, nn = m + dm, n + dn
            if not (0 <= mm < M and 0 <= nn < N) or not present[mm, nn]:
                continue
            span = int(ck[mm, nn] - fk[mm, nn])
            count = int(np.count_nonzero(vox[m, n, fk[mm, nn]:ck[mm, nn]] == OCCUPIED))
            best = max(best, min(1.0, count / span))
            tol = max(tol, 1.0 / span)  # res / (span * res)
        got = uav_values[m, n]
        tol += 1e-12
        if abs(best - min_occupancy) <= tol:
            ok = got == -1.0 or abs(got - best) <= tol
        elif best >= min_occupancy:
            ok = abs(got - best) <= tol
        else:
            ok = got == -1.0
        if not ok:
            out.append(f"uav ({m},{n}): got {got}, voxel count ratio {best}")
            if len(out) >= _LIMIT:
                break
    return out


def ugv_from_uav(uav_values, ugv_values, slope_values, max_slope) -> list[str]:
    """UGV equals UAV except free cells steeper than max_slope, which read 1."""
    steep = np.zeros(uav_values.shape, dtype=bool)
    known = ~np.isnan(slope_values)
    steep[known] = slope_values[known] > max_slope
    want = np.where(steep & (uav_values == 0.0), 1.0, uav_values)
    bad = want != ugv_values
    out = [f"ugv ({m},{n}): got {ugv_values[m, n]}, want {want[m, n]}"
           for m, n in np.argwhere(bad)[:_LIMIT]]
    return _summary(out, "ugv", int(bad.sum()))


def read_g2d(path) -> tuple[dict, bytes]:
    """Parse a G2D file here rather than through the program's reader: five
    header lines, a sixth for occupancy (robot) and slope (window) files,
    then the payload."""
    data = Path(path).read_bytes()
    lines = data.split(b"\n", 6)
    header = lines[:6 if lines[1].split()[1] in (b"occupancy", b"slope") else 5]
    fields = dict(line.decode("ascii").split(" ", 1) for line in header)
    return fields, data[sum(len(line) + 1 for line in header):]


def g2d_roundtrip(paths: dict, state) -> list[str]:
    """The written G2D files decode to the in-memory grids after quantization."""
    out = []
    M, N = state.uav.values.shape
    for key in ("uav", "ugv"):
        fields, payload = read_g2d(paths[key])
        vals = getattr(state, key).values
        want = np.where(vals < 0.0, 255, np.rint(np.maximum(vals, 0.0) * 254.0)).astype(np.uint8)
        got = np.frombuffer(payload, dtype=np.uint8)
        if fields.get("robot") != key or fields.get("extent") != f"{M} {N}" \
                or got.size != M * N or not np.array_equal(got.reshape(M, N), want):
            out.append(f"{key} G2D file does not decode to the grid")
    fields, payload = read_g2d(paths["height"])
    planes = np.frombuffer(payload, dtype="<f4")
    if planes.size != 2 * M * N or not (
            np.array_equal(planes[:M * N].reshape(M, N),
                           state.height.floor.astype("<f4"), equal_nan=True)
            and np.array_equal(planes[M * N:].reshape(M, N),
                               state.height.ceiling.astype("<f4"), equal_nan=True)):
        out.append("height G2D file does not decode to the height map")
    fields, payload = read_g2d(paths["slope"])
    got = np.frombuffer(payload, dtype="<f4")
    if got.size != M * N or not np.array_equal(
            got.reshape(M, N), state.slope.values.astype("<f4"), equal_nan=True):
        out.append("slope G2D file does not decode to the slope map")
    return out


def grid_arrays(state) -> dict[str, np.ndarray]:
    return {"floor": state.height.floor, "ceiling": state.height.ceiling,
            "slope": state.slope.values, "degenerate": state.slope.degenerate,
            "uav": state.uav.values, "ugv": state.ugv.values}


def snapshot(state) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in grid_arrays(state).items()}


def grids_identical(want: dict, state) -> list[str]:
    """Bit-identical grids (NaN equal to NaN).

    One divergence is let through here: a degeneracy flag that update()
    left set on a cell init() finds non-degenerate. update() does not clear
    the flag when a fit stops being degenerate; `stale_flag_probe` in
    workloads.py reports that fault as a failed operation on a fixed map in
    every round, so it is not counted a second time here. The slope values
    themselves must still match bit for bit.
    """
    got = grid_arrays(state)
    out = []
    for key, w in want.items():
        g = got[key]
        if key == "degenerate":
            if (w & ~g).any():
                out.append("degenerate differs")
        elif not np.array_equal(w, g, equal_nan=w.dtype.kind == "f"):
            out.append(f"{key} differs")
    return out


def rebuild_equivalent(state, fresh) -> list[str]:
    out = grids_identical(grid_arrays(fresh), state)
    if state.ranges != fresh.ranges:
        out.append("column ranges differ")
    return out


def voxels_match(vmap, truth: np.ndarray, revealed: np.ndarray) -> list[str]:
    """The voxel map equals the true world on every revealed column and holds
    nothing elsewhere."""
    out = []
    K = truth.shape[2]
    for m, n in np.argwhere(revealed).tolist():
        col = np.zeros(K, dtype=np.uint8)
        for z0, length, state in vmap.column(m, n).runs:
            col[z0:z0 + length] = int(state)
        if not np.array_equal(col, truth[m, n]):
            out.append(f"voxels of column ({m},{n}) differ from the world")
            if len(out) >= _LIMIT:
                return out
    stray = [c for c in vmap.nonempty_columns() if not revealed[c]]
    if stray:
        out.append(f"{len(stray)} unrevealed columns hold voxels, e.g. {stray[0]}")
    return out


def path_cost(path) -> float:
    diagonal = sum(1 for a, b in zip(path, path[1:]) if a[0] != b[0] and a[1] != b[1])
    return (len(path) - 1 - diagonal) + diagonal * math.sqrt(2.0)


def path_valid(path, values: np.ndarray, start, goal) -> list[str]:
    """8-connected through free cells, from start to goal."""
    if not path:
        return ["no path"]
    out = []
    if tuple(path[0]) != tuple(start) or tuple(path[-1]) != tuple(goal):
        out.append(f"path runs {path[0]} -> {path[-1]}, not {start} -> {goal}")
    M, N = values.shape
    for a, b in zip(path, path[1:]):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
            out.append(f"path step {a} -> {b} is not an 8-neighbour step")
            break
    for m, n in path:
        if not (0 <= m < M and 0 <= n < N) or values[m, n] != 0.0:
            out.append(f"path cell ({m},{n}) is not free")
            break
    return out


class FreeGraph:
    """8-connected graph over the free cells of a grid, for scipy Dijkstra."""

    def __init__(self, values: np.ndarray):
        free = values == 0.0
        rows, cols = np.nonzero(free)
        self.m0, self.n0 = rows.min(), cols.min()
        sub = free[self.m0:rows.max() + 1, self.n0:cols.max() + 1]
        M, N = sub.shape
        self.shape = (M, N)
        src, dst, w = [], [], []
        ids = np.arange(M * N).reshape(M, N)
        for dm, dn in NEIGHBORS_8:
            a = sub[max(0, -dm):M - max(0, dm), max(0, -dn):N - max(0, dn)]
            b = sub[max(0, dm):M - max(0, -dm), max(0, dn):N - max(0, -dn)]
            ok = a & b
            src.append(ids[max(0, -dm):M - max(0, dm), max(0, -dn):N - max(0, dn)][ok])
            dst.append(ids[max(0, dm):M - max(0, -dm), max(0, dn):N - max(0, -dn)][ok])
            w.append(np.full(int(ok.sum()), math.sqrt(2.0) if dm and dn else 1.0))
        self.graph = csr_matrix((np.concatenate(w), (np.concatenate(src),
                                                     np.concatenate(dst))),
                                shape=(M * N, M * N))

    def node(self, cell) -> int:
        return (cell[0] - self.m0) * self.shape[1] + (cell[1] - self.n0)

    def costs(self, starts, goals) -> list[float]:
        dist = dijkstra(self.graph, indices=[self.node(s) for s in starts])
        return [float(dist[i, self.node(g)]) for i, g in enumerate(goals)]


def path_optimal(path, dijkstra_cost: float) -> list[str]:
    got = path_cost(path)
    if not abs(got - dijkstra_cost) <= 1e-9 * max(1.0, dijkstra_cost):
        return [f"path cost {got} differs from Dijkstra {dijkstra_cost}"]
    return []


def cell_center(m: int, n: int, res: float, origin) -> tuple[float, float]:
    return origin[0] + (m + 0.5) * res, origin[1] + (n + 0.5) * res


def ugv_lift(path, lifted, floor_m: np.ndarray, lookahead: int, offset: float,
             res: float, origin) -> list[str]:
    """Each UGV waypoint sits at its cell center, at its window's maximum
    floor plus the offset."""
    floors = [floor_m[m, n] for m, n in path]
    if len(lifted) != len(path):
        return [f"lifted path has {len(lifted)} waypoints, 2D path {len(path)}"]
    for i, ((m, n), (x, y, z)) in enumerate(zip(path, lifted)):
        want = max(floors[max(0, i - lookahead):i + lookahead + 1]) + offset
        cx, cy = cell_center(m, n, res, origin)
        if abs(x - cx) > 1e-9 or abs(y - cy) > 1e-9 or not abs(z - want) <= 1e-9:
            return [f"ugv waypoint {i}: {(x, y, z)}, want ({cx}, {cy}, {want})"]
    return []


def uav_clearance(waypoints, floor_m: np.ndarray, ceiling_m: np.ndarray,
                  radius: float, res: float, origin) -> list[str]:
    """Acceptance criterion 6: a sphere of `radius` around every UAV waypoint
    fits between the floor and ceiling of every present cell whose center
    lies within the radius."""
    M, N = floor_m.shape
    reach = math.ceil(radius / res)
    for i, (x, y, z) in enumerate(waypoints):
        m = int(math.floor((x - origin[0]) / res))
        n = int(math.floor((y - origin[1]) / res))
        for dm in range(-reach, reach + 1):
            for dn in range(-reach, reach + 1):
                mm, nn = m + dm, n + dn
                if math.hypot(dm, dn) * res > radius * (1.0 + 1e-12) or \
                        not (0 <= mm < M and 0 <= nn < N) or np.isnan(floor_m[mm, nn]):
                    continue
                f, c = floor_m[mm, nn], ceiling_m[mm, nn]
                if not (f <= z - radius + 1e-9 and z + radius <= c + 1e-9):
                    return [f"uav waypoint {i} at z={z}: sphere leaves span "
                            f"[{f}, {c}] of cell ({mm},{nn})"]
    return []
