"""Seeded synthetic worlds for the benchmark, generated in numpy.

A world is a dense (M, N, K) uint8 array of voxel states plus routes:
smooth walks across the map whose corridors are kept clear of clutter, so
that paths between route points exist on both the aerial and the ground
grid.

Every interior column holds an observed floor surface one to three voxels
thick (Unknown below, as a sensor never sees inside the ground), free space
up to its ceiling and an observed ceiling surface above (Unknown beyond).
Clutter varies the columns: smooth floor relief, rubble patches and cones
steeper than the ground robot's limit, boxes, tables too low to pass under,
cabinets too tall to stand on, pillars, wall segments and beams that lower
the ceiling. Heights are chosen so that every navigable cell has floor index
<= FLOOR_MAX and ceiling index >= CEILING_MIN, and stays so under one-voxel
surface flips; that keeps a 0.5 m aerial clearance sphere feasible
everywhere.

Nothing here calls the program: the benchmark hands the arrays to the
library through its public API (see `column_boxes`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RES = 0.1
ORIGIN = (0.0, 0.0, 0.0)
K = 32
UNKNOWN, OCCUPIED, FREE = 0, 1, 2
MIN_FREE_RUN = 10         # voxels in the 1 m default vertical safety margin
FLOOR_MAX = 9             # highest floor index clutter creates
CEILING_MIN = 22          # lowest ceiling index clutter creates
CORRIDOR_HALF_WIDTH = 4.5  # cells kept clear on each side of a route
PROTECTED_RADIUS = 1.5     # cells around a route's centerline never edited


@dataclass
class World:
    voxels: np.ndarray        # (M, N, K) uint8 states
    routes: list[np.ndarray]  # per route, (P, 2) float cell coordinates of poses
    protected: np.ndarray     # (M, N) bool, route centerline cells

    @property
    def extent(self) -> tuple[int, int, int]:
        return self.voxels.shape

    def pose_cell(self, route: int, index: int) -> tuple[int, int]:
        m, n = np.rint(self.routes[route][index]).astype(int)
        return int(m), int(n)


def generate_world(rng: np.random.Generator, M: int, N: int, poses: int,
                   stride: float, routes: int = 1) -> World:
    """A fully observed M x N x K world with `routes` cleared routes of
    `poses` poses each.

    A route starts near one edge and heads across the map with little
    turning, so it does not loop back over ground it has covered. Routes
    alternate between the two axes and are spread evenly across the map.
    """
    floor = np.rint(_smooth_field(rng, M, N, 40, 0.0, 3.0)).astype(np.int16)
    ceiling = np.rint(_smooth_field(rng, M, N, 60, 26.0, 30.0)).astype(np.int16)
    table = np.full((M, N), -1, dtype=np.int16)
    solid = np.zeros((M, N), dtype=bool)

    blocks = max(1, (M * N) // (64 * 64))
    for _ in range(blocks // 2):      # rubble: per-cell heights, steep fits
        m0, m1, n0, n1 = _rect(rng, M, N, 6, 20)
        floor[m0:m1, n0:n1] = rng.integers(0, FLOOR_MAX + 1, (m1 - m0, n1 - n0))
    for _ in range(blocks):           # cones: rise 3 voxels per cell
        cm, cn = int(rng.integers(5, M - 5)), int(rng.integers(5, N - 5))
        top = int(rng.integers(6, FLOOR_MAX + 1))
        mm, nn = np.ogrid[cm - 3:cm + 4, cn - 3:cn + 4]
        cone = np.floor(top - 3.0 * np.hypot(mm - cm, nn - cn)).astype(np.int16)
        window = floor[cm - 3:cm + 4, cn - 3:cn + 4]
        np.maximum(window, cone, out=window)
    for _ in range(4 * blocks):       # boxes standing on the floor
        m0, m1, n0, n1 = _rect(rng, M, N, 3, 12)
        floor[m0:m1, n0:n1] = np.minimum(
            floor[m0:m1, n0:n1] + int(rng.integers(3, 7)), FLOOR_MAX)
    for _ in range(2 * blocks):       # tables: a slab too low to pass under
        m0, m1, n0, n1 = _rect(rng, M, N, 4, 10)
        table[m0:m1, n0:n1] = int(rng.integers(6, FLOOR_MAX))
    for _ in range(4 * blocks):       # pillars
        m0, m1, n0, n1 = _rect(rng, M, N, 1, 4)
        solid[m0:m1, n0:n1] = True
    for _ in range(blocks):           # wall segments
        m0, n0 = int(rng.integers(2, M - 2)), int(rng.integers(2, N - 2))
        length = int(rng.integers(10, 60))
        thick = int(rng.integers(1, 3))
        if rng.random() < 0.5:
            solid[m0:m0 + length, n0:n0 + thick] = True
        else:
            solid[m0:m0 + thick, n0:n0 + length] = True
    for _ in range(2 * blocks):       # beams and lamps lower the ceiling
        m0, m1, n0, n1 = _rect(rng, M, N, 2, 14)
        ceiling[m0:m1, n0:n1] = np.minimum(
            ceiling[m0:m1, n0:n1], int(rng.integers(CEILING_MIN, 27)))
    for _ in range(2 * blocks):       # cabinets: under 9 free voxels on top
        m0, m1, n0, n1 = _rect(rng, M, N, 2, 6)
        floor[m0:m1, n0:n1] = ceiling[m0:m1, n0:n1] - int(rng.integers(3, 9))
    # Tables sit above their floor; a table below a raised floor is dropped.
    table[table <= floor] = -1

    margin = min(40, min(M, N) // 4)
    lanes = (routes + 1) // 2
    walks = [_crossing_walk(rng, M, N, poses, stride, margin, axis=r % 2,
                            lane=(r // 2 + 0.5) / lanes)
             for r in range(routes)]
    corridor, protected = _route_masks(walks, M, N)
    relief = np.rint(_smooth_field(np.random.default_rng(rng.integers(1 << 62)),
                                   M, N, 40, 0.0, 3.0)).astype(np.int16)
    floor[corridor] = relief[corridor]
    ceiling[corridor] = np.maximum(ceiling[corridor], 26)
    table[corridor] = -1
    solid[corridor] = False

    below = floor - rng.integers(1, 4, (M, N))    # observed floor surface
    above = ceiling + rng.integers(1, 8, (M, N))  # observed ceiling surface
    k = np.arange(K, dtype=np.int16)[None, None, :]
    vox = np.where((k >= floor[..., None]) & (k < ceiling[..., None]),
                   np.uint8(FREE), np.uint8(OCCUPIED))
    vox[(k < below[..., None]) | (k >= above[..., None])] = UNKNOWN
    vox[k[0, 0] == table[..., None]] = OCCUPIED
    vox[solid] = OCCUPIED
    # Frame: an unobserved margin ring, then a full-height wall ring.
    vox[[1, -2], 1:-1] = OCCUPIED
    vox[1:-1, [1, -2]] = OCCUPIED
    vox[[0, -1], :] = UNKNOWN
    vox[:, [0, -1]] = UNKNOWN
    return World(vox, walks, protected)


def _smooth_field(rng, M, N, cell, lo, hi) -> np.ndarray:
    """Bilinear upsampling of a coarse uniform grid; values in [lo, hi]."""
    gm, gn = M // cell + 2, N // cell + 2
    coarse = rng.uniform(lo, hi, (gm, gn))
    u = np.arange(M) / cell
    v = np.arange(N) / cell
    i0 = np.floor(u).astype(int)
    j0 = np.floor(v).astype(int)
    fu = (u - i0)[:, None]
    fv = (v - j0)[None, :]
    a = coarse[i0][:, j0]
    b = coarse[i0 + 1][:, j0]
    c = coarse[i0][:, j0 + 1]
    d = coarse[i0 + 1][:, j0 + 1]
    return (a * (1 - fu) * (1 - fv) + b * fu * (1 - fv)
            + c * (1 - fu) * fv + d * fu * fv)


def _rect(rng, M, N, lo, hi) -> tuple[int, int, int, int]:
    h, w = (int(v) for v in rng.integers(lo, hi + 1, 2))
    m0 = int(rng.integers(2, M - 2 - h))
    n0 = int(rng.integers(2, N - 2 - w))
    return m0, m0 + h, n0, n0 + w


def _crossing_walk(rng, M, N, poses, stride, margin, axis, lane) -> np.ndarray:
    """Smooth walk from near the low edge of `axis` across the map, starting
    near the fraction `lane` of the other axis; it turns toward the center if
    it would leave the margin."""
    across = (N, M)[axis]
    side = rng.uniform(lane - 0.1, lane + 0.1) * across
    pos = np.array([margin + 10.0, side] if axis == 0 else [side, margin + 10.0])
    heading = rng.uniform(-0.2, 0.2) + axis * math.pi / 2
    turn = 0.04
    out = [pos.copy()]
    center = np.array([M / 2, N / 2])
    for _ in range(poses - 1):
        heading += rng.normal(0.0, turn)
        nxt = pos + stride * np.array([math.cos(heading), math.sin(heading)])
        if not (margin <= nxt[0] <= M - margin and margin <= nxt[1] <= N - margin):
            to_center = center - pos
            heading = math.atan2(to_center[1], to_center[0]) + rng.normal(0.0, turn)
            nxt = pos + stride * np.array([math.cos(heading), math.sin(heading)])
        pos = nxt
        out.append(pos.copy())
    return np.array(out)


def _route_masks(routes, M, N) -> tuple[np.ndarray, np.ndarray]:
    """Cells within the corridor half-width, and within the protected radius,
    of any route's polyline."""
    pts = []
    for route in routes:
        pts.append(route[:1])
        for a, b in zip(route[:-1], route[1:]):
            steps = max(1, int(math.ceil(np.hypot(*(b - a)) * 2)))
            t = np.arange(1, steps + 1)[:, None] / steps
            pts.append(a + t * (b - a))
    pts = np.vstack(pts)
    corridor = np.zeros((M, N), dtype=bool)
    protected = np.zeros((M, N), dtype=bool)
    reach = int(math.ceil(CORRIDOR_HALF_WIDTH))
    base = np.floor(pts).astype(int)
    for dm in range(-reach, reach + 2):
        for dn in range(-reach, reach + 2):
            cm = base[:, 0] + dm
            cn = base[:, 1] + dn
            dist = np.hypot(cm - pts[:, 0], cn - pts[:, 1])
            ok = (cm >= 0) & (cm < M) & (cn >= 0) & (cn < N)
            corridor[cm[ok & (dist <= CORRIDOR_HALF_WIDTH)],
                     cn[ok & (dist <= CORRIDOR_HALF_WIDTH)]] = True
            protected[cm[ok & (dist <= PROTECTED_RADIUS)],
                      cn[ok & (dist <= PROTECTED_RADIUS)]] = True
    return corridor, protected


def column_boxes(vox: np.ndarray) -> list[tuple[int, ...]]:
    """`fill_box` arguments that write the non-Unknown voxels of a dense array.

    Consecutive identical columns of one row share their boxes, so a flat
    area costs one call per vertical run rather than one per column.
    """
    M, N, Kz = vox.shape
    new_segment = np.ones((M, N), dtype=bool)
    new_segment[:, 1:] = (vox[:, 1:] != vox[:, :-1]).any(axis=2)
    sm, sn = np.nonzero(new_segment)
    same_row = np.r_[sm[1:] == sm[:-1], False]
    seg_end = np.where(same_row, np.r_[sn[1:], N], N)
    cols = vox[sm, sn]
    run_start = np.ones(cols.shape, dtype=bool)
    run_start[:, 1:] = cols[:, 1:] != cols[:, :-1]
    seg, k0 = np.nonzero(run_start)
    last = np.r_[seg[1:] != seg[:-1], True]
    k1 = np.where(last, Kz, np.r_[k0[1:], Kz])
    state = cols[seg, k0]
    keep = state != UNKNOWN
    boxes = np.stack([sm[seg], sm[seg] + 1, sn[seg], seg_end[seg], k0, k1, state],
                     axis=1)[keep]
    return [tuple(b) for b in boxes.tolist()]


def floor_ceiling_index(vox: np.ndarray, min_run: int = MIN_FREE_RUN):
    """Per column (floor, ceiling) voxel indices, -1 where no free run survives.

    `vox` is any stack of columns with k as its last axis.

    A free run survives when it is at least `min_run` voxels long; the floor
    is the bottom of the lowest survivor and the ceiling the top of the
    highest. Computed in integer indices, independently of the program.
    """
    *lead, Kz = vox.shape
    floor = np.full(lead, -1, dtype=np.int32)
    ceiling = np.full(lead, -1, dtype=np.int32)
    start = np.zeros(lead, dtype=np.int32)
    none = np.zeros(lead, dtype=bool)
    for k in range(Kz + 1):
        free = vox[..., k] == FREE if k < Kz else none
        prev = vox[..., k - 1] == FREE if k > 0 else none
        begins = free & ~prev
        start[begins] = k
        ends = prev & ~free
        kept = ends & (k - start >= min_run)
        floor[kept & (floor < 0)] = start[kept & (floor < 0)]
        ceiling[kept] = k
    return floor, ceiling
