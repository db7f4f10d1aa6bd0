"""The two workloads, driven through voxflat's public API.

known-map:   build and save a fully observed 512 x 512 world three times,
             convert it twice the way `voxflat convert` does, then repeat
             rounds of one-to-four voxel edits (each reverted later) and
             replans on the restored map.
exploration: load a small prior map and init() it, stream scan batches along
             a route through a much larger extent, replan both robots after
             every batch, and convert the explored map at the end of the
             mission, as an agent does before sharing its maps. The mission
             repeats until the run time is used up.

Every operation of the rounds is counted as attempted, and as failed when it
raises. Rounds are whole, so the operation mix, and the share that fails, is
the same in every run. known-map's set-up and conversion run once, before
the rounds; they are not counted, and a failure there stops the run.
"""
from __future__ import annotations

import math
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import voxflat as vf

import checks
import world
from host import Clock

PARAMS = vf.ConversionParams()
STATES = (vf.VoxelState.UNKNOWN, vf.VoxelState.OCCUPIED, vf.VoxelState.FREE)

KNOWN_EXTENT = 512
KNOWN_SETUPS = 3          # builds per run; setup_s is their median
KNOWN_CONVERTS = 2        # conversions per run; convert_s is their median
EDITS_PER_ROUND = 400     # each edit is reverted later: 800 update() calls
KNOWN_ROUTES = 6          # three along each axis; 8 replans on each per round
REPLAN_SPAN = 16          # route poses between start and goal (80 cells)
SLOPE_SAMPLE = 1500
OCCUPANCY_SAMPLE = 1500

EXPLORE_EXTENT = 512
BATCHES = 40              # scan batches per mission
STRIDE = 10.0             # cells the robot moves between batches
SENSOR_RADIUS = 14        # cells
PRIOR_RADIUS = 30         # cells of the prior map around the first pose
FLIP_SHARE = 0.05         # share of re-observed columns with a flipped voxel
LAG = 6                   # replan back to the pose this many batches earlier


class Run:
    """Timings, counts and check results gathered by one benchmark run."""

    def __init__(self, tracer, scratch: Path):
        self.tracer = tracer
        self.scratch = scratch
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.prepared: Counter = Counter()
        self.clock = Clock()
        self.problems: list[str] = []
        self.map_bytes = 0
        self.reports: list = []
        self.voxels_written: list[int] = []
        self.changed_cells = 0
        self.rss_growth_mb: list[float] = []
        self.waypoints: list[int] = []
        self.clearance_moved: list[int] = []

    def attempt(self, kind: str, fn, *args):
        """Run one operation; an exception counts it as failed."""
        self.attempted[kind] += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed[kind] += 1
            detail = traceback.format_exc() if self.failed[kind] == 1 else repr(exc)
            print(f"{kind} failed: {detail}", file=sys.stderr)
            return None

    def once(self, kind: str, fn, *args):
        """Run a one-time preparation step. It is not counted with the rounds'
        operations, so a failure stops the run instead."""
        self.prepared[kind] += 1
        return fn(*args)

    def check(self, name: str, problems: list[str]) -> None:
        self.problems.extend(f"{name}: {p}" for p in problems)


def rss_mb() -> float:
    """Current resident memory of this process."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def build_and_save(run: Run, boxes, extent, path: Path) -> None:
    """Setup of known-map: build the voxel map with fill_box, save it as VXG."""
    with run.tracer.span("phase.setup"), run.clock.measure("setup"):
        vmap = vf.VoxelMap(world.RES, world.ORIGIN, extent)
        for i0, i1, j0, j1, k0, k1, s in boxes:
            vmap.fill_box(i0, i1, j0, j1, k0, k1, STATES[s])
        vf.save_voxel_map(vmap, path)


def load_and_init(run: Run, path: Path):
    """Setup of exploration: load the prior map and convert it."""
    with run.tracer.span("phase.setup"), run.clock.measure("setup"):
        state = vf.init(vf.load_voxel_map(path), PARAMS)
    return state


def convert(run: Run, vxg: Path, out_dir: Path):
    """The work of `voxflat convert`: load, init and the four G2D writes."""
    paths = {k: out_dir / f"{k}.g2d" for k in ("uav", "ugv", "height", "slope")}
    rss0 = rss_mb()
    with run.tracer.span("phase.convert"), run.clock.measure("convert"):
        state = vf.init(vf.load_voxel_map(vxg), PARAMS)
        vf.write_occupancy(state.uav, paths["uav"])
        vf.write_occupancy(state.ugv, paths["ugv"])
        vf.write_height(state.height, True, paths["height"])
        vf.write_slope(state.slope, paths["slope"])
    run.rss_growth_mb.append(rss_mb() - rss0)
    run.map_bytes = sum(p.stat().st_size for p in paths.values())
    return state, paths


def timed_update(run: Run, state, cells) -> None:
    window = _window(cells, state.uav.values.shape) if run.tracer.enabled else None
    if window is not None:
        before = state.uav.values[window].copy(), state.ugv.values[window].copy()
    with run.clock.measure("update"):
        report = vf.update(state, cells)
    run.reports.append(report)
    run.voxels_written.append(len(cells))
    if window is not None:
        run.changed_cells += int(np.count_nonzero(
            (before[0] != state.uav.values[window])
            | (before[1] != state.ugv.values[window])))


def _window(cells, shape):
    """Slices around the written columns that hold every cell whose occupancy
    can depend on them: the slope window plus the 8-neighbourhood, and one
    cell to spare."""
    margin = PARAMS.slope_radius_cells(world.RES) + 2
    ms = [c[0] for c in cells]
    ns = [c[1] for c in cells]
    return (slice(max(0, min(ms) - margin), min(shape[0], max(ms) + margin + 1)),
            slice(max(0, min(ns) - margin), min(shape[1], max(ns) + margin + 1)))


@dataclass(frozen=True)
class Replan:
    start: tuple[int, int]
    goal: tuple[int, int]
    ugv_path: list
    ugv_3d: list
    uav_path: list
    uav_3d: list


def replan(run: Run, state, start, goal) -> Replan:
    """Both robots' 3D paths from start to goal on the current grids."""
    ugv_params = vf.LiftParams.ugv_defaults(state.voxels.resolution)
    uav_params = vf.LiftParams.uav_defaults(state.voxels.resolution)
    with run.tracer.span("phase.replan"), run.clock.measure("replan"):
        ugv_path = vf.plan_2d(state.ugv, start, goal)
        ugv_3d = vf.lift_path(ugv_path, state.height, ugv_params)
        uav_path = vf.plan_2d(state.uav, start, goal)
        uav_lifted = vf.lift_path(uav_path, state.height, uav_params)
        uav_3d = vf.enforce_clearance(uav_lifted, state.height, uav_params.safety_radius)
    run.waypoints.append(len(ugv_path) + len(uav_path))
    run.clearance_moved.append(sum(1 for a, b in zip(uav_lifted, uav_3d) if a != b))
    return Replan(start, goal, ugv_path, ugv_3d, uav_path, uav_3d)


def check_replans(run: Run, plans, ugv_values, uav_values, floor_m, ceiling_m) -> None:
    """Paths are free, 8-connected and as short as Dijkstra's; lifts hold."""
    plans = [p for p in plans if p is not None]
    if not plans:
        return
    ugv_params = vf.LiftParams.ugv_defaults(world.RES)
    uav_params = vf.LiftParams.uav_defaults(world.RES)
    starts = [p.start for p in plans]
    goals = [p.goal for p in plans]
    ugv_cost = checks.FreeGraph(ugv_values).costs(starts, goals)
    uav_cost = checks.FreeGraph(uav_values).costs(starts, goals)
    for p, cu, ca in zip(plans, ugv_cost, uav_cost):
        run.check("ugv path", checks.path_valid(p.ugv_path, ugv_values, p.start, p.goal)
                  + checks.path_optimal(p.ugv_path, cu))
        run.check("uav path", checks.path_valid(p.uav_path, uav_values, p.start, p.goal)
                  + checks.path_optimal(p.uav_path, ca))
        run.check("ugv lift", checks.ugv_lift(p.ugv_path, p.ugv_3d, floor_m,
                                              ugv_params.lookahead,
                                              ugv_params.height_offset,
                                              world.RES, world.ORIGIN))
        run.check("uav clearance", checks.uav_clearance(p.uav_3d, floor_m, ceiling_m,
                                                        uav_params.safety_radius,
                                                        world.RES, world.ORIGIN))


def stale_flag_probe() -> None:
    """update() on a fixed 5 x 5 map must match init().

    The center cell's slope window starts collinear (only row 2 has floor),
    so its fit is degenerate; one update adds floor at (1, 2) and makes the
    fit well posed. update() keeps the cell's degeneracy flag set while a
    fresh init() clears it, so this raises on every call until update()
    clears the flag. The inputs do not depend on the seed.
    """
    vmap = vf.VoxelMap(world.RES, world.ORIGIN, (5, 5, 12))
    vmap.fill_box(2, 3, 0, 5, 0, 12, vf.VoxelState.FREE)
    state = vf.init(vmap, PARAMS)
    vf.update(state, [(1, 2, k, vf.VoxelState.FREE) for k in range(12)])
    fresh = vf.init(state.voxels, PARAMS)
    stale = np.argwhere(state.slope.degenerate != fresh.slope.degenerate).tolist()
    if stale:
        raise RuntimeError(f"update() left stale slope degeneracy flags at {stale}")


def disc(M: int, N: int, center, radius: float) -> np.ndarray:
    """Cells of an M x N grid within `radius` of `center`."""
    mm, nn = np.ogrid[:M, :N]
    return np.hypot(mm - center[0], nn - center[1]) <= radius


# -- known-map ---------------------------------------------------------------


def edit_stream(rng, w: world.World, edits: int) -> list[list]:
    """`edits` one-to-four-voxel edits, each reverted to the world's states
    1-16 operations later; every edit and every revert is one update()."""
    M, N, K = w.extent
    interior = np.zeros((M, N), dtype=bool)
    interior[1:-1, 1:-1] = True
    candidates = np.argwhere(interior & ~w.protected)
    ops, pending = [], []
    for t in range(edits):
        m, n = (int(v) for v in candidates[rng.integers(len(candidates))])
        count = int(rng.integers(1, 5))
        k0 = int(rng.integers(0, K - count + 1))
        truth = w.voxels[m, n, k0:k0 + count].astype(int)
        new = (truth + rng.integers(1, 3, count)) % 3
        ops.append([(m, n, k0 + i, STATES[int(s)]) for i, s in enumerate(new)])
        pending.append((t + int(rng.integers(1, 17)),
                        [(m, n, k0 + i, STATES[int(s)]) for i, s in enumerate(truth)]))
        due = [p for p in pending if p[0] <= t]
        pending = [p for p in pending if p[0] > t]
        ops.extend(cells for _, cells in due)
    ops.extend(cells for _, cells in pending)
    return ops


def known_map(run: Run, seed: int, seconds: float) -> None:
    rng = np.random.default_rng(seed)
    w = world.generate_world(rng, KNOWN_EXTENT, KNOWN_EXTENT, poses=80, stride=5.0,
                             routes=KNOWN_ROUTES)
    M, N, K = w.extent
    boxes = world.column_boxes(w.voxels)
    fk, ck = world.floor_ceiling_index(w.voxels)
    floor_m = checks.floors_m(fk, world.RES, world.ORIGIN[2])
    ceiling_m = checks.floors_m(ck, world.RES, world.ORIGIN[2])
    ops = edit_stream(rng, w, EDITS_PER_ROUND)
    pairs = [(w.pose_cell(r, a), w.pose_cell(r, a + REPLAN_SPAN))
             for r in range(KNOWN_ROUTES)
             for a in range(0, len(w.routes[r]) - REPLAN_SPAN, 8)]
    present = np.argwhere(fk >= 0)
    slope_cells = present[rng.choice(len(present), SLOPE_SAMPLE, replace=False)]
    boundary = np.argwhere((fk < 0) & checks.next_to(fk >= 0))
    occ_cells = boundary[rng.choice(len(boundary), min(OCCUPANCY_SAMPLE, len(boundary)),
                                    replace=False)]

    vxg = run.scratch / "world.vxg"
    for _ in range(KNOWN_SETUPS):
        run.once("setup", build_and_save, run, boxes, (M, N, K), vxg)
    del boxes
    for _ in range(KNOWN_CONVERTS):
        state = None  # free the previous conversion first
        state, paths = run.once("convert", convert, run, vxg, run.scratch)
    res, oz = world.RES, world.ORIGIN[2]
    run.check("floor/ceiling", checks.floor_ceiling(state.height, fk, ck, res, oz))
    run.check("slope", checks.slope_sample(state.slope, floor_m, slope_cells,
                                           PARAMS.slope_radius_cells(res), res,
                                           world.ORIGIN))
    run.check("occupancy", checks.occupancy(state.uav.values, w.voxels, fk, ck,
                                            occ_cells, res, PARAMS.min_occupancy))
    run.check("ugv", checks.ugv_from_uav(state.uav.values, state.ugv.values,
                                         state.slope.values, PARAMS.max_slope))
    run.check("g2d", checks.g2d_roundtrip(paths, state))
    converted_grids = checks.snapshot(state)

    first = None
    deadline = time.perf_counter() + seconds
    while True:
        for cells in ops:
            run.attempt("edit", timed_update, run, state, cells)
        run.check("edits reverted", checks.grids_identical(converted_grids, state))
        run.attempt("probe", stale_flag_probe)
        plans = [run.attempt("replan", replan, run, state, s, g) for s, g in pairs]
        if first is None:
            first = plans
            check_replans(run, plans, state.ugv.values, state.uav.values,
                          floor_m, ceiling_m)
        elif plans != first:
            run.check("replan", ["paths differ from the first round's"])
        if time.perf_counter() >= deadline:
            break


# -- exploration -------------------------------------------------------------


def scan_batches(rng, w: world.World, revealed: np.ndarray):
    """Per batch: restore last batch's flipped voxels, write the true states of
    the columns entering the sensor footprint, and flip one surface voxel in a
    share of the re-observed columns. Returns the batches as (n, 4) int32
    arrays of (i, j, k, state) and the columns revealed at the end."""
    M, N, K = w.extent
    fk, ck = world.floor_ceiling_index(w.voxels)
    revealed = revealed.copy()
    batches, flips = [], []
    for b in range(1, BATCHES + 1):
        foot = disc(M, N, w.routes[0][b], SENSOR_RADIUS)
        new = foot & ~revealed
        rows = [(m, n, k, int(w.voxels[m, n, k])) for m, n, k in flips]
        nm, nn = np.nonzero(new)
        cols = w.voxels[nm, nn]
        ci, kk = np.nonzero(cols)
        rows.extend(zip(nm[ci].tolist(), nn[ci].tolist(), kk.tolist(),
                        cols[ci, kk].tolist()))
        flips = []
        if b < BATCHES:
            seen = np.argwhere(foot & revealed & ~w.protected & (fk >= 0))
            count = int(round(FLIP_SHARE * len(seen)))
            for m, n in seen[rng.choice(len(seen), count, replace=False)].tolist():
                f, c = int(fk[m, n]), int(ck[m, n])
                options = [f, c - 1]  # free voxels on the surfaces
                if f >= 1 and w.voxels[m, n, f - 1] == world.OCCUPIED:
                    options.append(f - 1)
                if c < K and w.voxels[m, n, c] == world.OCCUPIED:
                    options.append(c)
                k = options[int(rng.integers(len(options)))]
                state = world.FREE if w.voxels[m, n, k] == world.OCCUPIED else world.OCCUPIED
                rows.append((m, n, k, state))
                flips.append((m, n, k))
        revealed |= new
        batches.append(np.array(rows, dtype=np.int32).reshape(-1, 4))
    return batches, revealed


def exploration(run: Run, seed: int, seconds: float) -> None:
    rng = np.random.default_rng(seed)
    w = world.generate_world(rng, EXPLORE_EXTENT, EXPLORE_EXTENT,
                             poses=BATCHES + 1, stride=STRIDE)
    M, N, K = w.extent
    prior = disc(M, N, w.routes[0][0], PRIOR_RADIUS)
    prior_vox = np.where(prior[..., None], w.voxels, np.uint8(world.UNKNOWN))
    prior_path = run.scratch / "prior.vxg"
    vmap = vf.VoxelMap(world.RES, world.ORIGIN, w.extent)
    for i0, i1, j0, j1, k0, k1, s in world.column_boxes(prior_vox):
        vmap.fill_box(i0, i1, j0, j1, k0, k1, STATES[s])
    vf.save_voxel_map(vmap, prior_path)
    del vmap
    batches, revealed = scan_batches(rng, w, prior)
    pairs = [(w.pose_cell(0, b), w.pose_cell(0, max(0, b - LAG)))
             for b in range(1, BATCHES + 1)]
    explored = run.scratch / "explored.vxg"

    first = None
    deadline = time.perf_counter() + seconds
    while True:
        state = run.attempt("setup", load_and_init, run, prior_path)
        if state is None:
            return
        mirror = prior_vox.copy() if first is None else None
        plans = []
        for rows, (start, goal) in zip(batches, pairs):
            cells = [(m, n, k, STATES[v]) for m, n, k, v in rows.tolist()]
            run.attempt("batch", timed_update, run, state, cells)
            plan = run.attempt("replan", replan, run, state, start, goal)
            plans.append(plan)
            if mirror is not None:
                mirror[rows[:, 0], rows[:, 1], rows[:, 2]] = rows[:, 3]
                floor_m, ceiling_m = _heights(mirror, plan)
                check_replans(run, [plan], state.ugv.values, state.uav.values,
                              floor_m, ceiling_m)
        if first is None:
            first = plans
        elif plans != first:
            run.check("replan", ["paths differ from the first round's"])
        with run.tracer.span("phase.share"):
            vf.save_voxel_map(state.voxels, explored)
        converted = run.attempt("convert", convert, run, explored, run.scratch)
        if converted is not None:
            fresh, paths = converted
            run.check("rebuild equivalence", checks.rebuild_equivalent(state, fresh))
            run.check("g2d", checks.g2d_roundtrip(paths, fresh))
            del fresh
        run.check("voxels", checks.voxels_match(state.voxels, w.voxels, revealed))
        run.attempt("probe", stale_flag_probe)
        del state
        if time.perf_counter() >= deadline:
            break


def _heights(mirror: np.ndarray, plan) -> tuple[np.ndarray, np.ndarray]:
    """Floor and ceiling (m) from the benchmark's own copy of the voxel map,
    on the box around the plan's paths that the lift checks read."""
    M, N, _ = mirror.shape
    floor_m = np.full((M, N), np.nan)
    ceiling_m = np.full((M, N), np.nan)
    if plan is None:
        return floor_m, ceiling_m
    cells = np.array(plan.ugv_path + plan.uav_path)
    reach = math.ceil(0.5 / world.RES) + 1
    m0, n0 = np.maximum(cells.min(axis=0) - reach, 0)
    m1, n1 = np.minimum(cells.max(axis=0) + reach + 1, (M, N))
    fk, ck = world.floor_ceiling_index(mirror[m0:m1, n0:n1])
    floor_m[m0:m1, n0:n1] = checks.floors_m(fk, world.RES, world.ORIGIN[2])
    ceiling_m[m0:m1, n0:n1] = checks.floors_m(ck, world.RES, world.ORIGIN[2])
    return floor_m, ceiling_m
