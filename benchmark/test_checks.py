"""Each benchmark check passes on the program's output and rejects a planted
corruption of it; the host-speed clock removes and scales as documented.

    python3 -m pytest -q benchmark/test_checks.py
"""
import copy
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import voxflat as vf  # noqa: E402

import checks  # noqa: E402
import host  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import world  # noqa: E402

RES, ORIGIN = world.RES, world.ORIGIN
OZ = ORIGIN[2]
PARAMS = workloads.PARAMS


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    rng = np.random.default_rng(5)
    w = world.generate_world(rng, 96, 96, poses=8, stride=4.0)
    vmap = vf.VoxelMap(RES, ORIGIN, w.extent)
    for i0, i1, j0, j1, k0, k1, s in world.column_boxes(w.voxels):
        vmap.fill_box(i0, i1, j0, j1, k0, k1, workloads.STATES[s])
    state = vf.init(vmap, PARAMS)
    fk, ck = world.floor_ceiling_index(w.voxels)
    out = tmp_path_factory.mktemp("g2d")
    paths = {k: out / f"{k}.g2d" for k in ("uav", "ugv", "height", "slope")}
    vf.write_occupancy(state.uav, paths["uav"])
    vf.write_occupancy(state.ugv, paths["ugv"])
    vf.write_height(state.height, True, paths["height"])
    vf.write_slope(state.slope, paths["slope"])
    return w, state, fk, ck, paths


def _present_cell(fk):
    present = np.argwhere(fk >= 0)
    return tuple(int(v) for v in present[len(present) // 2])


def test_floor_ceiling(scene):
    w, state, fk, ck, _ = scene
    assert checks.floor_ceiling(state.height, fk, ck, RES, OZ) == []
    bad = copy.deepcopy(state.height)
    bad.floor[_present_cell(fk)] += RES
    assert checks.floor_ceiling(bad, fk, ck, RES, OZ)
    bad = copy.deepcopy(state.height)
    bad.ceiling[_present_cell(fk)] = np.nan
    assert checks.floor_ceiling(bad, fk, ck, RES, OZ)


def test_slope_sample(scene):
    w, state, fk, ck, _ = scene
    floor_m = checks.floors_m(fk, RES, OZ)
    cells = np.argwhere(fk >= 0)
    radius = PARAMS.slope_radius_cells(RES)
    assert checks.slope_sample(state.slope, floor_m, cells, radius, RES, ORIGIN) == []
    steep = np.argwhere(state.slope.values > PARAMS.max_slope)
    assert len(steep), "the world should hold slopes above the ground robot's limit"
    cell = tuple(steep[0])
    bad = copy.deepcopy(state.slope)
    bad.values[cell] *= 1.0 + 1e-6
    assert checks.slope_sample(bad, floor_m, np.array([cell]), radius, RES, ORIGIN)
    bad = copy.deepcopy(state.slope)
    bad.degenerate[cell] = True
    assert checks.slope_sample(bad, floor_m, np.array([cell]), radius, RES, ORIGIN)


def test_occupancy(scene):
    w, state, fk, ck, _ = scene
    present = fk >= 0
    boundary = np.argwhere(~present & checks.next_to(present))
    args = (w.voxels, fk, ck, boundary, RES, PARAMS.min_occupancy)
    assert checks.occupancy(state.uav.values, *args) == []
    ratio = np.argwhere(state.uav.values > 0.0)[0]
    bad = state.uav.values.copy()
    bad[tuple(ratio)] = -1.0
    assert checks.occupancy(bad, *args)
    bad = state.uav.values.copy()
    bad[_present_cell(fk)] = -1.0
    assert checks.occupancy(bad, *args)
    unknown = np.argwhere(~present & ~checks.next_to(present))[0]
    bad = state.uav.values.copy()
    bad[tuple(unknown)] = 0.0
    assert checks.occupancy(bad, *args)


def test_ugv_from_uav(scene):
    _, state, fk, _, _ = scene
    args = (state.uav.values, state.ugv.values, state.slope.values, PARAMS.max_slope)
    assert checks.ugv_from_uav(*args) == []
    steep = tuple(np.argwhere((state.ugv.values == 1.0) & (state.uav.values == 0.0))[0])
    bad = state.ugv.values.copy()
    bad[steep] = 0.0
    assert checks.ugv_from_uav(state.uav.values, bad, state.slope.values, PARAMS.max_slope)


@pytest.mark.parametrize("key", ["uav", "ugv", "height", "slope"])
def test_g2d_roundtrip(scene, tmp_path, key):
    _, state, fk, _, paths = scene
    assert checks.g2d_roundtrip(paths, state) == []
    corrupt = dict(paths)
    data = bytearray(paths[key].read_bytes())
    M, N = fk.shape
    cell_bytes = {"uav": 1, "ugv": 1, "height": 8, "slope": 4}[key]
    m, n = _present_cell(fk)
    data[len(data) - M * N * cell_bytes + (m * N + n) * min(cell_bytes, 4)] ^= 0x40
    corrupt[key] = tmp_path / f"{key}.g2d"
    corrupt[key].write_bytes(bytes(data))
    assert checks.g2d_roundtrip(corrupt, state)


def test_grids_identical_and_rebuild(scene):
    w, state, fk, _, _ = scene
    snap = checks.snapshot(state)
    assert checks.grids_identical(snap, state) == []
    for key in ("floor", "ceiling", "slope", "uav", "ugv"):
        bad = copy.deepcopy(snap)
        cell = _present_cell(fk)
        bad[key][cell] = bad[key][cell] + 0.5
        assert checks.grids_identical(bad, state) == [f"{key} differs"]
    # A flag init() sets but the streamed state lacks is an error; the
    # reverse is the stale flag update() leaves (reported by the probe).
    flagged = copy.deepcopy(snap)
    flagged["degenerate"][_present_cell(fk)] = True
    assert checks.grids_identical(flagged, state) == ["degenerate differs"]
    fresh = vf.init(state.voxels, PARAMS)
    assert checks.rebuild_equivalent(state, fresh) == []
    fresh.ranges.pop(next(iter(fresh.ranges)))
    assert checks.rebuild_equivalent(state, fresh) == ["column ranges differ"]


def test_voxels_match(scene):
    w, state, _, _, _ = scene
    M, N, K = w.extent
    revealed = w.voxels.any(axis=2)
    assert checks.voxels_match(state.voxels, w.voxels, revealed) == []
    vmap = copy.deepcopy(state.voxels)
    m, n = (int(v) for v in np.argwhere(revealed)[0])
    k = int(np.flatnonzero(w.voxels[m, n])[0])
    vmap.apply_cells([(m, n, k, vf.VoxelState.UNKNOWN)])
    assert checks.voxels_match(vmap, w.voxels, revealed)
    hidden = revealed.copy()
    hidden[m, n] = False
    assert checks.voxels_match(state.voxels, w.voxels, hidden)


def _plans(w, state, fk, ck):
    start, goal = w.pose_cell(0, 0), w.pose_cell(0, len(w.routes[0]) - 1)
    run = workloads.Run(tracer.Tracer(False), Path("."))
    plan = workloads.replan(run, state, start, goal)
    return plan, checks.floors_m(fk, RES, OZ), checks.floors_m(ck, RES, OZ)


def test_paths_and_lifts(scene):
    w, state, fk, ck, _ = scene
    plan, floor_m, ceiling_m = _plans(w, state, fk, ck)
    run = workloads.Run(tracer.Tracer(False), Path("."))
    workloads.check_replans(run, [plan], state.ugv.values, state.uav.values,
                            floor_m, ceiling_m)
    assert run.problems == []

    path = plan.ugv_path
    values = state.ugv.values
    assert checks.path_valid(path[:3] + path[4:], values, plan.start, plan.goal)
    assert checks.path_valid(path[:-1], values, plan.start, plan.goal)
    blocked = values.copy()
    blocked[path[len(path) // 2]] = 1.0
    assert checks.path_valid(path, blocked, plan.start, plan.goal)

    cost = checks.FreeGraph(values).costs([plan.start], [plan.goal])[0]
    assert checks.path_optimal(path, cost) == []
    m, n = path[1]
    detour = [path[0], (m, n), path[0], (m, n)] + path[2:]
    assert checks.path_optimal(detour, cost)

    params = vf.LiftParams.ugv_defaults(RES)
    lifted = list(plan.ugv_3d)
    x, y, z = lifted[len(lifted) // 2]
    lifted[len(lifted) // 2] = (x, y, z + RES)
    assert checks.ugv_lift(path, plan.ugv_3d, floor_m, params.lookahead,
                           params.height_offset, RES, ORIGIN) == []
    assert checks.ugv_lift(path, lifted, floor_m, params.lookahead,
                           params.height_offset, RES, ORIGIN)

    radius = vf.LiftParams.uav_defaults(RES).safety_radius
    assert checks.uav_clearance(plan.uav_3d, floor_m, ceiling_m, radius, RES, ORIGIN) == []
    low = list(plan.uav_3d)
    x, y, _ = low[0]
    low[0] = (x, y, floor_m[plan.start] + radius / 2)
    assert checks.uav_clearance(low, floor_m, ceiling_m, radius, RES, ORIGIN)


def test_free_graph_costs():
    values = np.full((4, 5), -1.0)
    values[1, 0:4] = 0.0
    values[2, 3] = 0.0
    graph = checks.FreeGraph(values)
    assert graph.costs([(1, 0)], [(2, 3)]) == [pytest.approx(2 + np.sqrt(2))]
    assert graph.costs([(1, 0)], [(1, 3)]) == [3.0]


def test_clock_removes_slices_and_scales_by_host_speed():
    clock = host.Clock()
    clock._slice_start.extend(range(100, 1100, 100))
    clock._slice_ns.extend([10] * 5 + [20] * 5)
    clock.intervals["op"] = array("q", [150, 450, 650, 1050])
    wall, scaled = clock.scaled_seconds("op")
    # slices at 200-400 and at 700-1000 run inside the intervals
    assert wall.tolist() == [(300 - 30) / 1e9, (400 - 80) / 1e9]
    # the host ran slices at 10 ns, then at 20 ns: twice as slow
    assert scaled.tolist() == pytest.approx([wall[0] * host.REFERENCE_S / 10e-9,
                                             wall[1] * host.REFERENCE_S / 20e-9])
