import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxflat import (LiftParams, OccupancyGrid, enforce_clearance, init,
                     lift_path, plan_2d, read_path_2d, read_path_3d,
                     write_path_2d, write_path_3d)
from voxflat.scenes import SceneSpec, generate

from oracles import (bfs_hops, dijkstra_cost, enforce_clearance_reference,
                     lift_path_reference, make_height_map, plan_2d_reference)


def grid_from_rows(rows):
    # rows of 0 (free), 1 (occupied), -1 (unknown)
    return OccupancyGrid("uav", 0.1, (0.0, 0.0, 0.0),
                         np.array(rows, dtype=float))


def path_cost(path):
    return sum(math.sqrt(2) if (abs(a[0] - b[0]) and abs(a[1] - b[1])) else 1.0
               for a, b in zip(path, path[1:]))


def test_single_point_path():
    grid = grid_from_rows([[0.0] * 3] * 3)
    assert plan_2d(grid, (1, 1), (1, 1)) == [(1, 1)]


def test_straight_corridor_path():
    grid = grid_from_rows([[0.0] * 3 for _ in range(8)])
    path = plan_2d(grid, (0, 1), (7, 1))
    assert path == [(m, 1) for m in range(8)]
    assert len(path) - 1 == bfs_hops(grid.values, (0, 1), (7, 1))


def test_walled_off_goal_is_unreachable():
    rows = [[0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0]]
    grid = grid_from_rows(rows)
    assert plan_2d(grid, (0, 0), (2, 2)) is None


def test_non_free_endpoints_error():
    grid = grid_from_rows([[0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="start"):
        plan_2d(grid, (0, 1), (0, 0))
    with pytest.raises(ValueError, match="goal"):
        plan_2d(grid, (0, 0), (1, 1))


def test_planner_matches_dijkstra_cost_and_is_deterministic():
    rng = np.random.default_rng(14)
    for _ in range(25):
        values = np.where(rng.random((12, 12)) < 0.35, 1.0, 0.0)
        values[0, 0] = values[11, 11] = 0.0
        grid = OccupancyGrid("uav", 0.1, (0, 0, 0), values)
        first = plan_2d(grid, (0, 0), (11, 11))
        second = plan_2d(grid, (0, 0), (11, 11))
        assert first == second
        expected = dijkstra_cost(values, (0, 0), (11, 11))
        if expected is None:
            assert first is None
        else:
            assert path_cost(first) == pytest.approx(expected, abs=1e-9)
            for (m0, n0), (m1, n1) in zip(first, first[1:]):
                assert max(abs(m1 - m0), abs(n1 - n0)) == 1
                assert values[m1, n1] == 0.0


def test_bool_endpoint_field_acts_as_its_integer():
    grid = grid_from_rows([[0.0] * 3 for _ in range(3)])
    assert plan_2d(grid, (True, 0), (2, False)) == plan_2d(grid, (1, 0), (2, 0))
    with pytest.raises(ValueError, match=r"goal cell \(1, 1\) is not a free cell"):
        plan_2d(grid_from_rows([[0.0, 0.0], [0.0, 1.0]]), (0, 0), (True, True))


@pytest.mark.parametrize("endpoint, error", [
    ((1.5, 2), TypeError),
    (("1", 2), TypeError),
    ((None, 1), TypeError),
    ((1, 2, 3), ValueError),
    ((1,), ValueError),
])
@pytest.mark.parametrize("name", ["start", "goal"])
def test_malformed_endpoints_raise_typed_errors_naming_them(endpoint, error, name):
    grid = grid_from_rows([[0.0] * 4 for _ in range(4)])
    ends = {"start": (0, 0), "goal": (3, 3), name: endpoint}
    with pytest.raises(error, match=f"^{name} "):
        plan_2d(grid, ends["start"], ends["goal"])


@pytest.mark.parametrize("cell", [(-1, 0), (0, 4), (4, 0), (2**70, 0), (1, 1)])
def test_off_map_and_blocked_endpoints_are_not_free(cell):
    grid = grid_from_rows([[0.0] * 4, [0.0, np.nan, 0.0, 0.0]] + [[0.0] * 4] * 2)
    with pytest.raises(ValueError, match=rf"^goal cell \({cell[0]}, {cell[1]}\) "
                                         "is not a free cell$"):
        plan_2d(grid, (0, 0), cell)


_CELL_VALUES = (0.0, 0.0, 0.0, 1.0, -1.0, math.nan)


@st.composite
def planner_cases(draw):
    """A small grid and two endpoints. Grids are 1 x n, n x 1 or up to
    14 x 14, either all free or with values drawn from {0, 1, -1, NaN};
    endpoints are often on the border rows and columns, sometimes equal,
    and mostly (not always) free."""
    side = st.integers(1, 14)
    M, N = draw(st.tuples(st.just(1), side) | st.tuples(side, st.just(1))
                | st.tuples(side, side))
    if draw(st.booleans()):
        values = np.zeros((M, N))
    else:
        values = np.array(draw(st.lists(st.sampled_from(_CELL_VALUES),
                                        min_size=M * N, max_size=M * N))).reshape(M, N)
    border = (st.tuples(st.sampled_from([0, M - 1]), st.integers(0, N - 1))
              | st.tuples(st.integers(0, M - 1), st.sampled_from([0, N - 1])))
    cell = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1)) | border
    start = draw(cell)
    goal = start if draw(st.integers(0, 9)) == 0 else draw(cell)
    if draw(st.integers(0, 9)):
        values[start] = values[goal] = 0.0
    return OccupancyGrid("uav", 0.1, (0.0, 0.0, 0.0), values), start, goal


def plan_outcome(plan, grid, start, goal):
    try:
        return plan(grid, start, goal)
    except ValueError as error:
        return str(error)


@settings(max_examples=400, deadline=None)
@given(planner_cases())
def test_planner_matches_the_tuple_keyed_reference(case):
    grid, start, goal = case
    assert plan_outcome(plan_2d, grid, start, goal) == plan_outcome(
        plan_2d_reference, grid, start, goal)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.data())
def test_planner_breaks_ties_like_the_reference_on_free_grids(M, N, data):
    # On an all-free grid every off-diagonal goal has many equal-cost paths,
    # so the returned one is decided by how equal f values are ordered.
    grid = OccupancyGrid("uav", 0.1, (0.0, 0.0, 0.0), np.zeros((M, N)))
    start = data.draw(st.tuples(st.integers(0, M - 1), st.integers(0, N - 1)))
    goal = data.draw(st.tuples(st.integers(0, M - 1), st.integers(0, N - 1)))
    assert plan_2d(grid, start, goal) == plan_2d_reference(grid, start, goal)


def test_planner_reopens_a_closed_cell_on_a_rounding_better_cost():
    # Routes that sum the same unit and diagonal steps in another order differ
    # in the last bit of their cost. Here a closed cell is reached again at a
    # cost one rounding lower; reopening it, as the reference does, is what
    # decides the returned path.
    rows = [[0.0] * 10 for _ in range(5)]
    rows[0][7] = rows[4][1] = 1.0
    grid = grid_from_rows(rows)
    want = [(4, 0), (3, 1), (3, 2), (2, 3), (2, 4), (2, 5), (1, 6), (1, 7), (0, 8), (0, 9)]
    assert plan_2d_reference(grid, (4, 0), (0, 9)) == want
    assert plan_2d(grid, (4, 0), (0, 9)) == want


@pytest.mark.parametrize("spec", [SceneSpec(kind="flat-room", clutter=6),
                                  SceneSpec(kind="composite")])
def test_planner_matches_the_reference_on_scene_grids(spec):
    state = init(generate(spec)[0])
    rng = np.random.default_rng(19)
    for grid in (state.uav, state.ugv):
        free = np.argwhere(grid.values == 0.0).tolist()
        ends = [tuple(free[i]) for i in rng.integers(0, len(free), 16)]
        for start, goal in zip(ends, ends[1:]):
            assert plan_2d(grid, start, goal) == plan_2d_reference(grid, start, goal)


def test_planner_does_not_copy_the_grid():
    # A 2 MB float64 grid and a 20-cell route: a whole-grid copy or mask per
    # call would show in the traced peak.
    grid = OccupancyGrid("uav", 0.1, (0.0, 0.0, 0.0), np.zeros((512, 512)))
    tracemalloc.start()
    try:
        path = plan_2d(grid, (300, 100), (300, 119))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path == [(300, n) for n in range(100, 120)]
    assert peak < 256 * 1024


def test_planner_reads_float32_and_strided_grids():
    rng = np.random.default_rng(20)
    for _ in range(20):
        wide = np.where(rng.random((16, 30)) < 0.3, 1.0, 0.0)
        wide[0, 0] = wide[15, 28] = wide[15, 29] = 0.0
        for values in (wide[:, ::2], wide.astype(np.float32), np.asfortranarray(wide)):
            grid = OccupancyGrid("uav", 0.1, (0.0, 0.0, 0.0), values)
            dense = OccupancyGrid("uav", 0.1, (0.0, 0.0, 0.0),
                                  np.array(values, np.float64))
            goal = (15, values.shape[1] - 1)
            assert plan_2d(grid, (0, 0), goal) == plan_2d_reference(dense, (0, 0), goal)


def test_lift_flat_floor():
    height = make_height_map([[0.0] * 6], [[3.0] * 6])
    path = [(0, n) for n in range(6)]
    for lookahead in (0, 1, 3):
        lifted = lift_path(path, height, LiftParams("ugv", lookahead, 1.0))
        assert all(z == 1.0 for _, _, z in lifted)
    assert lifted[0][:2] == (0.05, 0.05)  # cell centers


def test_lift_rises_before_a_step():
    floors = [[0.0], [0.0], [0.0], [0.0], [1.0], [1.0], [1.0]]
    height = make_height_map(floors)
    path = [(m, 0) for m in range(7)]
    lifted = lift_path(path, height, LiftParams("ugv", 2, 0.5))
    z = [wp[2] for wp in lifted]
    # windowed max pulls the climb two waypoints ahead of the edge
    assert z == [0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 1.5]


def test_lift_without_lookahead_tracks_the_floor():
    floors = [[0.0], [0.2], [0.4], [0.1]]
    height = make_height_map(floors)
    path = [(m, 0) for m in range(4)]
    lifted = lift_path(path, height, LiftParams("ugv", 0, 0.1))
    assert [wp[2] for wp in lifted] == pytest.approx([0.1, 0.3, 0.5, 0.2])


def test_lift_errors_on_missing_height_identifying_the_waypoint():
    height = make_height_map([[0.0], [None], [0.0]])
    path = [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(ValueError, match=r"waypoint 1 at cell \(1, 0\)"):
        lift_path(path, height, LiftParams("ugv", 1, 0.1))


def test_window_monotonicity_in_lookahead():
    rng = np.random.default_rng(15)
    for _ in range(50):
        floors = rng.uniform(0, 2, (20, 1)).tolist()
        height = make_height_map(floors)
        path = [(m, 0) for m in range(20)]
        previous = None
        for lookahead in (0, 1, 2, 5, 25):
            lifted = lift_path(path, height, LiftParams("ugv", lookahead, 0.3))
            assert lifted == lift_path_reference(path, height, lookahead, 0.3)
            z = [wp[2] for wp in lifted]
            if previous is not None:
                assert all(b >= a for a, b in zip(previous, z))
            previous = z


def test_lift_matches_the_scalar_window_on_random_2d_paths():
    rng = np.random.default_rng(17)
    for _ in range(40):
        floors = np.round(rng.uniform(-1, 2, (9, 7)), 2)
        floors[rng.random((9, 7)) < 0.2] = np.nan
        height = make_height_map(floors.tolist(), resolution=0.05,
                                 origin=(-0.3, 1.7, 0.0))
        present = np.argwhere(~np.isnan(floors)).tolist()
        path = [tuple(present[i]) for i in rng.integers(0, len(present), 30)]
        for lookahead in (0, 1, 4, 40):
            params = LiftParams("ugv", lookahead, 0.25)
            assert lift_path(path, height, params) == lift_path_reference(
                path, height, lookahead, 0.25)
        missing = np.argwhere(np.isnan(floors)).tolist()
        if missing:
            bad = [*path[:5], tuple(missing[0]), (9, 0), *path[5:]]
            with pytest.raises(ValueError) as got:
                lift_path(bad, height, LiftParams("ugv", 2, 0.25))
            with pytest.raises(ValueError) as want:
                lift_path_reference(bad, height, 2, 0.25)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith("waypoint 5 ")
    assert lift_path([], height, LiftParams("ugv", 2, 0.25)) == []


def test_lift_is_idempotent_on_its_own_projection():
    rng = np.random.default_rng(16)
    floors = rng.uniform(0, 1, (10, 1)).tolist()
    height = make_height_map(floors)
    path = [(m, 0) for m in range(10)]
    params = LiftParams("ugv", 2, 0.2)
    first = lift_path(path, height, params)
    projected = [(int((x - 0.0) / 0.1), int((y - 0.0) / 0.1)) for x, y, _ in first]
    assert lift_path(projected, height, params) == first


def test_clearance_leaves_clear_waypoints_untouched():
    height = make_height_map([[0.0] * 8], [[3.0] * 8])
    path = [(0.05, 0.05 + 0.1 * n, 1.5) for n in range(8)]
    assert enforce_clearance(path, height, 0.5) == path


def test_clearance_clamps_under_an_overhang():
    vmap, truth = generate(SceneSpec(kind="overhang"))
    state = init(vmap)
    height = state.height
    M, N, _ = vmap.extent
    n = N // 2
    path2d = [(m, n) for m in range(2, M - 2)]
    lifted = lift_path(path2d, height, LiftParams("uav", 2, 1.0, 0.5))
    cleared = enforce_clearance(lifted, height, 0.5)
    changed = [i for i, (a, b) in enumerate(zip(lifted, cleared)) if a != b]
    assert changed  # the beam forces some waypoints down
    for i in changed:
        z = cleared[i][2]
        assert z < lifted[i][2]  # pushed below floor + offset, overriding it
    # every cleared waypoint keeps the sphere inside all nearby spans
    for x, y, z in cleared:
        m = int(x / 0.1)
        nn = int(y / 0.1)
        for dm in range(-5, 6):
            for dn in range(-5, 6):
                mm, mn = m + dm, nn + dn
                if not (0 <= mm < M and 0 <= mn < N):
                    continue
                if math.hypot(dm, dn) * 0.1 > 0.5:
                    continue
                f = height.floor[mm, mn]
                if np.isnan(f):
                    continue
                assert f <= z - 0.5 + 1e-9
                assert z + 0.5 <= height.ceiling[mm, mn] + 1e-9


def test_clearance_errors_deterministically_when_squeezed():
    # adjacent cells: raised floor next to a low ceiling leaves < 2r of space
    height = make_height_map([[0.0], [1.6]], [[2.4], [2.9]])
    path = [(0.15, 0.05, 2.0)]
    with pytest.raises(ValueError, match="waypoint 0") as first:
        enforce_clearance(path, height, 0.5)
    with pytest.raises(ValueError) as second:
        enforce_clearance(path, height, 0.5)
    assert str(first.value) == str(second.value)


def test_clearance_rejects_waypoints_with_no_height_data():
    height = make_height_map([[0.0] * 4 for _ in range(4)],
                             [[3.0] * 4 for _ in range(4)])
    inside = (0.15, 0.15, 1.0)
    with pytest.raises(ValueError, match=r"waypoint 1 at \(10.0, 10.0, -5\) "
                                         r"is off the map"):
        enforce_clearance([inside, (10.0, 10.0, -5)], height, 0.5)
    with pytest.raises(ValueError, match="waypoint 0 .* is off the map"):
        enforce_clearance([(-0.05, 0.15, 1.0)], height, 0.5)
    # on the map, but every height cell within the radius is absent
    sparse = make_height_map([[0.0] + [None] * 9] + [[None] * 10] * 9)
    with pytest.raises(ValueError, match=r"waypoint 0 at \(0.85, 0.85, 1.0\) "
                                         "has no height cell"):
        enforce_clearance([(0.85, 0.85, 1.0)], sparse, 0.5)
    assert enforce_clearance([inside], height, 0.5) == [inside]


def test_clearance_reads_no_cell_off_the_map():
    # a low ceiling at cell (0, 0), far outside the disc of a corner waypoint
    # whose disc reaches past the map edge
    floors = [[0.0] * 12 for _ in range(12)]
    ceilings = [[3.0] * 12 for _ in range(12)]
    ceilings[0][0] = 0.8
    height = make_height_map(floors, ceilings)
    corner = [(1.15, 1.15, 1.0), (1.15, 0.05, 2.9)]
    assert enforce_clearance(corner, height, 0.5) == [(1.15, 1.15, 1.0), (1.15, 0.05, 2.5)]
    assert enforce_clearance_reference(corner, height, 0.5) == enforce_clearance(
        corner, height, 0.5)


@st.composite
def clearance_cases(draw):
    """A small height map with absent cells, waypoints on and at the edges of
    it, perhaps one off it, and a radius; spans are sometimes too thin for the
    sphere."""
    M, N = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    res = draw(st.sampled_from([0.05, 0.1, 0.25]))
    span = st.none() | st.tuples(st.integers(-5, 5), st.integers(1, 120))
    grid = [[draw(span) for _ in range(N)] for _ in range(M)]
    floor = [[None if c is None else c[0] * res for c in row] for row in grid]
    ceiling = [[None if c is None else (c[0] + c[1]) * res for c in row] for row in grid]
    height = make_height_map(floor, ceiling, resolution=res, origin=(-0.4, 0.3, 0.0))
    frac = st.sampled_from([0.0, 0.5, 0.999]) | st.floats(0, 1, exclude_max=True)
    z = st.floats(-3, 6, allow_nan=False)
    cell = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1))
    cells = draw(st.lists(cell, max_size=12))
    if cells and draw(st.booleans()):
        edge = draw(st.sampled_from([(-1, 0), (M, 0), (0, -1), (0, N)]))
        cells.insert(draw(st.integers(0, len(cells))), edge)
    path = [(-0.4 + (m + draw(frac)) * res, 0.3 + (n + draw(frac)) * res, draw(z))
            for m, n in cells]
    return height, path, draw(st.floats(0.05, 1.0))


@settings(max_examples=300, deadline=None)
@given(clearance_cases())
def test_clearance_matches_the_per_waypoint_loop(case):
    height, path, radius = case
    try:
        want = enforce_clearance_reference(path, height, radius)
    except ValueError as error:
        with pytest.raises(ValueError) as got:
            enforce_clearance(path, height, radius)
        assert str(got.value) == str(error)
        return
    assert enforce_clearance(path, height, radius) == want


def test_clearance_radius_validation():
    height = make_height_map([[0.0]])
    with pytest.raises(ValueError):
        enforce_clearance([], height, 0.0)


def test_lift_params_validation_and_defaults():
    with pytest.raises(ValueError):
        LiftParams("boat", 0, 1.0)
    with pytest.raises(ValueError):
        LiftParams("uav", 1, 1.0)  # uav needs a safety radius
    with pytest.raises(ValueError):
        LiftParams("ugv", -1, 1.0)
    for lookahead in (2.0, 2.5, True, "2"):
        with pytest.raises(ValueError, match="lookahead must be an int"):
            LiftParams("ugv", lookahead, 1.0)
    for offset in (math.nan, math.inf):
        with pytest.raises(ValueError, match="height_offset"):
            LiftParams("ugv", 1, offset)
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="safety_radius"):
            LiftParams("uav", 1, 1.0, radius)
    uav = LiftParams.uav_defaults(0.1)
    assert (uav.lookahead, uav.height_offset, uav.safety_radius) == (20, 1.0, 0.5)
    ugv = LiftParams.ugv_defaults(0.1)
    assert (ugv.lookahead, ugv.height_offset, ugv.safety_radius) == (5, 0.1, None)


def test_path_files_round_trip(tmp_path):
    p2 = [(0, 0), (1, 1), (2, 1)]
    f2 = tmp_path / "p2.txt"
    write_path_2d(p2, f2)
    assert read_path_2d(f2) == p2
    p3 = [(0.05, 0.05, 1.0), (0.15, 0.15, 1.25)]
    f3 = tmp_path / "p3.txt"
    write_path_3d(p3, f3)
    assert read_path_3d(f3) == p3


def test_path_files_allow_comments_and_reject_garbage(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("# a comment\n1 2\n\n3 4\n")
    assert read_path_2d(f) == [(1, 2), (3, 4)]
    f.write_text("1 2 3\n")
    with pytest.raises(ValueError, match=":1:"):
        read_path_2d(f)


@pytest.mark.parametrize("waypoint, axis", [
    ((0.15, 0.15, math.nan), "z"), ((0.15, 0.15, math.inf), "z"),
    ((0.15, 0.15, -math.inf), "z"), ((math.nan, 0.15, 1.0), "x"),
    ((0.15, math.nan, 1.0), "y"), ((math.inf, math.nan, 1.0), "x"),
])
def test_clearance_rejects_non_finite_coordinates(waypoint, axis):
    height = make_height_map([[0.0] * 4 for _ in range(4)], [[3.0] * 4 for _ in range(4)])
    path = [(0.15, 0.15, 1.0), waypoint]
    with pytest.raises(ValueError, match=rf"^waypoint 1 at .* non-finite {axis} coordinate$"):
        enforce_clearance(path, height, 0.5)


@pytest.mark.parametrize("path", [[(0.15, 0.15)], [(0.15, 0.15, 1.0), (0.15, 0.15)],
                                  [(0.15, 0.15, "up")]])
def test_clearance_rejects_waypoints_that_are_not_triples(path):
    with pytest.raises(ValueError, match=r"waypoints must be \(x, y, z\) triples"):
        enforce_clearance(path, make_height_map([[0.0] * 4 for _ in range(4)]), 0.5)


@pytest.mark.parametrize("read, text, message", [
    (read_path_2d, "0 0\n1 x\n", ":2: unreadable grid indices"),
    (read_path_2d, "1.5 2\n", ":1: unreadable grid indices"),
    (read_path_3d, "0 0 1\n0.1 0.2 z\n", ":2: unreadable coordinates"),
    (read_path_3d, "0 0\n", ":1: expected 'x y z'"),
])
def test_path_files_reject_unreadable_lines(tmp_path, read, text, message):
    path = tmp_path / "path.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read(path)
