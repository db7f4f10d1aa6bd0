import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxflat import (LiftParams, OccupancyGrid, enforce_clearance, init,
                     lift_path, plan_2d, read_path_2d, read_path_3d,
                     write_path_2d, write_path_3d)
from voxflat import path_lift
from voxflat.scenes import SceneSpec, generate

from oracles import (bfs_hops, dijkstra_cost, disc_offsets_reference,
                     enforce_clearance_reference, integer_path_cost,
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


def plan_cost_outcome(plan, grid, start, goal):
    """A plan's integer cost, None when there is no path, or its error."""
    outcome = plan_outcome(plan, grid, start, goal)
    return integer_path_cost(outcome) if isinstance(outcome, list) else outcome


@settings(max_examples=400, deadline=None)
@given(planner_cases())
def test_planner_matches_the_tuple_keyed_reference(case):
    # Pruned expansion may pick another route of equal cost than the
    # unpruned reference does, so costs are compared, not paths.
    grid, start, goal = case
    assert plan_cost_outcome(plan_2d, grid, start, goal) == plan_cost_outcome(
        plan_2d_reference, grid, start, goal)


# every kind of cell value: free (0, and -0.0, which equals it) and each
# non-free kind, occupied, unknown, NaN and a fractional occupancy
_VALUE_KINDS = (0.0, 0.0, 0.0, -0.0, 1.0, -1.0, math.nan, 0.5)


@st.composite
def pruning_cases(draw):
    """A grid down to 1 x N or N x 1 and two free endpoints: random values,
    or walls of one non-free kind across every third row or column, each
    with one gap, which force the pruned search around corners."""
    M, N = draw(st.tuples(st.integers(1, 16), st.integers(1, 16)))
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.sampled_from(_VALUE_KINDS),
                                        min_size=M * N, max_size=M * N))).reshape(M, N)
    else:
        values = np.zeros((M, N))
        wall = draw(st.sampled_from(_VALUE_KINDS[4:]))
        across = draw(st.booleans())
        lines = values.T if across else values  # a view: walls of columns
        for row in range(draw(st.integers(0, 2)), lines.shape[0], 3):
            lines[row] = wall
            lines[row, draw(st.integers(0, lines.shape[1] - 1))] = 0.0
    cell = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1))
    start, goal = draw(cell), draw(cell)
    values[start] = values[goal] = 0.0
    return OccupancyGrid("uav", 0.1, (0.0, 0.0, 0.0), values), start, goal


@settings(max_examples=500, deadline=None)
@given(pruning_cases())
def test_pruned_planner_is_optimal_free_and_deterministic(case):
    grid, start, goal = case
    values = grid.values
    path = plan_2d(grid, start, goal)
    want = plan_2d_reference(grid, start, goal)
    assert plan_2d(grid, start, goal) == path
    if want is None:
        assert path is None
        return
    assert path[0] == start and path[-1] == goal
    assert integer_path_cost(path) == integer_path_cost(want)
    for (m0, n0), (m1, n1) in zip(path, path[1:]):
        assert max(abs(m1 - m0), abs(n1 - n0)) == 1
        assert values[m1, n1] == 0.0


def test_pruning_keys_moves_by_step_not_by_flat_offset():
    # On a grid 2 cells wide the steps (-1, 1) and (0, -1) have one flat
    # offset, -1. Moves keyed by flat offset took the diagonal step into
    # (3, 1) for (0, -1), pruned the way north past the wall at (2, 0) and
    # found no path.
    rows = ["00", "00", "10", "00", "00", "10", "01"]
    grid = grid_from_rows([[float(c) for c in row] for row in rows])
    path = plan_2d(grid, (4, 0), (0, 1))
    assert path == [(4, 0), (3, 1), (2, 1), (1, 1), (0, 1)]
    assert integer_path_cost(path) == integer_path_cost(
        plan_2d_reference(grid, (4, 0), (0, 1)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.data())
def test_planner_breaks_ties_like_the_reference_on_free_grids(M, N, data):
    # On an all-free grid every off-diagonal goal has many equal-cost paths,
    # so the returned one is decided by how equal f values are ordered.
    grid = OccupancyGrid("uav", 0.1, (0.0, 0.0, 0.0), np.zeros((M, N)))
    start = data.draw(st.tuples(st.integers(0, M - 1), st.integers(0, N - 1)))
    goal = data.draw(st.tuples(st.integers(0, M - 1), st.integers(0, N - 1)))
    assert plan_2d(grid, start, goal) == plan_2d_reference(grid, start, goal)


def test_planner_ties_routes_that_float_sums_split_by_one_rounding():
    # Two routes to (1, 5) take the same three diagonal and two straight steps
    # in another order. Summed in floats they differ in the last bit, which
    # once decided the path here; in integers they tie, so (f, h, m, n)
    # decides it.
    rows = [[0.0] * 10 for _ in range(5)]
    rows[0][7] = rows[4][1] = 1.0
    grid = grid_from_rows(rows)
    upper = [(4, 0), (3, 1), (2, 2), (1, 3), (1, 4), (1, 5)]
    lower = [(4, 0), (3, 1), (2, 2), (2, 3), (2, 4), (1, 5)]
    assert path_cost(upper) != path_cost(lower)
    assert integer_path_cost(upper) == integer_path_cost(lower)
    want = upper + [(1, 6), (1, 7), (0, 8), (0, 9)]
    assert plan_2d_reference(grid, (4, 0), (0, 9)) == want
    assert plan_2d(grid, (4, 0), (0, 9)) == want


def test_step_costs_keep_the_true_order_on_any_grid_numpy_can_hold():
    # plan_2d's bound: D is sqrt(2) * U rounded to the nearest integer, and
    # U > (1 + sqrt(2)) * L**2 / 2 for routes of L < 2**60 steps.
    U, D = path_lift._UNIT, path_lift._DIAG
    assert (2 * D - 1) ** 2 < 8 * U * U < (2 * D + 1) ** 2
    L = 2**60
    assert 2 * U - L * L > 0 and (2 * U - L * L) ** 2 > 2 * L**4


@settings(max_examples=400, deadline=None)
@given(planner_cases())
def test_planner_is_shortest_by_dijkstra_cost(case):
    grid, start, goal = case
    values = grid.values
    if values[start] != 0.0 or values[goal] != 0.0:
        with pytest.raises(ValueError):
            plan_2d(grid, start, goal)
        return
    path = plan_2d(grid, start, goal)
    expected = dijkstra_cost(values, start, goal)
    if expected is None:
        assert path is None
        return
    assert path[0] == start and path[-1] == goal
    assert path_cost(path) == pytest.approx(expected, abs=1e-9)
    for (m0, n0), (m1, n1) in zip(path, path[1:]):
        assert max(abs(m1 - m0), abs(n1 - n0)) == 1
        assert values[m1, n1] == 0.0


def test_planner_closes_one_cell_per_waypoint_on_a_free_grid(monkeypatch):
    # Ties broken toward the goal follow one optimal route: every pop closes
    # a cell of the path. Ties on (m, n) alone popped 7,925 entries here.
    grid = OccupancyGrid("uav", 0.1, (0.0, 0.0, 0.0), np.zeros((200, 200)))
    pops = 0
    heappop = path_lift.heapq.heappop

    def counting(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    monkeypatch.setattr(path_lift.heapq, "heappop", counting)
    path = plan_2d(grid, (0, 0), (150, 199))
    assert len(path) == 200
    assert pops == len(path)


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
        lifted = lift_path(path, height, LiftParams(lookahead, 1.0))
        assert all(z == 1.0 for _, _, z in lifted)
    assert lifted[0][:2] == (0.05, 0.05)  # cell centers


def test_lift_rises_before_a_step():
    floors = [[0.0], [0.0], [0.0], [0.0], [1.0], [1.0], [1.0]]
    height = make_height_map(floors)
    path = [(m, 0) for m in range(7)]
    lifted = lift_path(path, height, LiftParams(2, 0.5))
    z = [wp[2] for wp in lifted]
    # windowed max pulls the climb two waypoints ahead of the edge
    assert z == [0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 1.5]


def test_lift_without_lookahead_tracks_the_floor():
    floors = [[0.0], [0.2], [0.4], [0.1]]
    height = make_height_map(floors)
    path = [(m, 0) for m in range(4)]
    lifted = lift_path(path, height, LiftParams(0, 0.1))
    assert [wp[2] for wp in lifted] == pytest.approx([0.1, 0.3, 0.5, 0.2])


def test_lift_window_is_bounded_by_the_path():
    # lookahead 10**7 padded the path to 2 * 10**7 faces (about 120 MB traced)
    height = make_height_map([[0.0], [0.2], [0.4]])
    path = [(0, 0), (1, 0), (2, 0)]
    tracemalloc.start()
    try:
        lifted = lift_path(path, height, LiftParams(10**7, 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lifted == lift_path(path, height, LiftParams(3, 0.1))
    assert peak < 1024 * 1024


def test_lift_errors_on_missing_height_identifying_the_waypoint():
    height = make_height_map([[0.0], [None], [0.0]])
    path = [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(ValueError, match=r"waypoint 1 at cell \(1, 0\)"):
        lift_path(path, height, LiftParams(1, 0.1))


@pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (3, 0), (0, 2), (2**62, 0),
                                  (-2**62, 1), (2**70, 2**70)])
def test_lift_errors_on_a_waypoint_off_the_map(cell):
    # an off-map waypoint reads -1, as an absent cell does, and a far one
    # widens no block beyond one cell past the map's edge
    height = make_height_map([[0.0, 0.1], [0.2, 0.3], [0.4, 0.5]])
    with pytest.raises(ValueError, match=rf"^waypoint 1 at cell \({cell[0]}, {cell[1]}\) "
                                         "has no height data$"):
        lift_path([(0, 0), cell, (2, 1)], height, LiftParams(1, 0.1))


def test_window_monotonicity_in_lookahead():
    rng = np.random.default_rng(15)
    for _ in range(50):
        floors = rng.uniform(0, 2, (20, 1)).tolist()
        height = make_height_map(floors)
        path = [(m, 0) for m in range(20)]
        previous = None
        for lookahead in (0, 1, 2, 5, 25):
            lifted = lift_path(path, height, LiftParams(lookahead, 0.3))
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
        # origin_z at -1 keeps every face >= 0
        height = make_height_map(floors.tolist(), resolution=0.05,
                                 origin=(-0.3, 1.7, -1.0))
        present = np.argwhere(~np.isnan(floors)).tolist()
        path = [tuple(present[i]) for i in rng.integers(0, len(present), 30)]
        for lookahead in (0, 1, 4, 40):
            params = LiftParams(lookahead, 0.25)
            assert lift_path(path, height, params) == lift_path_reference(
                path, height, lookahead, 0.25)
        missing = np.argwhere(np.isnan(floors)).tolist()
        if missing:
            bad = [*path[:5], tuple(missing[0]), (9, 0), *path[5:]]
            with pytest.raises(ValueError) as got:
                lift_path(bad, height, LiftParams(2, 0.25))
            with pytest.raises(ValueError) as want:
                lift_path_reference(bad, height, 2, 0.25)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith("waypoint 5 ")
    assert lift_path([], height, LiftParams(2, 0.25)) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=12), st.data())
def test_lift_window_max_matches_a_per_waypoint_loop(faces, data):
    # windows from a single waypoint to wider than the whole path
    height = make_height_map([[0.1 * k] for k in faces])
    cells = st.integers(0, len(faces) - 1).map(lambda m: (m, 0))
    path = data.draw(st.lists(cells, min_size=1, max_size=40))
    lookahead = data.draw(st.integers(0, len(path) + 2))
    assert lift_path(path, height, LiftParams(lookahead, 0.5)) == lift_path_reference(
        path, height, lookahead, 0.5)


def test_lift_is_idempotent_on_its_own_projection():
    rng = np.random.default_rng(16)
    floors = rng.uniform(0, 1, (10, 1)).tolist()
    height = make_height_map(floors)
    path = [(m, 0) for m in range(10)]
    params = LiftParams(2, 0.2)
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
    lifted = lift_path(path2d, height, LiftParams(2, 1.0, 0.5))
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


def outcome(fn, *args):
    """A call's result, or its error type and message."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


def test_array_paths_lift_and_clear_as_their_lists():
    height = make_height_map([[0.0, 0.2, 0.4], [0.3, None, 0.1], [0.5, 0.0, 0.2]],
                             [[3.0, 3.0, 3.0], [3.0, None, 3.0], [3.0, 3.0, 3.0]])
    params = LiftParams(1, 0.25)
    cells = [(0, 0), (0, 1), (1, 2), (2, 2), (2, 1)]
    lifted = lift_path(cells, height, params)
    for dtype in (np.int32, np.int64, np.uint8):
        assert lift_path(np.array(cells, dtype), height, params) == lifted
    # a float array is read as its float records, which are refused
    for bad in (cells, [*cells, (1, 1)], [*cells, (3, 0)], [*cells, (0.5, 1.0)]):
        for dtype in (np.int64, np.float64):
            array = np.array(bad, dtype)
            assert outcome(lift_path, array, height, params) == outcome(
                lift_path, array.tolist(), height, params)
    with pytest.raises(ValueError, match=r"waypoint 5 at cell \(1, 1\) has no height"):
        lift_path(np.array([*cells, (1, 1)], np.int32), height, params)
    assert lift_path(np.empty((0, 2), np.int64), height, params) == []

    waypoints = [(0.05, 0.05, 0.4), (0.15, 0.25, 2.9), (0.25, 0.05, 1.0)]
    for dtype in (np.float64, np.float32):
        array = np.array(waypoints, dtype)
        cleared = enforce_clearance(array, height, 0.1)
        assert cleared == enforce_clearance(array.tolist(), height, 0.1)
        assert all(type(v) is float for wp in cleared for v in wp)
    # each error names its waypoint with the Python values of the array
    for bad, radius in (((0.35, 0.05, 1.0), 0.1), ((0.05, 0.05, float("nan")), 0.1),
                        ((0.15, 0.15, 1.0), 1.6)):  # off the map, not finite, too narrow
        array = np.array([bad, *waypoints], np.float32)
        got = outcome(enforce_clearance, array, height, radius)
        assert got == outcome(enforce_clearance, array.tolist(), height, radius)
        assert got[0] is ValueError and got[1].startswith("waypoint 0")
    with pytest.raises(ValueError, match=r"waypoint 1 at \(0.3499999940395355, "):
        enforce_clearance(np.array([waypoints[0], (0.35, 0.05, 1.0)], np.float32),
                          height, 0.1)
    assert enforce_clearance(np.empty((0, 3)), height, 0.1) == []


@st.composite
def clearance_cases(draw):
    """A small height map with absent cells, waypoints on and at the edges of
    it, perhaps one off it, and a radius; spans are sometimes too thin for the
    sphere."""
    M, N = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    res = draw(st.sampled_from([0.05, 0.1, 0.25]))
    span = st.none() | st.tuples(st.integers(0, 10), st.integers(1, 120))
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


def test_clearance_on_a_floor_only_map_has_no_ceiling_bound():
    # A floor-only map (every ceiling absent) bounds waypoints from below only.
    height = make_height_map([[0.2, 0.5]], [[None, None]])
    assert (height.ceil_k == -1).all()
    path = [(0.05, 0.05, 0.0), (0.05, 0.05, 9.0)]
    got = enforce_clearance(path, height, 0.1)
    assert got == enforce_clearance_reference(path, height, 0.1)
    assert got == [(0.05, 0.05, height.floor[0, 1] + 0.1), (0.05, 0.05, 9.0)]


@pytest.mark.parametrize("res", [0.02, 0.05, 0.1, 0.15, 0.25, 1 / 3, 1.0])
def test_clearance_disc_is_the_per_offset_rule(res):
    for radius in [0.01, 0.1, 0.3, 0.5, 0.7, 1.0, 1.4142135623730951, 2.5, 3.0]:
        dm, dn = path_lift._disc(radius, res, math.ceil(radius / res))
        assert dm.dtype == dn.dtype == np.int64
        assert list(zip(dm.tolist(), dn.tolist())) == disc_offsets_reference(radius, res)


def test_clearance_disc_is_cached_read_only_and_paths_are_unchanged():
    # enforce_clearance once rebuilt the disc on every call; the cached one
    # is shared by every later call, so no caller may write to it.
    vmap, _ = generate(SceneSpec(kind="overhang"))
    height = init(vmap).height
    M, N, _ = vmap.extent
    lifted = lift_path([(m, N // 2) for m in range(2, M - 2)], height,
                       LiftParams(2, 1.0, 0.5))
    want = enforce_clearance_reference(lifted, height, 0.5)
    assert want != lifted  # the beam moves some waypoints
    path_lift._disc.cache_clear()
    assert enforce_clearance(lifted, height, 0.5) == want
    assert enforce_clearance(np.array(lifted), height, 0.5) == want
    info = path_lift._disc.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    dm, dn = path_lift._disc(0.5, height.resolution, 5)
    assert path_lift._disc(0.5, height.resolution, 5)[0] is dm
    for offsets in (dm, dn):
        assert not offsets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            offsets[0] = 0
    assert enforce_clearance(lifted, height, 0.5) == want


def test_clearance_disc_is_clipped_to_the_map():
    # the disc was built over (2 * ceil(radius / res) + 1)**2 cells however
    # small the map: about 10**14 for this radius
    height = make_height_map([[0.0] * 6] * 6, [[None] * 6] * 6)
    path = [(0.05, 0.05, 0.0), (0.55, 0.35, 2.0)]
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        got = enforce_clearance(path, height, 1e6)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [(0.05, 0.05, 1e6), (0.55, 0.35, 1e6)]
    assert peak < 1024 * 1024
    assert elapsed < 2.0


def test_clearance_radius_validation():
    height = make_height_map([[0.0]])
    with pytest.raises(ValueError):
        enforce_clearance([], height, 0.0)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_clearance_radius_must_be_finite_and_positive(radius):
    # inf raised OverflowError from math.ceil, and NaN a conversion error
    height = make_height_map([[0.0]])
    with pytest.raises(ValueError, match="clearance radius must be finite and positive"):
        enforce_clearance([(0.05, 0.05, 1.0)], height, radius)


def test_lift_params_validation_and_defaults():
    with pytest.raises(ValueError, match="lookahead must be >= 0"):
        LiftParams(-1, 1.0)
    for lookahead in (2.0, 2.5, True, "2"):
        with pytest.raises(TypeError, match="lookahead must be an integer"):
            LiftParams(lookahead, 1.0)
    for offset in (math.nan, math.inf):
        with pytest.raises(ValueError, match="height_offset"):
            LiftParams(1, offset)
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="safety_radius"):
            LiftParams(1, 1.0, radius)
    for radius in (0.0, -0.5):
        with pytest.raises(ValueError, match="safety_radius must be positive"):
            LiftParams(1, 1.0, radius)
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


def test_path_reader_takes_an_index_beyond_a_float(tmp_path):
    # the finiteness check once converted each index to float: OverflowError
    f = tmp_path / "p.txt"
    f.write_text(f"{10**400} 2\n")
    assert read_path_2d(f) == [(10**400, 2)]


@pytest.mark.parametrize("read, text, message", [
    (read_path_2d, "0 0\n1 x\n", ":2: unreadable grid indices"),
    (read_path_2d, "1.5 2\n", ":1: unreadable grid indices"),
    (read_path_3d, "0 0 1\n0.1 0.2 z\n", ":2: unreadable coordinates"),
    (read_path_3d, "0 0\n", ":1: expected 'x y z'"),
    (read_path_3d, "# lifted\n0 0 1\nnan 0 inf\n", r":3: non-finite coordinates 'nan 0 inf'$"),
    (read_path_3d, "0 0 -inf\n", r":1: non-finite coordinates '0 0 -inf'$"),
    (read_path_3d, "0.1 1e999 0\n", r":1: non-finite coordinates '0.1 1e999 0'$"),
    (read_path_3d, "NaN 0.2 1\n", r":1: non-finite coordinates 'NaN 0.2 1'$"),
    (read_path_2d, "0 0\n\xff 1\n", r":2: non-ASCII byte 0xff$"),
    (read_path_2d, "0 0\r1 1\r\n2 \x80\n", r":3: non-ASCII byte 0x80$"),
])
def test_path_files_reject_unreadable_lines(tmp_path, read, text, message):
    path = tmp_path / "path.txt"
    path.write_text(text, encoding="latin-1")  # one byte per character
    with pytest.raises(ValueError, match=message):
        read(path)

