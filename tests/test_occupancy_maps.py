import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxflat import (ConversionParams, GridFormatError, HeightMap, OccupancyGrid,
                     VoxelMap, VoxelState, build_height_map, build_ugv_map,
                     build_uav_map, build_slope_map, init, read_height,
                     uav_cell_value, write_height)
from voxflat.occupancy_maps import ugv_values
from voxflat.scenes import SceneSpec, generate

from oracles import (HeightRange, extract_ranges, filter_free_ranges,
                     height_from_ranges, make_height_map, occupancy_value,
                     overlap_length, random_column)

U, O, F = VoxelState.UNKNOWN, VoxelState.OCCUPIED, VoxelState.FREE


def test_overlap_length_cases():
    assert overlap_length(HeightRange(0, 2), HeightRange(3, 4)) == 0.0
    assert overlap_length(HeightRange(0, 2), HeightRange(0, 2)) == 2.0
    assert overlap_length(HeightRange(0, 2), HeightRange(1, 3)) == 1.0


def test_overlap_length_is_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lows = rng.uniform(-2, 2, 2)
        a = HeightRange(float(lows[0]), float(lows[0] + rng.uniform(0.1, 2)))
        b = HeightRange(float(lows[1]), float(lows[1] + rng.uniform(0.1, 2)))
        assert overlap_length(a, b) == overlap_length(b, a)
        lo = max(a.low, b.low)
        hi = min(a.high, b.high)
        expected = hi - lo if hi > lo else 0.0
        assert overlap_length(a, b) == pytest.approx(expected, abs=1e-12)


def no_voxels(height):
    """An all-Unknown voxel map under a hand-built height map."""
    return VoxelMap(height.resolution, height.origin, (*height.extent, 1))


def _two_cell_height(floor, ceiling):
    # cell (0,0) free with the given span; cell (1,0) is the examined one
    return make_height_map([[floor], [None]], [[ceiling], [None]])


def test_occupancy_value_half_overlap_is_exact():
    height = _two_cell_height(0.0, 2.0)
    free = height.floor_k >= 0
    value = occupancy_value((1, 0), (HeightRange(0.0, 1.0),), height, free)
    assert value == 0.5


def test_occupancy_value_full_wall_clamps_to_one():
    height = _two_cell_height(0.1, 2.9)
    free = height.floor_k >= 0
    value = occupancy_value((1, 0), (HeightRange(0.0, 5.0),), height, free)
    assert value == 1.0


def test_occupancy_value_takes_max_over_neighbors():
    height = make_height_map([[0.0, None, 0.0]], [[10.0, None, 1.0]])
    free = height.floor_k >= 0
    # left span [0,10] sees 0.7 + 2.3 = 3.0 (ratio 0.3); right span [0,1]
    # sees only 0.7 (ratio 0.7); the max wins
    value = occupancy_value((0, 1), (HeightRange(0.0, 0.7), HeightRange(2.0, 4.3)),
                            height, free)
    assert value == pytest.approx(0.7, abs=1e-12)


def test_occupancy_value_without_free_neighbor_is_none():
    height = make_height_map([[None, None]])
    assert occupancy_value((0, 0), (HeightRange(0, 1),), height,
                           height.floor_k >= 0) is None


def test_low_wall_hand_ratio():
    # 0.4 m wall against a 3 m tall neighbor span: ratio 0.1333, below 0.5
    height = _two_cell_height(0.0, 3.0)
    value = occupancy_value((1, 0), (HeightRange(0.0, 0.4),), height,
                            height.floor_k >= 0)
    assert value == pytest.approx(0.4 / 3.0, abs=1e-12)
    assert value < 0.5


def test_flat_room_uav_map_classes():
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=2.0, size_y=1.6))
    height = build_height_map(vmap, ConversionParams().min_run(vmap.resolution))
    grid = build_uav_map(vmap, height, 0.5)
    M, N, _ = vmap.extent
    interior = grid.values[2:M - 2, 2:N - 2]
    assert np.all(interior == 0.0)
    assert np.all(grid.values[1, 1:N - 1] == 1.0)  # full-height wall ring
    assert np.all(grid.values[0, :] == -1.0)       # unobserved margin


def test_unobserved_low_wall_is_invisible_to_the_aerial_map():
    spec = SceneSpec(kind="low-wall", wall_height=0.4, observed_above=False)
    vmap, truth = generate(spec)
    state = init(vmap)
    wall = truth.uav == -1  # claimed unknown: the wall strip
    M, N, _ = vmap.extent
    wall[0, :] = wall[-1, :] = False
    wall[:, 0] = wall[:, -1] = False
    assert wall.any()
    assert np.all(state.uav.values[wall] == -1.0)


def test_all_unknown_map_is_all_unknown():
    vmap = VoxelMap(0.1, (0, 0, 0), (5, 5, 5))
    height = build_height_map(vmap, ConversionParams().min_run(vmap.resolution))
    grid = build_uav_map(vmap, height, 0.5)
    assert np.all(grid.values == -1.0)


def test_nonfree_cell_with_free_neighbor_but_no_occupied_stays_unknown():
    height = _two_cell_height(0.0, 2.0)
    grid = build_uav_map(no_voxels(height), height, 0.5)
    assert grid.values[1, 0] == -1.0
    assert grid.values[0, 0] == 0.0


def test_ugv_map_flat_scene_identical_except_kind():
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=2.0, size_y=1.6))
    state = init(vmap)
    assert state.ugv.kind == "ugv"
    assert np.array_equal(state.uav.values, state.ugv.values)


def test_ugv_map_marks_step_cells_occupied():
    vmap, truth = generate(SceneSpec(kind="step", step_height=1.0))
    state = init(vmap)
    flipped = (state.uav.values == 0.0) & (state.ugv.values == 1.0)
    assert flipped.any()
    # ugv truth marks the steep band occupied while uav stays free there
    steep_claims = (truth.ugv == 1) & (truth.uav == 0)
    assert steep_claims.any()
    assert np.all(state.ugv.values[steep_claims] == 1.0)
    assert np.all(state.uav.values[steep_claims] == 0.0)


def test_gentle_ramp_stays_traversable():
    vmap, truth = generate(SceneSpec(kind="ramp", slope=0.5))
    state = init(vmap)
    claimed_free = truth.ugv == 0
    assert claimed_free.any()
    assert np.all(state.ugv.values[claimed_free] == 0.0)


def test_value_domain_and_superset_invariants():
    rng = np.random.default_rng(8)
    for _ in range(10):
        vmap = VoxelMap(0.1, (0, 0, 0), (8, 8, 14))
        updates = [(int(rng.integers(8)), int(rng.integers(8)),
                    int(rng.integers(14)), VoxelState(int(rng.integers(0, 3))))
                   for _ in range(250)]
        vmap.apply_cells(updates)
        state = init(vmap)
        for grid in (state.uav, state.ugv):
            vals = grid.values
            assert np.all((vals == -1.0) | ((vals >= 0.0) & (vals <= 1.0)))
        assert np.all(state.ugv.values[state.uav.values > 0] > 0)
        # free cells in the aerial map are exactly the height-map cells
        assert np.array_equal(state.uav.values == 0.0, state.height.floor_k >= 0)


def test_raising_min_occupancy_only_shrinks_the_occupied_set():
    rng = np.random.default_rng(18)
    vmap = VoxelMap(0.1, (0, 0, 0), (8, 8, 14))
    updates = [(int(rng.integers(8)), int(rng.integers(8)),
                int(rng.integers(14)), VoxelState(int(rng.integers(0, 3))))
               for _ in range(300)]
    vmap.apply_cells(updates)
    height = build_height_map(vmap, ConversionParams().min_run(vmap.resolution))
    low = build_uav_map(vmap, height, 0.3)
    high = build_uav_map(vmap, height, 0.7)
    assert np.all((high.values > 0) <= (low.values > 0))
    # no cell that was unknown at the lower threshold becomes occupied
    assert not np.any((low.values == -1.0) & (high.values > 0))


def test_occupancy_agrees_with_voxel_counting_oracle():
    rng = np.random.default_rng(77)
    res = 0.1
    K = 40
    checked = 0
    while checked < 200:
        nb_col = np.zeros(K, dtype=np.uint8)
        start = int(rng.integers(0, K - 12))
        nb_col[start:start + int(rng.integers(10, K - start))] = int(F)
        nb = filter_free_ranges(extract_ranges(nb_col, res, 0.0), 1.0)
        span = height_from_ranges(nb)
        if span is None:
            continue
        ex_col = random_column(rng, K)
        ex = extract_ranges(ex_col, res, 0.0)
        height = make_height_map([[span.floor], [None]], [[span.ceiling], [None]],
                                 resolution=res)
        value = occupancy_value((1, 0), ex.occupied, height, height.floor_k >= 0)
        kf0 = int(round(span.floor / res))
        kf1 = int(round(span.ceiling / res))
        count = int(np.count_nonzero(ex_col[kf0:kf1] == int(O)))
        oracle = min(1.0, count / (kf1 - kf0))
        assert value == pytest.approx(oracle, abs=res / (span.ceiling - span.floor) + 1e-12)
        checked += 1


def test_degenerate_slope_cells_stay_free_in_the_ground_map():
    # one isolated height cell: its fit is degenerate, flagged slope 0, and
    # the ground map must keep it navigable rather than blocking it
    height = make_height_map([[None, None, None], [None, 0.5, None],
                              [None, None, None]])
    uav = build_uav_map(no_voxels(height), height, 0.5)
    slope = build_slope_map(height, 2)
    assert slope.degenerate[1, 1]
    ugv = build_ugv_map(uav, slope, 2.0)
    assert ugv.values[1, 1] == 0.0


def test_ground_map_reads_aerial_values_written_outside_the_built_box():
    # build_ugv_map runs on the aerial grid's known box: the box its build
    # wrote, found again by a scan once set_values has written elsewhere
    height = make_height_map([[None] * 5, [None, 0.5, None, None, None], [None] * 5])
    uav = build_uav_map(no_voxels(height), height, 0.5)
    slope = build_slope_map(height, 1)
    assert uav.known_box == (0, 3, 0, 3)
    uav.set_values((1, 4), 0.7)
    assert uav.known_box == (1, 2, 1, 5)
    ugv = build_ugv_map(uav, slope, 2.0)
    assert ugv.values[1, 4] == 0.7
    assert np.array_equal(ugv.values, ugv_values(uav.values, slope.values, 2.0))


def test_ground_rule_writes_into_the_given_window():
    # build_ugv_map writes the rule straight into its grid; the values are
    # those of the elementwise rule with or without `out`
    nan = np.nan
    uav = np.array([[-1.0, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, -1.0]])
    slope = np.array([[3.0, 3.0, 2.0, 3.0], [3.0, nan, 0.0, nan]])
    want = np.where((uav == 0.0) & (slope > 2.0), 1.0, uav)
    assert want.tolist() == [[-1.0, 1.0, 0.0, 0.5], [1.0, 0.0, 0.0, -1.0]]
    assert np.array_equal(ugv_values(uav, slope, 2.0), want)
    grid = np.full((4, 6), -1.0)
    got = ugv_values(uav, slope, 2.0, out=grid[1:3, 2:])
    assert got.base is grid and np.array_equal(grid[1:3, 2:], want)
    assert (np.delete(grid, [1, 2], axis=0) == -1.0).all() and (grid[:, :2] == -1.0).all()


def test_build_map_validation():
    height = make_height_map([[0.0]])
    with pytest.raises(ValueError):
        build_uav_map(no_voxels(height), height, 0.0)
    grid = build_uav_map(no_voxels(height), height, 0.5)
    slope = build_slope_map(height, 1)
    with pytest.raises(ValueError):
        build_ugv_map(build_ugv_map(grid, slope, 2.0), slope, 2.0)


RUNS = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 6)), min_size=1, max_size=6)


@pytest.mark.parametrize("rows, cols", [(slice(0, 20, 2), slice(0, 10)),
                                        (slice(0, 10), slice(9, None, -1))])
def test_uav_kernel_refuses_stepped_windows(rows, cols):
    vmap, _ = generate(SceneSpec(kind="ramp"))
    state = init(vmap)
    with pytest.raises(ValueError, match="step 1"):
        uav_cell_value(vmap, state.height, rows, cols, 0.5)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), res=st.sampled_from([0.05, 0.1, 0.2, 0.25]),
       origin_z=st.floats(-10.0, 10.0), min_occupancy=st.floats(0.01, 1.0),
       run=st.integers(1, 4))
def test_uav_kernel_matches_the_per_cell_rule(data, res, origin_z, min_occupancy, run):
    M, N = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    K = data.draw(st.integers(1, 16))
    vmap = VoxelMap(res, (0.0, 0.0, origin_z), (M, N, K))
    for m in range(M):
        for n in range(N):
            k = 0
            for state, length in data.draw(RUNS):
                vmap.fill_box(m, m + 1, n, n + 1, min(k, K), min(k + length, K),
                              VoxelState(state))
                k += length
    # free runs of `run` voxels or more are navigable
    state = init(vmap, ConversionParams(min_clearance=run * res, min_occupancy=min_occupancy))
    m0, m1 = sorted(data.draw(st.tuples(st.integers(0, M), st.integers(0, M))))
    n0, n1 = sorted(data.draw(st.tuples(st.integers(0, N), st.integers(0, N))))
    got = uav_cell_value(vmap, state.height, slice(m0, m1), slice(n0, n1), min_occupancy)
    assert np.array_equal(got, state.uav.values[m0:m1, n0:n1])
    present = state.height.floor_k >= 0
    for m in range(m0, m1):
        for n in range(n0, n1):
            value = got[m - m0, n - n0]
            if present[m, n]:
                assert value == 0.0
                continue
            occupied = extract_ranges(vmap.states[m, n], res, origin_z).occupied
            ratio = occupancy_value((m, n), occupied, state.height, present)
            if ratio is None:
                assert value == -1.0
            elif abs(ratio - min_occupancy) <= 1e-12:
                assert value == -1.0 or abs(value - ratio) <= 1e-12
            elif ratio >= min_occupancy:
                assert abs(value - ratio) <= 1e-12
            else:
                assert value == -1.0


@pytest.mark.parametrize("build, message", [
    (lambda h: OccupancyGrid("ground", 0.1, (0.0, 0.0, 0.0), np.zeros((1, 1))),
     "kind must be 'uav' or 'ugv'"),
    (lambda h: build_uav_map(VoxelMap(0.1, (0.0, 0.0, 0.0), (2, 1, 4)), h, 0.5),
     r"voxel extent \(2, 1, 4\) does not match height extent \(1, 1\)"),
    (lambda h: build_ugv_map(build_uav_map(no_voxels(h), h, 0.5),
                             build_slope_map(h, 1), 0.0), "max_slope must be positive"),
    (lambda h: build_ugv_map(build_uav_map(no_voxels(h), h, 0.5),
                             build_slope_map(h, 1), -1.0), "max_slope must be positive"),
    # NaN and inf once passed, and no cell counted as steep.
    (lambda h: build_ugv_map(build_uav_map(no_voxels(h), h, 0.5),
                             build_slope_map(h, 1), np.nan), "max_slope must be positive"),
    (lambda h: build_ugv_map(build_uav_map(no_voxels(h), h, 0.5),
                             build_slope_map(h, 1), np.inf), "max_slope must be positive"),
    # A slope map of another extent once broadcast over the grid silently.
    (lambda h: build_ugv_map(build_uav_map(no_voxels(h), h, 0.5),
                             build_slope_map(make_height_map([[0.0] * 4]), 1), 2.0),
     r"slope extent \(1, 4\) does not match uav extent \(1, 1\)"),
])
def test_grid_builders_reject_bad_arguments(build, message):
    with pytest.raises(ValueError, match=message):
        build(make_height_map([[0.0]]))


def test_an_absent_cell_with_a_ceiling_cannot_reach_the_aerial_kernel(tmp_path):
    # An absent cell (no floor) with a ceiling once acted as a neighbour span
    # [-1, k_ceil] in the aerial kernel, so a boundary cell next to it took a
    # nonzero ratio. Such a map can no longer be built or read.
    nan = np.nan
    floor, ceiling = [[0.0, nan, nan]], [[0.3, nan, 0.5]]
    with pytest.raises(ValueError, match=r"height cell \(0, 2\) .*only one of"):
        HeightMap.from_meters(0.1, (0.0, 0.0, 0.0), floor, ceiling)
    floor_k, ceil_k = np.array([[0, -1, -1]], np.int32), np.array([[3, -1, 5]], np.int32)
    with pytest.raises(ValueError, match=r"height cell \(0, 2\) .*only one of"):
        HeightMap(0.1, (0.0, 0.0, 0.0), floor_k, ceil_k)
    # the file: a valid map's last payload bytes, the ceiling of cell (0, 2),
    # patched from NaN to 0.5 m
    path = tmp_path / "height.g2d"
    ceil_k[0, 2] = -1
    write_height(HeightMap(0.1, (0.0, 0.0, 0.0), floor_k, ceil_k), True, path)
    data = path.read_bytes()
    assert np.isnan(np.frombuffer(data[-4:], "<f4")).all()
    path.write_bytes(data[:-4] + np.array(0.5, "<f4").tobytes())
    with pytest.raises(GridFormatError, match=r"height cell \(0, 2\) .*only one of"):
        read_height(path)
