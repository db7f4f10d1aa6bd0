import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from voxflat import (ConversionParams, DirtyReport, VoxelMap, VoxelState, init,
                     update)
from voxflat.column_extraction import convert_column
from voxflat.incremental import CSV_HEADER
from voxflat.occupancy_maps import ugv_values, uav_cell_value
from voxflat.slope_map import slope_at
from voxflat.voxel_store import nonzero_box
from voxflat.scenes import SceneSpec, generate

from oracles import HeightRange, extract_ranges, filter_free_ranges, states_equal

U, O, F = VoxelState.UNKNOWN, VoxelState.OCCUPIED, VoxelState.FREE


def random_updates(rng, extent, count):
    M, N, K = extent
    return [(int(rng.integers(M)), int(rng.integers(N)), int(rng.integers(K)),
             VoxelState(int(rng.integers(0, 3)))) for _ in range(count)]


def test_init_of_empty_map_is_all_unknown():
    state = init(VoxelMap(0.1, (0, 0, 0), (6, 6, 6)))
    assert np.isnan(state.height.floor).all()
    assert np.isnan(state.slope.values).all()
    assert np.all(state.uav.values == -1.0)
    assert np.all(state.ugv.values == -1.0)
    assert state.ranges == {}


def test_init_is_deterministic():
    vmap, _ = generate(SceneSpec(kind="step", size_x=2.0, size_y=1.6))
    a = init(vmap)
    b = init(vmap)
    assert states_equal(a, b) == []


def test_empty_update_changes_nothing():
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=2.0, size_y=1.6))
    state = init(vmap)
    baseline = init(vmap)
    report = update(state, [])
    assert (report.columns, report.slope_cells, report.occupancy_cells) == (0, 0, 0)
    assert states_equal(state, baseline) == []


def test_single_voxel_halo_bounds():
    # an occupied voxel on the floor face lifts the column's floor by one, so
    # the slope fit reruns on its radius-r box and UGV with it
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=3.0, size_y=3.0))
    state = init(vmap)
    radius = ConversionParams().slope_radius_cells(vmap.resolution)
    M, N, _ = vmap.extent
    floor = int(state.height.floor_k[M // 2, N // 2])
    report = update(state, [(M // 2, N // 2, floor, O)])
    assert state.height.floor_k[M // 2, N // 2] == floor + 1
    assert report.columns == 1
    assert report.slope_cells == (2 * radius + 1) ** 2
    assert report.occupancy_cells == (2 * radius + 1) ** 2


def test_update_matches_from_scratch_rebuild():
    rng = np.random.default_rng(42)
    for kind in ("flat-room", "step"):
        vmap, _ = generate(SceneSpec(kind=kind, size_x=2.4, size_y=2.0))
        state = init(vmap)
        for _ in range(6):
            update(state, random_updates(rng, vmap.extent, 6))
        assert states_equal(state, init(state.voxels)) == []


def assert_edit_stays_in_halos(vmap, edit, halos):
    """Apply one edit around the map's center column to a fresh state: each
    grid may change only within its halo (Chebyshev distance from the
    center; None: nowhere), and the state still equals a rebuild."""
    M, N, _ = vmap.extent
    m, n = M // 2, N // 2
    state = init(copy.deepcopy(vmap))
    # the stored faces; the meter views are rebuilt after an update
    grids = {"floor": state.height.floor_k, "ceiling": state.height.ceil_k,
             "uav": state.uav.values, "slope": state.slope.values,
             "degenerate": state.slope.degenerate, "ugv": state.ugv.values}
    before = {name: grid.copy() for name, grid in grids.items()}
    report = update(state, edit)
    for name, grid in grids.items():
        inside = np.zeros((M, N), dtype=bool)
        halo = halos[name]
        if halo is not None:
            inside[m - halo:m + halo + 1, n - halo:n + halo + 1] = True
        assert np.array_equal(grid[~inside], before[name][~inside], equal_nan=True), \
            f"{name} changed outside its halo of {halo}"
    assert states_equal(state, init(state.voxels)) == []
    return state, report


def test_cells_outside_the_halo_are_untouched():
    # Two floor-moving one-column edits: one occupied voxel on the floor
    # face, and a pillar that removes the column's height cell. Each grid may
    # change only within its own halo: heights in the column, UAV within
    # Chebyshev distance 1, slope and UGV within the fit radius r.
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=4.0, size_y=4.0))
    M, N, K = vmap.extent
    m, n = M // 2, N // 2
    r = ConversionParams().slope_radius_cells(vmap.resolution)
    floor = int(init(vmap).height.floor_k[m, n])
    halos = {"floor": 0, "ceiling": 0, "uav": 1, "slope": r, "degenerate": r, "ugv": r}
    for edit in ([(m, n, floor, O)], [(m, n, k, O) for k in range(K)]):
        state, report = assert_edit_stays_in_halos(vmap, edit, halos)
        assert report.occupancy_cells == (2 * r + 1) ** 2
    # the pillar reached every grid
    assert np.isnan(state.height.floor[m, n]) and state.uav.values[m, n] == 1.0


def test_cells_outside_the_uav_halo_are_untouched_when_no_floor_moves():
    # one occupied voxel high in the free span moves the ceiling but not the
    # floor: the slope fit is skipped, so slopes change nowhere, and UGV is
    # rewritten on the UAV box only
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=4.0, size_y=4.0))
    M, N, K = vmap.extent
    ceil = init(vmap).height.ceil_k[M // 2, N // 2]
    halos = {"floor": None, "ceiling": 0, "uav": 1, "slope": None,
             "degenerate": None, "ugv": 1}
    state, report = assert_edit_stays_in_halos(vmap, [(M // 2, N // 2, K - 5, O)], halos)
    assert state.height.ceil_k[M // 2, N // 2] != ceil
    assert (report.columns, report.slope_cells, report.occupancy_cells) == (1, 0, 9)


def test_update_cost_scales_with_the_dirty_halo_not_the_map():
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=12.0, size_y=12.0))
    state = init(vmap)
    M, N, K = vmap.extent
    report = update(state, [(M // 2, N // 2, K - 2, O)])
    total_cells = M * N
    assert report.occupancy_cells < total_cells / 100


def test_out_of_range_update_is_rejected_before_mutation():
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=2.0, size_y=1.6))
    state = init(vmap)
    baseline = init(vmap)
    with pytest.raises(IndexError):
        update(state, [(0, 0, 0, F), (10_000, 0, 0, F)])
    assert states_equal(state, baseline) == []


def test_dirty_report_csv():
    report = DirtyReport(2, 25, 49, 1234)
    assert CSV_HEADER == ("update_index,columns_dirty,slope_cells,"
                          "occupancy_cells,wall_time_us")
    assert report.csv_row(7) == "7,2,25,49,1234"


def test_open_area_reveals_grow_with_the_frontier():
    # revealing concentric rings in an open room: the dirty column count per
    # update grows with the ring perimeter, unlike a constant-width corridor
    full, _ = generate(SceneSpec(kind="flat-room", size_x=4.0, size_y=4.0))
    M, N, K = full.extent
    state = init(VoxelMap(full.resolution, full.origin, full.extent))
    cm, cn = M // 2, N // 2
    column_counts = []
    occupancy_counts = []
    for ring in range(1, 9):
        batch = []
        for m in range(cm - ring, cm + ring + 1):
            for n in range(cn - ring, cn + ring + 1):
                if max(abs(m - cm), abs(n - cn)) != ring:
                    continue
                batch.extend((m, n, k, voxel_state) for k, voxel_state
                             in enumerate(full.states[m, n].tolist()) if voxel_state)
        report = update(state, batch)
        column_counts.append(report.columns)
        occupancy_counts.append(report.occupancy_cells)
    assert column_counts == [8 * r for r in range(1, 9)]
    assert all(b > a for a, b in zip(occupancy_counts, occupancy_counts[1:]))
    assert states_equal(state, init(state.voxels)) == []


def test_updates_that_toggle_back_still_rebuild_exactly():
    vmap, _ = generate(SceneSpec(kind="crawl-space", size_x=2.4, size_y=2.0))
    state = init(vmap)
    M, N, K = vmap.extent
    cell = (M // 2, N // 2, K // 2)
    original = state.voxels.states[cell]
    update(state, [(cell[0], cell[1], cell[2], F)])
    update(state, [(cell[0], cell[1], cell[2], original)])
    assert states_equal(state, init(state.voxels)) == []


def test_update_clears_the_degeneracy_flag_when_a_fit_becomes_well_posed():
    # Only row 2 has floor, so the center cell's slope window is collinear
    # and its fit degenerate; adding floor at (1, 2) makes the fit well posed.
    vmap = VoxelMap(0.1, (0.0, 0.0, 0.0), (5, 5, 12))
    vmap.fill_box(2, 3, 0, 5, 0, 12, F)
    state = init(vmap)
    assert state.slope.degenerate[2, 2]
    update(state, [(1, 2, k, F) for k in range(12)])
    assert not state.slope.degenerate[2, 2]
    assert states_equal(state, init(state.voxels)) == []


def floor_column(m, n, f, K):
    """Writes that give column (m, n) a floor face at k = f: solid below,
    free from f to the top (a floor only if that run is tall enough)."""
    return ([(m, n, k, O) for k in range(f)]
            + [(m, n, k, F) for k in range(f, K)])


def assert_ranges_match_the_oracle(state):
    """Each kept run of state.ranges, in meters and split by state, equals
    the float range rule for its column; cells are absent where it is empty."""
    vmap = state.voxels
    res, oz = vmap.resolution, vmap.origin[2]
    M, N, _ = vmap.extent
    expected = set()
    for m in range(M):
        for n in range(N):
            want = filter_free_ranges(extract_ranges(vmap.states[m, n], res, oz),
                                      state.params.min_clearance)
            if want.is_empty():
                continue
            expected.add((m, n))
            runs = state.ranges[(m, n)]
            got = {s: tuple(HeightRange(oz + k0 * res, oz + (k0 + length) * res)
                            for k0, length, s_ in runs if s_ == s) for s in (F, O)}
            assert (got[F], got[O]) == (want.free, want.occupied), (m, n)
            assert len(runs) == len(want.free) + len(want.occupied)
    assert set(state.ranges) == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data(), res=st.sampled_from([0.05, 0.1, 0.2, 0.25]),
       origin_z=st.floats(-100.0, 100.0), min_clearance=st.floats(1e-3, 1.0))
def test_ranges_are_the_range_rule_in_voxels(data, res, origin_z, min_clearance):
    # Runs of one state along k, written as (m, n, k0, length, state), so
    # that free runs of every length occur; read after init and after each
    # streamed batch, which also checks that update() drops the cached view.
    M, N, K = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)),
               data.draw(st.integers(1, 24)))
    run = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1),
                    st.integers(0, K - 1), st.integers(1, K),
                    st.sampled_from([U, O, F]))
    batches = data.draw(st.lists(st.lists(run, max_size=12), min_size=1, max_size=4))
    state = init(VoxelMap(res, (0.0, 0.0, origin_z), (M, N, K)),
                 ConversionParams(min_clearance=min_clearance))
    assert_ranges_match_the_oracle(state)
    for batch in batches:
        update(state, [(m, n, k, s) for m, n, k0, length, s in batch
                       for k in range(k0, min(K, k0 + length))])
        assert_ranges_match_the_oracle(state)


def random_states(rng, extent):
    """Voxel states of the given extent: mostly free so that height cells
    occur, some occupied, and about a fifth of the columns all Unknown."""
    states = rng.choice(np.array([U, O, F, F, F], dtype=np.uint8), extent)
    states[rng.random(extent[:2]) < 0.2] = U
    return states


def voxel_map(states):
    vmap = VoxelMap(0.1, (0.0, 0.0, 0.0), states.shape)
    observed = np.argwhere(states)
    vmap.apply_cells(np.c_[observed, states[tuple(observed.T)]])
    return vmap


def box_params(radius):
    return ConversionParams(min_clearance=0.3, slope_window_m=0.1 * radius)


def assert_embedded(states, extent, at, params):
    """init() of `states` placed at cell `at` of an otherwise all-Unknown
    (M, N) extent gives the small map's grids there and absent, NaN and -1
    everywhere else; each grid also equals its stage kernel run over the
    whole extent, and the present box init() shares equals a scan's."""
    m, n, K = states.shape
    big = np.zeros((*extent, K), dtype=np.uint8)
    window = slice(at[0], at[0] + m), slice(at[1], at[1] + n)
    big[window] = states
    small, full = init(voxel_map(states), params), init(voxel_map(big), params)
    inside = np.zeros(extent, dtype=bool)
    inside[window] = True
    grids = (("floor", lambda s: s.height.floor_k, -1),
             ("ceiling", lambda s: s.height.ceil_k, -1),
             ("slope", lambda s: s.slope.values, np.nan),
             ("degenerate", lambda s: s.slope.degenerate, False),
             ("uav", lambda s: s.uav.values, -1.0),
             ("ugv", lambda s: s.ugv.values, -1.0))
    for name, grid, absent in grids:
        assert np.array_equal(grid(full)[window], grid(small), equal_nan=True), name
        outside = grid(full)[~inside]
        assert np.array_equal(outside, np.full(outside.shape, absent), equal_nan=True), name
    floor_k, ceil_k = convert_column(big, params.min_run(0.1))
    assert np.array_equal(full.height.floor_k, floor_k)
    assert np.array_equal(full.height.ceil_k, ceil_k)
    M, N = extent
    assert full.height.present_box == nonzero_box(full.height.floor_k >= 0)
    values, degenerate = slope_at(full.height, slice(0, M), slice(0, N),
                                  params.slope_radius_cells(0.1))
    assert np.array_equal(full.slope.values, values, equal_nan=True)
    assert np.array_equal(full.slope.degenerate, degenerate)
    assert np.array_equal(full.uav.values, uav_cell_value(
        full.voxels, full.height, slice(0, M), slice(0, N), params.min_occupancy))
    assert np.array_equal(full.ugv.values, ugv_values(
        full.uav.values, full.slope.values, params.max_slope))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), radius=st.integers(1, 3))
def test_a_map_embedded_in_unknown_space_converts_as_it_does_alone(data, seed, radius):
    # init() reads only the box that can hold output: heights the box of
    # observed columns, slopes the box of present cells found inside it, UAV
    # and UGV that box grown by one; a 1 x 1 map is a one-column map
    m, n, K = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)),
               data.draw(st.integers(1, 10)))
    M, N = m + data.draw(st.integers(0, 8)), n + data.draw(st.integers(0, 8))
    at = data.draw(st.integers(0, M - m)), data.draw(st.integers(0, N - n))
    states = random_states(np.random.default_rng(seed), (m, n, K))
    assert_embedded(states, (M, N), at, box_params(radius))


@pytest.mark.parametrize("case", ["all unknown", "last row", "last column",
                                  "single column", "last corner column"])
def test_observed_box_edge_cases(case):
    M, N, K = 9, 7, 10
    shape, at = {"all unknown": ((3, 3), (2, 2)),
                 "last row": ((1, N), (M - 1, 0)),
                 "last column": ((M, 1), (0, N - 1)),
                 "single column": ((1, 1), (4, 3)),
                 "last corner column": ((1, 1), (M - 1, N - 1))}[case]
    states = random_states(np.random.default_rng(7), (*shape, K))
    if case == "all unknown":
        states[:] = U
    else:  # one column floored at k = 1, so some cell is present
        states[0, 0] = [O] + [F] * (K - 1)
    assert_embedded(states, (M, N), at, box_params(2))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), radius=st.integers(1, 3))
def test_updates_outside_the_prior_box_and_back_to_unknown_rebuild_exactly(
        data, seed, radius):
    # The prior observes a box smaller than the extent; updates reveal
    # columns outside it, then set every observed voxel back to Unknown.
    rng = np.random.default_rng(seed)
    M, N, K = (data.draw(st.integers(2, 10)), data.draw(st.integers(2, 10)),
               data.draw(st.integers(3, 10)))
    m, n = data.draw(st.integers(1, M - 1)), data.draw(st.integers(1, N - 1))
    m0, n0 = data.draw(st.integers(0, M - m)), data.draw(st.integers(0, N - n))
    prior = np.zeros((M, N, K), dtype=np.uint8)
    prior[m0:m0 + m, n0:n0 + n] = random_states(rng, (m, n, K))
    params = box_params(radius)
    state = init(voxel_map(prior), params)
    outside = np.ones((M, N), dtype=bool)
    outside[m0:m0 + m, n0:n0 + n] = False
    cells = rng.permutation(np.argwhere(outside))[:data.draw(st.integers(1, 8))]
    columns = random_states(rng, (len(cells), 1, K))[:, 0]
    update(state, [(i, j, k, s) for (i, j), column in zip(cells.tolist(), columns)
                   for k, s in enumerate(column.tolist())])
    assert states_equal(state, init(state.voxels, params)) == []
    observed = np.argwhere(state.voxels.states)
    update(state, np.c_[observed, np.zeros(len(observed), dtype=np.int64)])
    assert state.voxels.cell_count() == 0
    assert states_equal(state, init(state.voxels, params)) == []
    assert (state.height.floor_k == -1).all() and np.isnan(state.slope.values).all()
    assert (state.uav.values == -1.0).all() and (state.ugv.values == -1.0).all()


class RebuildEquivalence(RuleBasedStateMachine):
    """Random update sequences on small maps; after every step the state
    equals a fresh init() of its voxel map."""

    @initialize(extent=st.tuples(st.integers(1, 12), st.integers(1, 12),
                                 st.integers(1, 16)),
                radius=st.integers(1, 3))
    def start(self, extent, radius):
        params = ConversionParams(min_clearance=0.3, slope_window_m=0.1 * radius)
        self.state = init(VoxelMap(0.1, (0.0, 0.0, 0.0), extent), params)

    def draw_batch(self, data) -> list:
        M, N, K = self.state.voxels.extent
        voxel = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1),
                          st.integers(0, K - 1), st.sampled_from([U, O, F]))
        return data.draw(st.lists(voxel, max_size=20))

    @rule(data=st.data())
    def write_batch(self, data):
        update(self.state, self.draw_batch(data))

    @rule(data=st.data(), dtype=st.sampled_from([np.int32, np.int64]))
    def write_batch_as_array(self, data, dtype):
        # the form `bench` replays a trace batch in: one integer (n, 4) array
        update(self.state, np.array(self.draw_batch(data), dtype).reshape(-1, 4))

    @rule(data=st.data())
    def write_floors(self, data):
        M, N, K = self.state.voxels.extent
        cells = data.draw(st.lists(st.tuples(st.integers(0, M - 1),
                                             st.integers(0, N - 1),
                                             st.integers(0, K - 1)),
                                   min_size=1, max_size=12))
        update(self.state, [w for m, n, f in cells for w in floor_column(m, n, f, K)])

    @rule(data=st.data())
    def write_above_floors(self, data):
        # Random states at k >= floor_k + min_run in present columns leave
        # the all-free window at the floor intact, so no floor can move and
        # every such batch takes the update that skips the slope fit.
        vmap, params = self.state.voxels, self.state.params
        K = vmap.extent[2]
        above = self.state.height.floor_k + params.min_run(vmap.resolution)
        cells = np.argwhere((self.state.height.floor_k >= 0) & (above < K))
        if not len(cells):
            return
        picks = data.draw(st.lists(st.tuples(st.integers(0, len(cells) - 1),
                                             st.integers(0, K - 1),
                                             st.sampled_from([U, O, F])),
                                   min_size=1, max_size=20))
        writes = []
        for i, k, s in picks:
            m, n = (int(x) for x in cells[i])
            lowest = int(above[m, n])
            writes.append((m, n, lowest + k % (K - lowest), s))
        floor = self.state.height.floor_k.copy()
        report = update(self.state, writes)
        assert np.array_equal(self.state.height.floor_k, floor)
        assert report.slope_cells == 0

    @rule(layout=st.sampled_from(["isolated", "row", "column", "diagonal"]),
          at=st.integers(0, 11), data=st.data())
    def degenerate_layout(self, layout, at, data):
        # erase the map, then floor one cell or one line of cells: every
        # slope fit is degenerate (fewer than 3 samples, or collinear)
        M, N, K = self.state.voxels.extent
        m0, n0 = at % M, at % N
        cells = {"isolated": [(m0, n0)],
                 "row": [(m0, n) for n in range(N)],
                 "column": [(m, n0) for m in range(M)],
                 "diagonal": [(d, d) for d in range(min(M, N))]}[layout]
        floors = data.draw(st.lists(st.integers(0, max(0, K - 3)),
                                    min_size=len(cells), max_size=len(cells)))
        erase = [(m, n, k, U) for m in range(M) for n in range(N) for k in range(K)]
        update(self.state, erase + [w for (m, n), f in zip(cells, floors)
                                    for w in floor_column(m, n, f, K)])
        present = ~np.isnan(self.state.height.floor)
        assert np.array_equal(self.state.slope.degenerate, present)

    @rule(which=st.integers(0, 5))
    def reject_out_of_extent(self, which):
        M, N, K = self.state.voxels.extent
        bad = [(M, 0, 0), (0, N, 0), (0, 0, K), (-1, 0, 0), (0, -1, 0),
               (0, 0, -1)][which]
        before = copy.deepcopy(self.state.voxels)
        with pytest.raises(IndexError):
            update(self.state, [(0, 0, 0, F), (*bad, F)])
        assert self.state.voxels == before

    @invariant()
    def rebuild_equivalent(self):
        fresh = init(self.state.voxels, self.state.params)
        assert states_equal(self.state, fresh) == []


TestRebuildEquivalence = RebuildEquivalence.TestCase
TestRebuildEquivalence.settings = settings(max_examples=40, stateful_step_count=12,
                                           deadline=None)
