import copy

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from voxflat import (ConversionParams, DirtyReport, VoxelMap, VoxelState, init,
                     update)
from voxflat.incremental import CSV_HEADER
from voxflat.scenes import SceneSpec, generate

from oracles import states_equal

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
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=3.0, size_y=3.0))
    state = init(vmap)
    radius = ConversionParams().slope_radius_cells(vmap.resolution)
    M, N, K = vmap.extent
    report = update(state, [(M // 2, N // 2, K // 2, F)])
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


def test_cells_outside_the_halo_are_untouched():
    # Two one-column edits: one occupied voxel inside the free span, and a
    # pillar that removes the column's height cell. Each grid may change only
    # within its own halo: heights in the column, UAV within Chebyshev
    # distance 1, slope and UGV within the fit radius r.
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=4.0, size_y=4.0))
    M, N, K = vmap.extent
    m, n = M // 2, N // 2
    r = ConversionParams().slope_radius_cells(vmap.resolution)
    for edit in ([(m, n, K // 2, O)], [(m, n, k, O) for k in range(K)]):
        state = init(copy.deepcopy(vmap))
        grids = {"floor": (state.height.floor, 0), "ceiling": (state.height.ceiling, 0),
                 "uav": (state.uav.values, 1), "slope": (state.slope.values, r),
                 "ugv": (state.ugv.values, r)}
        before = {name: grid.copy() for name, (grid, _) in grids.items()}
        report = update(state, edit)
        assert report.occupancy_cells == (2 * r + 1) ** 2
        for name, (grid, halo) in grids.items():
            inside = np.zeros((M, N), dtype=bool)
            inside[m - halo:m + halo + 1, n - halo:n + halo + 1] = True
            assert np.array_equal(grid[~inside], before[name][~inside], equal_nan=True), \
                f"{name} changed outside its halo of {halo}"
        assert states_equal(state, init(state.voxels)) == []
    # the pillar reached every grid
    assert np.isnan(state.height.floor[m, n]) and state.uav.values[m, n] == 1.0


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
                view = full.column(m, n)
                for z0, length, voxel_state in view.runs:
                    if voxel_state:
                        batch.extend((m, n, k, voxel_state)
                                     for k in range(z0, z0 + length))
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
    original = state.voxels.state_at(*cell)
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


class RebuildEquivalence(RuleBasedStateMachine):
    """Random update sequences on small maps; after every step the state
    equals a fresh init() of its voxel map."""

    @initialize(extent=st.tuples(st.integers(1, 12), st.integers(1, 12),
                                 st.integers(1, 16)),
                radius=st.integers(1, 3))
    def start(self, extent, radius):
        params = ConversionParams(min_clearance=0.3, slope_window_m=0.1 * radius)
        self.state = init(VoxelMap(0.1, (0.0, 0.0, 0.0), extent), params)

    @rule(data=st.data())
    def write_batch(self, data):
        M, N, K = self.state.voxels.extent
        voxel = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1),
                          st.integers(0, K - 1), st.sampled_from([U, O, F]))
        update(self.state, data.draw(st.lists(voxel, max_size=20)))

    @rule(data=st.data())
    def write_floors(self, data):
        M, N, K = self.state.voxels.extent
        cells = data.draw(st.lists(st.tuples(st.integers(0, M - 1),
                                             st.integers(0, N - 1),
                                             st.integers(0, K - 1)),
                                   min_size=1, max_size=12))
        update(self.state, [w for m, n, f in cells for w in floor_column(m, n, f, K)])

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
