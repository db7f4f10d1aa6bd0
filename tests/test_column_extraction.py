import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxflat import (ConversionParams, HeightMap, VoxelMap, VoxelState,
                     build_height_map, convert_column, init)
from voxflat.scenes import SceneSpec, generate

from oracles import (ColumnRanges, HeightCell, HeightRange, column_from_array,
                     extract_ranges, filter_free_ranges, height_from_ranges,
                     random_column, rasterize_ranges)

U, O, F = VoxelState.UNKNOWN, VoxelState.OCCUPIED, VoxelState.FREE


def test_all_unknown_column_yields_no_ranges():
    view = column_from_array(np.zeros(8, dtype=np.uint8))
    cr = extract_ranges(view, 0.1, 0.0)
    assert cr.free == () and cr.occupied == ()


def test_index_to_meters_rule():
    col = np.zeros(6, dtype=np.uint8)
    col[1] = col[2] = int(F)
    cr = extract_ranges(column_from_array(col), 0.1, 0.0)
    # run (1, 2) -> [origin_z + 1*res, origin_z + 3*res]
    assert cr.free == (HeightRange(0.1, 0.30000000000000004),)
    assert cr.occupied == ()


def test_unknown_gap_splits_free_ranges():
    col = np.zeros(6, dtype=np.uint8)
    col[1] = int(F)
    col[3] = int(F)
    cr = extract_ranges(column_from_array(col), 0.1, 0.0)
    assert len(cr.free) == 2
    assert cr.free[0].high <= cr.free[1].low


def test_extraction_round_trips_through_rasterization():
    rng = np.random.default_rng(21)
    for _ in range(200):
        K = int(rng.integers(4, 24))
        col = random_column(rng, K)
        cr = extract_ranges(column_from_array(col), 0.1, 0.0)
        assert np.array_equal(rasterize_ranges(cr, 0.1, 0.0, K), col)


def test_filter_drops_short_free_ranges():
    cr = ColumnRanges((HeightRange(0.0, 0.5),), ())
    assert filter_free_ranges(cr, 1.0).free == ()
    cr = ColumnRanges((HeightRange(0.0, 2.0),), ())
    assert filter_free_ranges(cr, 1.0) == cr


def test_filter_keeps_exactly_threshold_tall_ranges():
    # ten voxels at 0.1 m from index 33: the float height is a hair under 1.0
    low = 33 * 0.1
    high = 43 * 0.1
    assert high - low < 1.0
    cr = ColumnRanges((HeightRange(low, high),), ())
    assert filter_free_ranges(cr, 1.0).free == (HeightRange(low, high),)


def test_filter_passes_occupied_untouched():
    occ = (HeightRange(0.0, 0.1), HeightRange(0.5, 0.6))
    cr = ColumnRanges((HeightRange(0.0, 0.2),), occ)
    assert filter_free_ranges(cr, 1.0).occupied == occ


def test_filter_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        filter_free_ranges(ColumnRanges((), ()), 0.0)


def test_height_from_ranges():
    assert height_from_ranges(ColumnRanges((), ())) is None
    one = ColumnRanges((HeightRange(0.1, 2.0),), ())
    assert height_from_ranges(one) == HeightCell(0.1, 2.0)
    # disjoint ranges collapse: bottom of first, top of last
    two = ColumnRanges((HeightRange(0.0, 1.5), HeightRange(3.0, 5.0)), ())
    assert height_from_ranges(two) == HeightCell(0.0, 5.0)


def test_flat_room_height_map_is_uniform():
    vmap, truth = generate(SceneSpec(kind="flat-room"))
    height = build_height_map(vmap, ConversionParams().min_run(vmap.resolution))
    claimed = ~np.isnan(truth.floor)
    assert claimed.any()
    floors = height.floor[claimed]
    ceilings = height.ceiling[claimed]
    assert np.all(floors == 0.1)
    assert np.all(ceilings == ceilings[0])
    assert 2.8 <= ceilings[0] - 0.1 <= 3.0


def test_crawl_space_columns_have_no_height_cell():
    vmap, truth = generate(SceneSpec(kind="crawl-space"))
    height = build_height_map(vmap, ConversionParams().min_run(vmap.resolution))
    strip = truth.uav != 0  # claimed non-free cells include the crawl strip
    M, N, _ = vmap.extent
    # every interior cell the truth marks occupied/unknown must lack a height
    for m in range(2, M - 2):
        for n in range(2, N - 2):
            if truth.uav[m, n] in (-1, 1):
                assert np.isnan(height.floor[m, n])
    assert strip.any()


def test_empty_map_has_empty_height_map():
    vmap = VoxelMap(0.1, (0, 0, 0), (6, 6, 6))
    height = build_height_map(vmap, ConversionParams().min_run(vmap.resolution))
    assert np.isnan(height.floor).all()
    assert init(vmap).ranges == {}


def test_height_map_invariants_on_random_maps():
    rng = np.random.default_rng(33)
    for _ in range(20):
        vmap = VoxelMap(0.1, (0, 0, -0.5), (7, 6, 20))
        updates = [(int(rng.integers(7)), int(rng.integers(6)),
                    int(rng.integers(20)), VoxelState(int(rng.integers(0, 3))))
                   for _ in range(120)]
        vmap.apply_cells(updates)
        params = ConversionParams(min_clearance=0.4)
        min_run = params.min_run(vmap.resolution)
        assert min_run == 4
        state = init(vmap, params)
        height = state.height
        (floor_k, ceil_k), _ = height.block(0, 7, 0, 6, 0)
        for m in range(7):
            for n in range(6):
                free = [(k0, k0 + length) for k0, length, s in state.ranges.get((m, n), ())
                        if s == F]
                assert all(k1 - k0 >= min_run for k0, k1 in free)
                assert height.present_mask[m, n] == bool(free)
                if free:
                    assert all(floor_k[m, n] <= k0 for k0, _ in free)
                    assert all(ceil_k[m, n] >= k1 for _, k1 in free)
                    assert ceil_k[m, n] - floor_k[m, n] >= min_run


def stacked_columns(draw_runs, shape, K):
    """A (*shape, K) uint8 stack of columns built from drawn (state, length)
    runs, each column cut or padded with Unknown to K voxels."""
    out = np.zeros((*shape, K), dtype=np.uint8)
    for index in np.ndindex(*shape):
        col = [state for state, length in draw_runs() for _ in range(length)]
        out[index][:min(K, len(col))] = col[:K]
    return out


RUNS = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 12)), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), res=st.sampled_from([0.05, 0.1, 0.2, 0.25]),
       origin_z=st.floats(-100.0, 100.0), min_clearance=st.floats(1e-3, 3.0))
def test_convert_column_matches_the_per_column_range_rule(data, res, origin_z,
                                                          min_clearance):
    # One clearance rule: the kernel's integer run length and the range
    # pipeline's float heights keep the same runs, and the floors and
    # ceilings agree bit for bit.
    shape = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    K = data.draw(st.integers(1, 40))
    columns = stacked_columns(lambda: data.draw(RUNS), shape, K)
    min_run = ConversionParams(min_clearance=min_clearance).min_run(res)
    floor_k, ceil_k = convert_column(columns, min_run)
    assert floor_k.shape == ceil_k.shape == shape
    for index in np.ndindex(*shape):
        want = height_from_ranges(filter_free_ranges(
            extract_ranges(column_from_array(columns[index]), res, origin_z),
            min_clearance))
        if want is None:
            assert floor_k[index] == ceil_k[index] == -1
        else:
            assert (origin_z + floor_k[index] * res,
                    origin_z + ceil_k[index] * res) == want


def test_convert_column_validates_min_run():
    with pytest.raises(ValueError):
        convert_column(np.zeros((2, 5), dtype=np.uint8), 0)
    with pytest.raises(ValueError):
        convert_column(np.zeros((2, 5), dtype=np.uint8), 1.0)
    # a run threshold taller than the column keeps nothing
    floor_k, ceil_k = convert_column(np.full((2, 5), int(F), dtype=np.uint8), 6)
    assert floor_k.tolist() == ceil_k.tolist() == [-1, -1]


def test_height_block_pads_with_absent_faces_and_keeps_presence_from_nan():
    # origin_z 1.0 at 0.5 m: floor 0.5 is face -1 and present, 1.74 snaps to
    # face 1, and the NaN cell is absent; cells past the edge read -1.
    nan = np.nan
    height = HeightMap(0.5, (0.0, 0.0, 1.0), np.array([[0.5, 1.74], [nan, 2.0]]),
                       np.array([[3.0, nan], [3.0, 4.0]]))
    faces, present = height.block(0, 2, 1, 2, 1)
    assert faces.dtype == np.int64 and faces.shape == (2, 4, 3)
    assert faces[0].tolist() == [[-1, -1, -1], [-1, 1, -1], [-1, 2, -1], [-1, -1, -1]]
    assert faces[1].tolist() == [[-1, -1, -1], [4, -1, -1], [4, 6, -1], [-1, -1, -1]]
    assert present.tolist() == [[False] * 3, [True, True, False], [False, True, False],
                                [False] * 3]
    assert height.present_box(1, 2, 0, 2) == (1, 2, 1, 2)
    assert height.present_box(1, 2, 0, 1) is None
    assert height.window(slice(-1, None), slice(5, 0)) == (1, 2, 2, 2)


def test_height_gather_reads_nan_off_the_map_and_where_no_floor():
    nan = np.nan
    height = HeightMap(0.1, (0.0, 0.0, 0.0), np.array([[0.0, nan]]),
                       np.array([[2.0, 3.0]]))
    m = np.array([[0, 0], [-1, 1]])
    n = np.array([[0, 1], [0, 0]])
    floor, ceiling = height.gather(m, n)
    assert np.array_equal(floor, [[0.0, nan], [nan, nan]], equal_nan=True)
    assert np.array_equal(ceiling, [[2.0, nan], [nan, nan]], equal_nan=True)
