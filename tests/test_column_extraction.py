import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voxflat import (ConversionParams, HeightMap, VoxelMap, VoxelState,
                     build_height_map, convert_column, init)
from voxflat.column_extraction import nonzero_box, pad_block, run_bands, window_reduce
from voxflat.scenes import SceneSpec, generate

from oracles import (ColumnRanges, HeightCell, HeightRange, extract_ranges,
                     filter_free_ranges, height_from_ranges, random_column,
                     rasterize_ranges)

U, O, F = VoxelState.UNKNOWN, VoxelState.OCCUPIED, VoxelState.FREE


def test_all_unknown_column_yields_no_ranges():
    cr = extract_ranges(np.zeros(8, dtype=np.uint8), 0.1, 0.0)
    assert cr.free == () and cr.occupied == ()


def test_index_to_meters_rule():
    col = np.zeros(6, dtype=np.uint8)
    col[1] = col[2] = int(F)
    cr = extract_ranges(col, 0.1, 0.0)
    # run (1, 2) -> [origin_z + 1*res, origin_z + 3*res]
    assert cr.free == (HeightRange(0.1, 0.30000000000000004),)
    assert cr.occupied == ()


def test_unknown_gap_splits_free_ranges():
    col = np.zeros(6, dtype=np.uint8)
    col[1] = int(F)
    col[3] = int(F)
    cr = extract_ranges(col, 0.1, 0.0)
    assert len(cr.free) == 2
    assert cr.free[0].high <= cr.free[1].low


def test_extraction_round_trips_through_rasterization():
    rng = np.random.default_rng(21)
    for _ in range(200):
        K = int(rng.integers(4, 24))
        col = random_column(rng, K)
        cr = extract_ranges(col, 0.1, 0.0)
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
        floor_k, ceil_k = height.floor_k, height.ceil_k
        for m in range(7):
            for n in range(6):
                free = [(k0, k0 + length) for k0, length, s in state.ranges.get((m, n), ())
                        if s == F]
                assert all(k1 - k0 >= min_run for k0, k1 in free)
                assert (height.floor_k[m, n] >= 0) == bool(free)
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
            extract_ranges(columns[index], res, origin_z),
            min_clearance))
        if want is None:
            assert floor_k[index] == ceil_k[index] == -1
        else:
            assert (origin_z + floor_k[index] * res,
                    origin_z + ceil_k[index] * res) == want


def kept_span(column: list[int], min_run: int) -> tuple[int, int]:
    """(floor_k, ceil_k) of one column by scanning its free runs: the bottom
    of the lowest run of at least min_run voxels and the top of the highest,
    (-1, -1) when no run is that long."""
    kept, k = [], 0
    for state, run in itertools.groupby(column):
        length = len(list(run))
        if state == F and length >= min_run:
            kept.append((k, k + length))
        k += length
    return (kept[0][0], kept[-1][1]) if kept else (-1, -1)


def scanned_spans(columns: np.ndarray, min_run: int) -> tuple[np.ndarray, np.ndarray]:
    """floor_k and ceil_k of a (..., K) stack by kept_span, column by column."""
    lead = columns.shape[:-1]
    spans = np.array([kept_span(columns[i].tolist(), min_run) for i in np.ndindex(*lead)],
                     dtype=np.int64).reshape(*lead, 2)
    return spans[..., 0], spans[..., 1]


def every_column(K: int) -> np.ndarray:
    """All 3**K columns of K voxels, as a (3**K, K) uint8 stack."""
    return np.array(list(itertools.product((U, O, F), repeat=K)),
                    dtype=np.uint8).reshape(3**K, K)


def assert_kernel_matches_scan(columns: np.ndarray, min_run: int) -> None:
    got = convert_column(columns, min_run)
    for face, want in zip(got, scanned_spans(columns, min_run)):
        assert isinstance(face, np.ndarray) and face.dtype == np.int64
        assert face.shape == columns.shape[:-1]
        assert np.array_equal(face, want)


@pytest.mark.parametrize("K", range(8))
def test_convert_column_matches_a_scan_of_every_column(K):
    # Every min_run from 1 to K + 1: powers of two (the doubling alone) and
    # every overlap of two halves, up to min_run K and one past it.
    columns = every_column(K)
    for min_run in range(1, K + 2):
        assert_kernel_matches_scan(columns, min_run)


def test_convert_column_takes_any_lead_shape_and_strided_columns():
    K = 6
    columns = every_column(K)
    grid = columns[100:124].reshape(4, 6, K)
    strided = np.full((len(columns), 2 * K), int(F), dtype=np.uint8)
    strided[:, ::2] = columns  # the free voxels between must not be read
    stacks = [
        columns[17],                         # one column: lead shape ()
        columns[:0],                         # no columns: lead shape (0,)
        columns[300:306].reshape(2, 3, K),   # lead shape (2, 3)
        columns[[40, 3, 700, 3]],            # a fancy-indexed band
        grid[[0, 3, 1], [5, 0, 2]],          # columns picked from a 3D map
        grid.transpose(1, 0, 2),             # strided lead axes
        strided[:, ::2],                     # a view with a step along k
    ]
    for stack in stacks:
        for min_run in range(1, K + 2):
            assert_kernel_matches_scan(stack, min_run)


def test_convert_column_validates_min_run():
    with pytest.raises(ValueError):
        convert_column(np.zeros((2, 5), dtype=np.uint8), 0)
    with pytest.raises(ValueError):
        convert_column(np.zeros((2, 5), dtype=np.uint8), 1.0)
    # a bool is not a run length, although Python counts it as an int
    for flag in (True, False):
        with pytest.raises(ValueError, match="min_run must be an int >= 1"):
            convert_column(np.full((1, 4), int(F), dtype=np.uint8), flag)
    # a run threshold taller than the column keeps nothing
    floor_k, ceil_k = convert_column(np.full((2, 5), int(F), dtype=np.uint8), 6)
    assert floor_k.tolist() == ceil_k.tolist() == [-1, -1]


# (dtype, op, entries) of the reductions the kernels run: the free-mask AND,
# the lift's maximum over faces padded with -1, and the slope sums, kept small
# enough that no window of 40 entries leaves the dtype.
WINDOW_OPS = {
    "and-bool": (np.bool_, operator.and_, st.booleans()),
    "max-int32": (np.int32, np.maximum, st.integers(-1, 2**31 - 1)),
    "add-int32": (np.int32, operator.add, st.integers(-2**25, 2**25)),
    "add-int64": (np.int64, operator.add, st.integers(-2**57, 2**57)),
}


def reduce_each_window(a: np.ndarray, d: int, op, step: int) -> np.ndarray:
    """op over a[i], a[i + step], ..., a[i + (d-1)*step] for every i, one
    window at a time."""
    n = a.size - (d - 1) * step
    return np.array([functools.reduce(op, a[i:i + (d - 1) * step + 1:step])
                     for i in range(n)], dtype=a.dtype)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), which=st.sampled_from(sorted(WINDOW_OPS)), d=st.integers(1, 40),
       step=st.integers(1, 5), extra=st.integers(0, 12))
def test_window_reduce_matches_a_reduce_of_each_window(data, which, d, step, extra):
    dtype, op, entries = WINDOW_OPS[which]
    # the shortest input, (d-1)*step + 1 entries, has exactly one window
    a = data.draw(arrays(dtype, (d - 1) * step + 1 + extra, elements=entries))
    got = window_reduce(a, d, op, step)
    assert got.dtype == a.dtype
    assert np.array_equal(got, reduce_each_window(a, d, op, step))


def test_window_reduce_reads_one_window_from_the_shortest_input():
    for which, (dtype, op, _) in sorted(WINDOW_OPS.items()):
        for d in range(1, 41):
            for step in range(1, 6):
                a = np.arange((d - 1) * step + 1).astype(dtype)
                got = window_reduce(a, d, op, step)
                assert np.array_equal(got, reduce_each_window(a, d, op, step)), (which, d)


def test_height_block_pads_with_absent_faces():
    # The stored faces as they are: the absent cell and cells past the edge
    # read -1, and presence is floor_k >= 0.
    height = HeightMap(0.5, (0.0, 0.0, 1.0), np.array([[0, 1], [-1, 2]], np.int32),
                       np.array([[4, 5], [-1, 6]], np.int32))
    faces = pad_block(0, 2, 1, 2, 1, height.floor_k, height.ceil_k)
    assert faces.dtype == np.int32 and faces.shape == (2, 4, 3)
    assert faces[0].tolist() == [[-1, -1, -1], [0, 1, -1], [-1, 2, -1], [-1, -1, -1]]
    assert faces[1].tolist() == [[-1, -1, -1], [4, 5, -1], [-1, 6, -1], [-1, -1, -1]]
    # One plane given, one plane padded: the slope fit reads the floor only.
    floor = pad_block(0, 2, 1, 2, 1, height.floor_k)
    assert floor.shape == (1, 4, 3) and (floor[0] == faces[0]).all()
    assert (height.floor_k >= 0).tolist() == [[True, True], [False, True]]
    assert nonzero_box(height.floor_k[1:2, 0:2] >= 0) == (0, 1, 1, 2)
    assert nonzero_box(height.floor_k[1:2, 0:1] >= 0) is None
    assert height.window(slice(-1, None), slice(5, 0)) == (1, 2, 2, 2)


def bands_run(box, rows):
    """The (row, column) slices run_bands passes to fn, top to bottom."""
    seen = []
    run_bands(lambda r, c: seen.append((r, c)), box, rows)
    return sorted(seen, key=lambda band: band[0].start)


def test_bands_cover_the_bounding_box_of_the_mask_in_row_blocks():
    mask = np.zeros((9, 7), dtype=bool)
    mask[[1, 6], [5, 2]] = True
    box = nonzero_box(mask)
    assert bands_run(box, 2) == [(slice(1, 3), slice(2, 6)), (slice(3, 5), slice(2, 6)),
                                 (slice(5, 7), slice(2, 6))]
    assert bands_run(box, 4) == [(slice(1, 5), slice(2, 6)), (slice(5, 7), slice(2, 6))]
    assert bands_run(box, 64) == [(slice(1, 7), slice(2, 6))]
    assert bands_run(None, 1) == []
    assert bands_run((3, 3, 0, 4), 1) == []


def test_nonzero_box_bounds_the_columns_holding_a_nonzero_entry():
    states = np.zeros((5, 6, 4), dtype=np.uint8)
    assert nonzero_box(states) is None
    states[4, 5, 3] = int(F)  # the last row and column, top voxel only
    assert nonzero_box(states) == (4, 5, 5, 6)
    states[1, 2, 0] = int(O)
    assert nonzero_box(states) == (1, 5, 2, 6)
    assert nonzero_box(states[:, :, 1:]) == (4, 5, 5, 6)  # a strided view
    # a 2D mask gives the box of its True cells; an empty array has none
    assert nonzero_box(states.any(axis=2)) == (1, 5, 2, 6)
    assert nonzero_box(np.zeros((0, 3), dtype=bool)) is None
    assert nonzero_box(np.zeros((3, 0), dtype=bool)) is None


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5)),
       seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.01, 0.1, 0.5]))
def test_nonzero_box_is_the_box_of_observed_columns(shape, seed, density):
    # The contiguous reductions agree with the per-column any() they replace.
    rng = np.random.default_rng(seed)
    states = np.where(rng.random(shape) < density,
                      rng.integers(1, 3, shape), 0).astype(np.uint8)
    m, n = np.nonzero(states.any(axis=2))
    want = (m.min(), m.max() + 1, n.min(), n.max() + 1) if m.size else None
    assert nonzero_box(states) == want
    assert nonzero_box(states.any(axis=2)) == want


def test_from_meters_snaps_heights_to_faces():
    nan = np.nan
    # origin_z 1.0 at 0.5 m: 1.74 is face 1.48 and snaps to 1, 3.4 to 5, and
    # 0.8 (face -0.4) to 0
    height = HeightMap.from_meters(0.5, (0.0, 0.0, 1.0), [[0.8, 1.74], [nan, 2.0]],
                                   [[3.0, 3.4], [nan, 4.0]])
    assert height.floor_k.dtype == height.ceil_k.dtype == np.int32
    assert height.floor_k.tolist() == [[0, 1], [-1, 2]]
    assert height.ceil_k.tolist() == [[4, 5], [-1, 6]]
    assert np.array_equal(height.floor, [[1.0, 1.5], [nan, 2.0]], equal_nan=True)
    # a floor-only map: every ceiling absent, every floor kept
    floor_only = HeightMap.from_meters(0.1, (0.0, 0.0, 0.0), [[0.3, nan]],
                                       [[nan, nan]])
    assert floor_only.floor_k.tolist() == [[3, -1]]
    assert floor_only.ceil_k.tolist() == [[-1, -1]]


@pytest.mark.parametrize("floor, ceiling, message", [
    ([[0.0, np.inf]], [[1.0, 2.0]], r"cell \(0, 1\) .*: a height is not finite"),
    ([[0.0, 0.5]], [[1.0, -np.inf]], r"cell \(0, 1\) .*: a height is not finite"),
    ([[-0.06, 0.0]], [[1.0, 1.0]], r"cell \(0, 0\) .*below origin_z"),
    ([[0.0, 0.0]], [[1.0, 3e8]], r"cell \(0, 1\) .*beyond int32"),
    ([[0.0, 1e308]], [[1.0, 1e308]], r"cell \(0, 1\) .*beyond int32"),
    ([[0.0, np.nan]], [[1.0, 0.5]], r"cell \(0, 1\) .*only one of floor and ceiling"),
    ([[0.0, 0.5]], [[1.0, np.nan]], r"cell \(0, 1\) .*only one of floor and ceiling"),
    ([[0.0, 0.5]], [[1.0, 0.5]], r"cell \(0, 1\) .*at or below the floor"),
    ([[0.0, 0.5]], [[1.0, 0.54]], r"cell \(0, 1\) .*at or below the floor"),
])
def test_from_meters_rejects_heights_no_conversion_makes(floor, ceiling, message):
    with pytest.raises(ValueError, match=message):
        HeightMap.from_meters(0.1, (0.0, 0.0, 0.0), floor, ceiling)


@pytest.mark.parametrize("resolution, origin, message", [
    (np.nan, (0.0, 0.0, 0.0), "resolution must be finite and positive"),
    (0.0, (0.0, 0.0, 0.0), "resolution must be finite and positive"),
    (0.1, (0.0, 0.0, np.nan), "non-finite origin"),
    (0.1, (np.inf, 0.0, 0.0), "non-finite origin"),
])
def test_from_meters_rejects_bad_geometry(resolution, origin, message):
    # a NaN resolution or origin_z once snapped every height to -2147483648
    with pytest.raises(ValueError, match=message):
        HeightMap.from_meters(resolution, origin, [[0.0]], [[1.0]])


@pytest.mark.parametrize("floor_k, ceil_k, message", [
    ([[0.0, 1.0]], [[2.0, 3.0]], "integer 2D planes of one shape"),
    ([0, 1], [2, 3], "integer 2D planes of one shape"),
    ([[0, 1]], [[2, 3, 4]], "integer 2D planes of one shape"),
    ([[0, -2]], [[2, 3]], r"cell \(0, 1\) .*outside \[-1, int32 max\]"),
    ([[0, 1]], [[2, 2**31]], r"cell \(0, 1\) .*outside \[-1, int32 max\]"),
    ([[0, 1]], [[2, -1]], r"cell \(0, 1\) .*only one of floor and ceiling"),
    ([[0, -1]], [[2, 3]], r"cell \(0, 1\) .*only one of floor and ceiling"),
    ([[0, 3]], [[2, 3]], r"cell \(0, 1\) .*at or below the floor"),
    ([[0, 3]], [[2, 1]], r"cell \(0, 1\) .*at or below the floor"),
])
def test_constructor_rejects_faces_no_conversion_makes(floor_k, ceil_k, message):
    with pytest.raises(ValueError, match=message):
        HeightMap(0.1, (0.0, 0.0, 0.0), np.array(floor_k), np.array(ceil_k))


def test_constructor_stores_int32_faces_and_takes_floor_only_maps():
    height = HeightMap(0.1, (0.0, 0.0, 0.0), np.array([[3, -1]]), np.array([[-1, -1]]))
    assert height.floor_k.dtype == height.ceil_k.dtype == np.int32
    assert height.floor_k.tolist() == [[3, -1]] and height.ceil_k.tolist() == [[-1, -1]]


def test_meter_views_follow_set_faces():
    height = HeightMap.empty(0.1, (0.0, 0.0, -1.0), (2, 3))
    assert height.floor_k.dtype == np.int32 and (height.floor_k == -1).all()
    assert np.isnan(height.floor).all() and np.isnan(height.ceiling).all()
    assert height.present_box is None
    height.set_faces((slice(0, 1), slice(1, 3)), np.array([4, 5]), np.array([20, 30]))
    assert height.floor_k.tolist() == [[-1, 4, 5], [-1, -1, -1]]
    assert height.present_box == (0, 1, 1, 3)
    assert np.array_equal(height.floor[0], [np.nan, -1.0 + 4 * 0.1, -1.0 + 5 * 0.1],
                          equal_nan=True)
    assert np.array_equal(height.ceiling[0], [np.nan, -1.0 + 20 * 0.1, -1.0 + 30 * 0.1],
                          equal_nan=True)
    assert (height.floor_k >= 0).tolist() == [[False, True, True], [False] * 3]
