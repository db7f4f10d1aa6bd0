import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voxflat import ConversionParams, HeightMap, build_slope_map, init, slope_at
from voxflat.scenes import SceneSpec, generate

from oracles import (best_grid_residual, fit_plane, make_height_map, plane_residual,
                     slope_kernel_reference)


def plane_samples(a, b, c, positions):
    return [(x, y, a * x + b * y + c) for x, y in positions]


GRID_POSITIONS = [(0.1 * i, 0.1 * j) for i in range(5) for j in range(5)]


def test_exact_plane_recovered():
    fit = fit_plane(plane_samples(0.5, 0.0, 0.0, GRID_POSITIONS))
    assert fit is not None
    assert abs(fit.a - 0.5) <= 1e-12
    assert abs(fit.b) <= 1e-12
    assert abs(fit.c) <= 1e-12


def test_collinear_and_tiny_inputs_are_degenerate():
    assert fit_plane([]) is None
    assert fit_plane([(0, 0, 1), (1, 1, 2)]) is None
    collinear = [(float(i), float(i), float(i)) for i in range(5)]
    assert fit_plane(collinear) is None
    stacked = [(1.0, 2.0, float(z)) for z in range(4)]
    assert fit_plane(stacked) is None


def test_noisy_fit_beats_brute_force_grid():
    rng = np.random.default_rng(2)
    xs = rng.uniform(-1, 1, 25)
    ys = rng.uniform(-1, 1, 25)
    zs = 0.4 * xs - 0.7 * ys + 0.3 + rng.normal(0, 0.05, 25)
    samples = list(zip(xs.tolist(), ys.tolist(), zs.tolist()))
    fit = fit_plane(samples)
    assert plane_residual(samples, *fit) <= best_grid_residual(samples) + 1e-6


def test_fit_dominates_grid_on_random_neighborhoods():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(3, 20))
        samples = [(float(x), float(y), float(z))
                   for x, y, z in zip(rng.uniform(-1, 1, n),
                                      rng.uniform(-1, 1, n),
                                      rng.uniform(-2, 2, n))]
        fit = fit_plane(samples)
        if fit is None:
            continue
        assert plane_residual(samples, *fit) <= best_grid_residual(samples) + 1e-9


def test_plane_recovery_for_any_radius_and_subset():
    rng = np.random.default_rng(4)
    for _ in range(40):
        a, b = rng.uniform(-1.5, 1.5, 2)
        c = rng.uniform(-2, 2)
        n = int(rng.integers(3, 30))
        positions = {(int(rng.integers(0, 9)), int(rng.integers(0, 9)))
                     for _ in range(n)}
        samples = plane_samples(a, b, c,
                                [(0.05 + 0.1 * i, 0.05 + 0.1 * j) for i, j in positions])
        fit = fit_plane(samples)
        if fit is None:
            continue  # degenerate subset (collinear), allowed
        assert abs(fit.a - a) <= 1e-9
        assert abs(fit.b - b) <= 1e-9


def window_slope(height, m, n, radius):
    """slope_at on the one-cell window (m, n): its value and its flag."""
    values, degenerate = slope_at(height, slice(m, m + 1), slice(n, n + 1), radius)
    return values[0, 0], degenerate[0, 0]


def test_flat_region_has_zero_slope():
    # the fit runs on exact integer moments, so a flat floor reads exactly 0
    height = make_height_map([[0.3] * 7 for _ in range(7)])
    assert window_slope(height, 3, 3, 2) == (0.0, False)
    edge = window_slope(height, 0, 0, 2)  # truncated window, still a flat plane
    assert edge == (0.0, False)


def test_ramp_slope_matches_construction():
    vmap, truth = generate(SceneSpec(kind="ramp", slope=0.5))
    state = init(vmap)
    claimed = ~np.isnan(truth.slope)
    assert claimed.any()
    assert np.array_equal(state.slope.values[claimed], truth.slope[claimed])
    interior = truth.slope[claimed]
    assert np.all(interior == 0.5)


def test_slopes_exactly_at_the_threshold_stay_traversable():
    # a 2:1 ramp sits exactly on the default max_slope of 2; every claimed
    # cell must read exactly 2.0, so no claimed cell is steep for the UGV
    vmap, truth = generate(SceneSpec(kind="ramp", slope=2.0))
    state = init(vmap)
    assert state.params.max_slope == 2.0
    claimed = ~np.isnan(truth.slope)
    assert claimed.any()
    assert np.all(state.slope.values[claimed] == 2.0)
    assert not np.any(state.ugv.values[claimed] == 1.0)


def test_isolated_cell_is_degenerate():
    rows = [[None] * 5 for _ in range(5)]
    rows[2][2] = 1.0
    height = make_height_map(rows)
    assert window_slope(height, 2, 2, 2) == (0.0, True)
    smap = build_slope_map(height, 2)
    assert smap.values[2, 2] == 0.0
    assert smap.degenerate[2, 2]
    assert np.isnan(smap.values[0, 0])
    assert not smap.degenerate[0, 0]


def test_absent_cell_has_no_slope():
    rows = [[1.0] * 5 for _ in range(5)]
    rows[1][1] = None
    height = make_height_map(rows)
    assert np.isnan(window_slope(height, 1, 1, 2)[0])
    assert not window_slope(height, 1, 1, 2)[1]
    smap = build_slope_map(height, 2)
    assert np.isnan(smap.values[1, 1])


def test_step_slopes_exceed_threshold_next_to_the_edge():
    vmap, truth = generate(SceneSpec(kind="step", step_height=1.0))
    state = init(vmap)
    claimed = ~np.isnan(truth.slope)
    values = state.slope.values
    # the construction claims slopes of exactly {0, 2, 3} around a 1 m step
    high = claimed & (truth.slope > 2.5)
    assert high.any()
    assert np.all(values[high] > 2.0)
    assert np.allclose(values[claimed], truth.slope[claimed], atol=1e-9)


def test_slope_invariant_under_height_offset():
    rng = np.random.default_rng(12)
    floors = rng.uniform(0, 1, (9, 9))
    h1 = make_height_map(floors.tolist())
    h2 = make_height_map((floors + 5.0).tolist())
    s1 = build_slope_map(h1, 2)
    s2 = build_slope_map(h2, 2)
    assert np.allclose(s1.values, s2.values, atol=1e-9)


def test_slope_invariant_under_horizontal_translation():
    rng = np.random.default_rng(13)
    floors = rng.uniform(0, 1, (9, 9)).tolist()
    s1 = build_slope_map(make_height_map(floors, origin=(0, 0, 0)), 2)
    s2 = build_slope_map(make_height_map(floors, origin=(120.0, -45.0, 0)), 2)
    assert np.allclose(s1.values, s2.values, atol=1e-9)


def test_radius_validation():
    # True once read as 1, and a float was read as a radius (on a wider map
    # numpy then raised an untyped TypeError).
    height = make_height_map([[0.0]])
    for radius in (0, True, 2.0, 2.5):
        with pytest.raises(ValueError, match="neighborhood radius must be an int >= 1"):
            slope_at(height, slice(0, 1), slice(0, 1), radius)
        with pytest.raises(ValueError, match="neighborhood radius must be an int >= 1"):
            build_slope_map(height, radius)


@pytest.mark.parametrize("r", [28, 30, 35, 60])
def test_large_radius_fits_neither_wrap_nor_blow_up(r):
    # The determinant and numerators once left int64 from radius 28: this
    # 3:1 plane read 1.2442 at r 28, 2.8889 at r 35, and a flagged 0.0 at
    # r 30 and r 60.
    mm, nn = np.indices((2 * r + 1, 2 * r + 1))
    k = (3 * mm + nn + 5).astype(np.int32)
    height = HeightMap(0.1, (0.0, 0.0, 0.0), k, k + 20)
    values, degenerate = slope_at(height, slice(r, r + 1), slice(r, r + 1), r)
    assert not degenerate[0, 0]
    assert values[0, 0] == pytest.approx(np.sqrt(10.0), rel=1e-12)


def test_steep_ramp_stays_untraversable_at_a_wide_window():
    # Every interior floor is steeper than max_slope 2.0; at radius 30 the
    # wrapped fit read 3,628 of them as ground-traversable.
    vmap, _ = generate(SceneSpec(kind="ramp", slope=2.5, size_x=12.0, size_y=8.0))
    state = init(vmap, ConversionParams(slope_window_m=3.0))
    assert (state.uav.values == 0.0).any()
    assert not (state.ugv.values == 0.0).any()


@pytest.mark.parametrize("radius", [5, 12, 10**7])
def test_radius_beyond_the_map_reads_as_the_map_size(radius):
    k = np.random.default_rng(21).integers(0, 40, (4, 3)).astype(np.int32)
    height = HeightMap(0.1, (0.0, 0.0, 0.0), k, k + 50)
    want = slope_at(height, slice(0, 4), slice(0, 3), 4)
    got = slope_at(height, slice(0, 4), slice(0, 3), radius)
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("rows, cols", [(slice(0, 20, 2), slice(0, 10)),
                                        (slice(0, 10), slice(9, None, -1))])
def test_stepped_windows_are_refused(rows, cols):
    # floor[0:20:2] has 10 rows; a window that dropped the step returned 20.
    vmap, _ = generate(SceneSpec(kind="ramp"))
    height = init(vmap).height
    with pytest.raises(ValueError, match="step 1"):
        slope_at(height, rows, cols, 2)


@st.composite
def floor_grids(draw):
    """A height map on voxel faces with a sparse, isolated or collinear layout."""
    M, N = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    k = draw(arrays(np.int32, (M, N), elements=st.integers(0, 60)))
    present = draw(arrays(np.bool_, (M, N)))
    mm, nn = np.indices((M, N))
    layout = draw(st.sampled_from(["any", "isolated", "row", "column", "diagonal"]))
    offset = draw(st.integers(0, 23))
    if layout == "isolated":
        present &= (mm % 7 == offset % 7) & (nn % 7 == offset // 7 % 7)
    elif layout == "row":
        present &= mm == offset % M
    elif layout == "column":
        present &= nn == offset % N
    elif layout == "diagonal":
        present &= nn - mm == offset - 12
    res = draw(st.sampled_from([0.05, 0.1, 0.25]))
    origin_z = draw(st.sampled_from([0.0, -1.3, 12.7]))
    height = HeightMap(res, (0.0, 0.0, origin_z), np.where(present, k, -1),
                       np.where(present, k + 1, -1))
    return height, draw(st.integers(1, 3))


def spans(size):
    return st.tuples(st.integers(0, size), st.integers(0, size)).map(sorted)


@settings(max_examples=300, deadline=None)
@given(floor_grids(), st.data())
def test_kernel_windows_equal_the_full_map_and_the_float_fit(grid, data):
    height, radius = grid
    M, N = height.extent
    full = build_slope_map(height, radius)
    (m0, m1), (n0, n1) = data.draw(spans(M)), data.draw(spans(N))
    values, degenerate = slope_at(height, slice(m0, m1), slice(n0, n1), radius)
    assert np.array_equal(values, full.values[m0:m1, n0:n1], equal_nan=True)
    assert np.array_equal(degenerate, full.degenerate[m0:m1, n0:n1])

    res = height.resolution
    for m, n in zip(*np.nonzero(~np.isnan(height.floor))):
        samples = [((mm + 0.5) * res, (nn + 0.5) * res, height.floor[mm, nn])
                   for mm in range(max(0, m - radius), min(M, m + radius + 1))
                   for nn in range(max(0, n - radius), min(N, n + radius + 1))
                   if not np.isnan(height.floor[mm, nn])]
        fit = fit_plane(samples)
        assert full.degenerate[m, n] == (fit is None)
        if fit is None:
            assert full.values[m, n] == 0.0
        else:
            assert abs(full.values[m, n] - np.hypot(fit.a, fit.b)) <= 1e-9
    assert np.array_equal(np.isnan(full.values), np.isnan(height.floor))


def reference_slopes(height, m0, m1, n0, n1, radius):
    """The summed-area-table kernel on the window, at slope_at's radius."""
    return slope_kernel_reference(height, m0, m1, n0, n1, min(radius, max(height.extent)))


def assert_same_bits(got, want):
    assert got[0].shape == want[0].shape
    assert np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    assert np.array_equal(got[1], want[1])


@st.composite
def face_maps(draw):
    """A height map of random present cells whose floors spread over up to
    60 or 2**20 faces: at the wide spread the centered moments of a large
    radius leave int32."""
    M, N = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    top = draw(st.sampled_from([60, 2**20]))
    k = draw(arrays(np.int32, (M, N), elements=st.integers(0, top)))
    present = draw(arrays(np.bool_, (M, N)))
    return HeightMap(0.1, (0.0, 0.0, 0.0), np.where(present, k, -1),
                     np.where(present, k + 1, -1))


@settings(max_examples=300, deadline=None)
@given(face_maps(), st.integers(1, 8), st.data())
def test_slope_at_equals_the_summed_area_reference_bit_for_bit(height, radius, data):
    M, N = height.extent
    (m0, m1), (n0, n1) = data.draw(spans(M)), data.draw(spans(N))
    got = slope_at(height, slice(m0, m1), slice(n0, n1), radius)
    assert_same_bits(got, reference_slopes(height, m0, m1, n0, n1, radius))


@pytest.mark.parametrize("radius", [1, 8])
def test_faces_near_2_pow_20_match_the_reference(radius):
    # d**4 * X**2 is far past 2**31 here, so the sums run in int64; at
    # radius 8 the centered moments of these floors would not fit int32.
    rng = np.random.default_rng(31)
    k = rng.integers(2**19, 2**20, (30, 30)).astype(np.int32)
    k[rng.random((30, 30)) < 0.2] = -1
    height = HeightMap(0.1, (0.0, 0.0, 0.0), k, np.where(k < 0, -1, k + 30))
    got = slope_at(height, slice(0, 30), slice(0, 30), radius)
    assert_same_bits(got, reference_slopes(height, 0, 30, 0, 30, radius))
    assert not np.isnan(got[0][k >= 0]).any()


@pytest.mark.parametrize("width", [5146, 5147, 5160])
def test_either_side_of_the_int32_bound_matches_the_reference(width):
    # At radius 1 one band is 3 rows grown to 5 and the map's width grown by
    # 2, so X is width + 2: 81 * 5148**2 < 2**31 <= 81 * 5149**2. The widest
    # int32 map, the narrowest int64 one, and one whose window sums' products
    # would pass 2**31 in int32.
    assert 81 * 5148**2 < 2**31 <= 81 * 5149**2
    rng = np.random.default_rng(width)
    k = rng.integers(0, 40, (3, width)).astype(np.int32)
    gaps = rng.random(width) < 0.1
    gaps[[0, -1]] = False  # the present cells' box spans the whole width
    k[:, gaps] = -1
    height = HeightMap(0.1, (0.0, 0.0, 0.0), k, np.where(k < 0, -1, k + 30))
    got = slope_at(height, slice(0, 3), slice(0, width), 1)
    assert_same_bits(got, reference_slopes(height, 0, 3, 0, width, 1))
