"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are pinned here, not tuned elsewhere.
"""
import math
import time

import numpy as np
import pytest

from voxflat import (ConversionParams, LiftParams, VoxelState,
                     enforce_clearance, init, lift_path, save_voxel_map, update)
from voxflat.cli import main as cli_main
from voxflat.scenes import SceneSpec, generate

from oracles import (HeightRange, best_grid_residual, extract_ranges,
                     filter_free_ranges, fit_plane, height_from_ranges,
                     make_height_map, occupancy_value, plane_residual,
                     random_column, states_equal)

U, O, F = VoxelState.UNKNOWN, VoxelState.OCCUPIED, VoxelState.FREE

REBUILD_SCENES = ("flat-room", "ramp", "step", "low-wall", "crawl-space")


def _report(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_criterion_1_rebuild_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    traces = 0
    for kind in REBUILD_SCENES:
        for _ in range(20):
            vmap, _ = generate(SceneSpec(kind=kind, size_x=2.4, size_y=2.0))
            state = init(vmap)
            M, N, K = vmap.extent
            for _ in range(int(rng.integers(1, 4))):
                batch = [(int(rng.integers(M)), int(rng.integers(N)),
                          int(rng.integers(K)), VoxelState(int(rng.integers(0, 3))))
                         for _ in range(int(rng.integers(1, 11)))]
                update(state, batch)
            mismatches = states_equal(state, init(state.voxels))
            assert mismatches == [], (kind, mismatches)
            traces += 1
    elapsed = time.perf_counter() - t0
    assert traces >= 100
    assert elapsed < 60.0, f"rebuild equivalence took {elapsed:.1f}s"
    _report(f"1 rebuild equivalence ({traces} traces, "
            f"{len(REBUILD_SCENES)} scenes, {elapsed:.1f}s)")


def test_criterion_2_plane_fit_oracle():
    rng = np.random.default_rng(7)
    dominated = 0
    for _ in range(1000):
        n = int(rng.integers(3, 26))
        samples = [(float(x), float(y), float(z))
                   for x, y, z in zip(rng.uniform(-1, 1, n),
                                      rng.uniform(-1, 1, n),
                                      rng.uniform(-2, 2, n))]
        fit = fit_plane(samples)
        if fit is None:
            continue
        assert plane_residual(samples, *fit) <= best_grid_residual(samples) + 1e-9
        dominated += 1
    assert dominated >= 900
    recovered = 0
    for _ in range(1000):
        a, b = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
        c = float(rng.uniform(-2, 2))
        n = int(rng.integers(3, 20))
        xs = rng.uniform(-1, 1, n)
        ys = rng.uniform(-1, 1, n)
        samples = [(float(x), float(y), a * x + b * y + c)
                   for x, y in zip(xs, ys)]
        fit = fit_plane(samples)
        if fit is None:
            continue
        assert abs(fit.a - a) <= 1e-9
        assert abs(fit.b - b) <= 1e-9
        recovered += 1
    assert recovered >= 900
    _report(f"2 plane-fit oracle ({dominated} dominance, {recovered} recovery)")


def test_criterion_3_occupancy_oracle():
    rng = np.random.default_rng(11)
    res = 0.1
    K = 40
    checked = 0
    while checked < 1000:
        nb_col = np.zeros(K, dtype=np.uint8)
        start = int(rng.integers(0, K - 12))
        nb_col[start:start + int(rng.integers(10, K - start))] = int(F)
        ranges = filter_free_ranges(
            extract_ranges(nb_col, res, 0.0), 1.0)
        span = height_from_ranges(ranges)
        if span is None:
            continue
        ex_col = random_column(rng, K)
        occupied = extract_ranges(ex_col, res, 0.0).occupied
        height = make_height_map([[span.floor], [None]],
                                 [[span.ceiling], [None]], resolution=res)
        value = occupancy_value((1, 0), occupied, height, height.floor_k >= 0)
        kf0 = int(round(span.floor / res))
        kf1 = int(round(span.ceiling / res))
        oracle = min(1.0, int(np.count_nonzero(ex_col[kf0:kf1] == int(O)))
                     / (kf1 - kf0))
        tolerance = res / (span.ceiling - span.floor)
        assert abs(value - oracle) <= tolerance + 1e-12
        checked += 1
    # hand case: occupied [0,1] against span [0,2] is exactly one half
    height = make_height_map([[0.0], [None]], [[2.0], [None]])
    hand = occupancy_value((1, 0), (HeightRange(0.0, 1.0),), height,
                           height.floor_k >= 0)
    assert hand == 0.5
    _report(f"3 occupancy oracle ({checked} columns, hand case 0.5 exact)")


def test_criterion_4_safety_filter_crawl_space():
    spec = SceneSpec(kind="crawl-space", gap=0.5)
    vmap, truth = generate(spec)
    state = init(vmap)  # defaults carry the 1 m safety margin
    assert state.params.min_clearance == 1.0
    strip = (truth.uav == -1) | (truth.uav == 1)
    M, N, _ = vmap.extent
    strip[:2, :] = strip[-2:, :] = False
    strip[:, :2] = strip[:, -2:] = False
    assert strip.any()
    assert np.all(state.uav.values[strip] != 0.0)
    assert np.all(state.ugv.values[strip] != 0.0)
    _report(f"4 safety filter (0.5 m crawl space, {int(strip.sum())} cells "
            "non-free in both maps)")


def test_criterion_5_uav_ugv_divergence():
    spec = SceneSpec(kind="low-wall")  # 1.2 m wall, observed above
    vmap, _ = generate(spec)
    state = init(vmap)
    assert state.params.max_slope == 2.0
    uav_occ = state.uav.values > 0.0
    ugv_occ = state.ugv.values > 0.0
    assert np.all(ugv_occ[uav_occ])  # occupied set inclusion
    ix = round(spec.size_x / spec.resolution)
    wx0 = (ix - spec.wall_thickness) // 2 + 2
    wall = np.zeros_like(uav_occ)
    wall[wx0:wx0 + spec.wall_thickness, 2:-2] = True
    # the wall is free-or-unknown to the aerial map, occupied to the ground map
    assert np.all((state.uav.values[wall] == 0.0)
                  | (state.uav.values[wall] == -1.0))
    difference = ugv_occ & ~uav_occ
    assert (difference & wall).any()
    _report(f"5 uav/ugv divergence ({int((difference & wall).sum())} wall cells "
            "occupied only for the ground robot)")


def test_criterion_6_path_lift():
    rng = np.random.default_rng(5)
    # windowed-max monotonicity on 1000 random paths
    for _ in range(1000):
        length = int(rng.integers(5, 40))
        floors = rng.uniform(0.0, 1.0, (length, 1)).tolist()
        height = make_height_map(floors)
        path = [(m, 0) for m in range(length)]
        previous = None
        for lookahead in (0, 2, 5):
            z = [wp[2] for wp in
                 lift_path(path, height, LiftParams(lookahead, 0.3))]
            if previous is not None:
                assert all(b >= a + -1e-12 for a, b in zip(previous, z))
            previous = z
    # sphere checks on every uav-lifted path over rough ground; the map
    # snaps the drawn heights to voxel faces, and the sphere must clear the
    # heights it stores
    radius = 0.5
    for _ in range(100):
        floors = rng.uniform(0.0, 1.0, (12, 12))
        height = make_height_map(floors.tolist(), (floors + 3.0).tolist())
        floors, ceilings = height.floor, height.ceiling
        path = [(m, int(rng.integers(0, 12))) for m in range(12)]
        lifted = lift_path(path, height, LiftParams(2, 1.0, radius))
        cleared = enforce_clearance(lifted, height, radius)
        for x, y, z in cleared:
            m = int(x / 0.1)
            n = int(y / 0.1)
            for dm in range(-5, 6):
                for dn in range(-5, 6):
                    mm, nn = m + dm, n + dn
                    if not (0 <= mm < 12 and 0 <= nn < 12):
                        continue
                    if math.hypot(dm, dn) * 0.1 > radius:
                        continue
                    assert floors[mm, nn] <= z - radius + 1e-9
                    assert z + radius <= ceilings[mm, nn] + 1e-9
    # a corridor thinner than the sphere errors deterministically
    squeeze = make_height_map([[0.0], [1.6]], [[2.4], [2.9]])
    messages = set()
    for _ in range(3):
        with pytest.raises(ValueError) as err:
            enforce_clearance([(0.15, 0.05, 2.0)], squeeze, radius)
        messages.add(str(err.value))
    assert len(messages) == 1
    assert "waypoint 0" in messages.pop()
    _report("6 path lift (1000 monotonic, 100 sphere-checked, "
            "infeasible corridor errors deterministically)")


def test_criterion_7_size_report(tmp_path):
    from voxflat import write_occupancy
    spec = SceneSpec(kind="flat-room", size_x=9.6, size_y=9.6, height=5.0)
    vmap, _ = generate(spec)
    assert vmap.extent == (100, 100, 50)
    vxg = tmp_path / "room.vxg"
    save_voxel_map(vmap, vxg)
    state = init(vmap)
    occ = tmp_path / "uav.g2d"
    write_occupancy(state.uav, occ)
    size, voxel_bytes = occ.stat().st_size, vxg.stat().st_size
    pct = round(size / voxel_bytes * 100.0, 1)
    assert pct < 5.0
    _report(f"7 size report (occupancy {size} B = {pct}% of "
            f"{voxel_bytes} B voxel map, < 5%)")


def test_criterion_8_incremental_locality():
    spec = SceneSpec(kind="flat-room", size_x=50.8, size_y=50.8, height=2.0)
    vmap, _ = generate(spec)
    assert vmap.extent[0] == 512 and vmap.extent[1] == 512
    state = init(vmap)
    radius = ConversionParams().slope_radius_cells(vmap.resolution)
    bound = (2 * (radius + 1) + 1) ** 2
    best_us = math.inf
    M, N, K = vmap.extent
    for trial in range(3):
        report = update(state, [(M // 2 + trial, N // 2, K // 2, F)])
        assert report.occupancy_cells <= bound
        best_us = min(best_us, report.wall_time_us)
    assert best_us < 10_000, f"single-voxel update took {best_us} us"
    _report(f"8 incremental locality (512x512 map, halo <= {bound} cells, "
            f"update {int(best_us)} us < 10 ms)")


def test_criterion_9_determinism(tmp_path, capsys):
    vxg = tmp_path / "ramp.vxg"
    assert cli_main(["synth", "--scene", "ramp", "--out", str(vxg),
                     "--no-sidecar"]) == 0
    for name in ("a", "b"):
        assert cli_main(["convert", "--in", str(vxg),
                         "--out-dir", str(tmp_path / name)]) == 0
    grids = ("uav_map.g2d", "ugv_map.g2d", "height.g2d", "slope.g2d")
    for name in grids:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    capsys.readouterr()
    for name in grids:
        assert cli_main(["diff", str(tmp_path / "a" / name),
                         str(tmp_path / "b" / name)]) == 0
        assert "0 differing cells" in capsys.readouterr().out
    _report("9 determinism (repeated converts byte-identical, diff clean)")
