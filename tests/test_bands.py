"""Full-build band loops on the shared thread pool (`column_extraction.run_bands`).

The height, slope and UAV builds run their row bands through `run_bands`:
concurrently on a pool of one thread per usable CPU, or inline with one band.
Each band writes only its own rows, so `init()`'s grids must be bit-identical
whatever the worker count and the band size.
"""
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxflat import ConversionParams, VoxelMap, column_extraction, init
from voxflat import occupancy_maps, slope_map
from voxflat.scenes import SCENE_KINDS, SceneSpec, generate
from voxflat.voxel_store import nonzero_box

SRC = Path(column_extraction.__file__).resolve().parents[1]


def pool_threads(prefix):
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


def grids(vmap, params, workers, small):
    """init()'s six grids with `run_bands` on a pool of `workers` threads of
    its own, and with bands of one to three rows when `small`."""
    prefix = f"test-bands-{workers}"
    pool = ThreadPoolExecutor(workers, thread_name_prefix=prefix)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(column_extraction, "_pool", pool)
        if small:
            mp.setattr(column_extraction, "_BAND_VOXELS", 1)  # one row per band
            mp.setattr(slope_map, "_BAND_ROWS", 3)
            mp.setattr(occupancy_maps, "_BAND_CELLS", 1)  # one row per band
        try:
            state = init(vmap, params)
            started = bool(pool_threads(prefix))
        finally:
            pool.shutdown()
    # bands of one to three rows over more than one observed row run on the pool
    box = nonzero_box(vmap.states)
    if small and box is not None and box[1] - box[0] > 1:
        assert started
    return {"floor": state.height.floor_k, "ceiling": state.height.ceil_k,
            "slope": state.slope.values, "degenerate": state.slope.degenerate,
            "uav": state.uav.values, "ugv": state.ugv.values}


def assert_same_bits_on_any_worker_count(vmap, params):
    serial = grids(vmap, params, 1, small=False)
    for workers in (1, 2, 3):
        for name, grid in grids(vmap, params, workers, small=True).items():
            want = serial[name]
            assert (grid.dtype, grid.shape) == (want.dtype, want.shape), name
            assert grid.tobytes() == want.tobytes(), (name, workers)


@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_scenes_build_the_same_bits_on_any_worker_count(kind):
    vmap, _ = generate(SceneSpec(kind=kind))
    for radius in (1, 2, 5):  # halos inside a band, across one, across several
        assert_same_bits_on_any_worker_count(
            vmap, ConversionParams(slope_window_m=0.1 * radius))


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 20), N=st.integers(1, 20), K=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), radius=st.integers(1, 4),
       min_clearance=st.sampled_from([0.1, 0.3, 0.6]))
def test_random_maps_build_the_same_bits_on_any_worker_count(M, N, K, seed, radius,
                                                             min_clearance):
    rng = np.random.default_rng(seed)
    states = rng.choice(np.array([0, 1, 2, 2, 2], dtype=np.uint8), (M, N, K))
    states[rng.random((M, N)) < 0.2] = 0  # whole Unknown columns
    vmap = VoxelMap(0.1, (0.0, 0.0, 0.0), (M, N, K))
    observed = np.argwhere(states)
    vmap.apply_cells(np.c_[observed, states[tuple(observed.T)]])
    params = ConversionParams(min_clearance=min_clearance, slope_window_m=0.1 * radius)
    assert_same_bits_on_any_worker_count(vmap, params)


@pytest.mark.parametrize("workers", [1, 8])
def test_a_failing_band_raises_the_serial_error_once_no_band_runs(monkeypatch, workers):
    pool = ThreadPoolExecutor(workers)
    monkeypatch.setattr(column_extraction, "_pool", pool)
    lock = threading.Lock()
    running, started, finished = 0, [], []

    def band(rows, cols):
        nonlocal running
        with lock:
            running += 1
            started.append(rows.start)
        try:
            # band 2 fails first in band order; on 8 workers band 5 fails
            # first in time
            time.sleep(0 if rows.start == 5 else 0.02)
            if rows.start in (2, 5):
                raise ValueError(f"band {rows.start} failed")
        finally:
            with lock:
                running -= 1
                finished.append(rows.start)

    try:
        with pytest.raises(ValueError, match="^band 2 failed$"):
            column_extraction.run_bands(band, (0, 8, 0, 4), 1)
        assert running == 0
        assert sorted(started) == sorted(finished)
        assert {0, 1, 2} <= set(finished)
        if workers > 1:  # every band started at once
            assert 5 in finished
    finally:
        pool.shutdown()


def test_one_band_runs_inline(monkeypatch):
    pool = ThreadPoolExecutor(2, thread_name_prefix="test-bands-inline")
    monkeypatch.setattr(column_extraction, "_pool", pool)
    seen = []

    def band(rows, cols):
        seen.append((rows, cols, threading.current_thread()))

    try:
        column_extraction.run_bands(band, (3, 5, 1, 7), 2)
        column_extraction.run_bands(band, None, 2)
        column_extraction.run_bands(band, (4, 4, 0, 3), 2)
        assert not pool_threads("test-bands-inline")
    finally:
        pool.shutdown()
    assert seen == [(slice(3, 5), slice(1, 7), threading.current_thread())]


FORK_CHECK = """
import os, sys, threading, time
import numpy as np
from voxflat import column_extraction, init
from voxflat.scenes import SceneSpec, generate

column_extraction._BAND_VOXELS = 1
vmap, _ = generate(SceneSpec(kind="ramp"))
inherited = column_extraction._pool
before = init(vmap)
assert any(t.name.startswith("voxflat-band") for t in threading.enumerate()), \
    "the parent started no pool thread"
pid = os.fork()
if pid == 0:
    code = 3
    try:
        fresh = column_extraction._pool is not inherited
        after = init(vmap)
        same = all(np.array_equal(a, b, equal_nan=True) for a, b in (
            (after.height.floor_k, before.height.floor_k),
            (after.slope.values, before.slope.values),
            (after.uav.values, before.uav.values)))
        code = 0 if fresh and same else 4
    finally:
        os._exit(code)
deadline = time.monotonic() + 30
while True:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    if time.monotonic() > deadline:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        sys.exit("the forked child hung")
    time.sleep(0.02)
"""


def test_a_forked_child_converts_on_a_pool_of_its_own():
    # A subprocess: forking this multi-threaded test process would warn, and
    # pytest turns warnings into errors.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", FORK_CHECK], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
