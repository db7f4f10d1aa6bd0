"""The library names the benchmark's traced run wraps exist and are called.

`benchmark/tracer.py` wraps library functions at the attributes the program
calls them through (`WRAPPED`). A name that is gone, or that `init()` or
`update()` stops calling, silently drops its per-layer metrics from the
traced run. The list is read from the source, without importing it.
"""
import ast
import importlib
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import voxflat.incremental
from voxflat import ConversionParams, VoxelState, column_extraction, init, update
from voxflat import occupancy_maps, slope_map
from voxflat.scenes import SceneSpec, generate

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def wrapped_names():
    """(module, attribute path, span name) triples of `WRAPPED`."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED assignment in {TRACER}")


def test_every_wrapped_name_resolves():
    for module_name, path, _ in wrapped_names():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{path} is gone"
        assert callable(owner), f"{module_name}.{path} is not callable"


class Calls(dict):
    """Call counts by wrapped name; `threads` holds each call's thread."""

    def __init__(self):
        super().__init__()
        self.threads = set()


@pytest.fixture
def calls(monkeypatch):
    """Counting wrappers on every wrapped `voxflat.incremental` name."""
    counts = Calls()
    for module_name, attr, _ in wrapped_names():
        if module_name != "voxflat.incremental":
            continue
        original = getattr(voxflat.incremental, attr)
        counts[attr] = 0

        def counting(*args, _attr=attr, _original=original, **kwargs):
            counts[_attr] += 1
            counts.threads.add(threading.current_thread())
            return _original(*args, **kwargs)

        monkeypatch.setattr(voxflat.incremental, attr, counting)
    return counts


def test_init_and_update_call_every_wrapped_stage(calls):
    build = {name for name in calls if name.startswith("build_")}
    per_update = set(calls) - build
    assert per_update == {"convert_column", "slope_at", "uav_cell_value"}

    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=2.0, size_y=1.6))
    state = init(vmap)
    assert {name for name in build if calls[name] == 0} == set()

    # an occupied voxel on the floor face moves the floor, so every stage runs
    M, N, _ = vmap.extent
    floor = int(state.height.floor_k[M // 2, N // 2])
    report = update(state, [(M // 2, N // 2, floor, VoxelState.OCCUPIED)])
    assert report.columns == 1
    assert {name for name in per_update if calls[name] == 0} == set()
    radius = ConversionParams().slope_radius_cells(vmap.resolution)
    assert calls["slope_at"] == 1
    assert report.slope_cells == (2 * radius + 1) ** 2


def test_update_that_keeps_every_floor_does_not_call_slope_at(calls):
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=2.0, size_y=1.6))
    state = init(vmap)
    M, N, K = vmap.extent
    report = update(state, [(M // 2, N // 2, K - 5, VoxelState.OCCUPIED)])
    assert (report.columns, report.slope_cells) == (1, 0)
    assert calls["slope_at"] == 0
    assert calls["convert_column"] == calls["uav_cell_value"] == 1


def test_wrapped_calls_stay_on_the_main_thread_while_bands_use_the_pool(calls, monkeypatch):
    # The tracer's span stack is not thread-safe: every wrapped call must run
    # on the caller's thread, while the bands inside them may not.
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(column_extraction, "_pool", pool)
    monkeypatch.setattr(column_extraction, "_BAND_VOXELS", 1)
    monkeypatch.setattr(slope_map, "_BAND_ROWS", 2)
    monkeypatch.setattr(occupancy_maps, "_BAND_CELLS", 1)
    band_threads = set()
    kernel = column_extraction.convert_column

    def recording(*args):
        band_threads.add(threading.current_thread())
        return kernel(*args)

    monkeypatch.setattr(column_extraction, "convert_column", recording)
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=2.0, size_y=1.6))
    try:
        state = init(vmap)
        M, N, _ = vmap.extent
        floor = int(state.height.floor_k[M // 2, N // 2])
        update(state, [(m, N // 2, floor, VoxelState.OCCUPIED) for m in range(2, M - 2)])
    finally:
        pool.shutdown()
    assert {name for name in calls if calls[name] == 0} == set()
    assert calls.threads == {threading.main_thread()}
    assert band_threads - {threading.main_thread()}, "no band ran on the pool"
