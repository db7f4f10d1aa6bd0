"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): the parent is the span that was open
when it started, so self time is a span's duration minus its direct
children. Spans are appended to flat arrays while the run goes and turned
into numpy arrays once, at the end.

Program stages are traced by wrapping public functions at the attribute the
program calls them through (for example `voxflat.incremental.slope_at`,
which is the name `update()` looks up), so no source file is edited and the
traced calls are the calls the untraced run makes.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span name). Package-level names are the calls the
# benchmark itself makes; the others are looked up by init() and update().
WRAPPED = (
    ("voxflat", "load_voxel_map", "voxel_store.load"),
    ("voxflat", "save_voxel_map", "voxel_store.save"),
    ("voxflat.voxel_store", "VoxelMap.apply_cells", "voxel_store.apply_cells"),
    ("voxflat", "init", "incremental.init"),
    ("voxflat", "update", "incremental.update"),
    ("voxflat.incremental", "build_height_map", "column_extraction.build_height_map"),
    ("voxflat.incremental", "convert_column", "column_extraction.convert_column"),
    ("voxflat.incremental", "build_slope_map", "slope_map.build_slope_map"),
    ("voxflat.incremental", "slope_at", "slope_map.slope_at"),
    ("voxflat.incremental", "build_uav_map", "occupancy_maps.build_uav_map"),
    ("voxflat.incremental", "build_ugv_map", "occupancy_maps.build_ugv_map"),
    ("voxflat.incremental", "uav_cell_value", "occupancy_maps.uav_cell_value"),
    ("voxflat", "write_occupancy", "io_formats.write"),
    ("voxflat", "write_height", "io_formats.write"),
    ("voxflat", "write_slope", "io_formats.write"),
    ("voxflat", "plan_2d", "path_lift.plan_2d"),
    ("voxflat", "lift_path", "path_lift.lift_path"),
    ("voxflat", "enforce_clearance", "path_lift.enforce_clearance"),
)


class Tracer:
    """Records spans; `enabled=False` makes `span()` a plain timer-free no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED that the program still has."""
        for module_name, path, span_name in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                print(f"trace: {module_name}.{path} not found; its metrics are "
                      f"reported missing", file=sys.stderr)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def spans(self, net_seconds) -> "Spans":
        """All spans; `net_seconds(start, end)` turns their bounds into
        durations (the clock removes the host-speed slices run inside)."""
        return Spans(self.names, np.array(self._name, dtype=np.int32),
                     np.array(self._start, dtype=np.int64),
                     np.array(self._end, dtype=np.int64),
                     np.array(self._parent, dtype=np.int32), net_seconds)


class Spans:
    """Column arrays of all recorded spans, with the queries the metrics need."""

    def __init__(self, names, name, start, end, parent, net_seconds):
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.duration = net_seconds(start, end)

    def __len__(self) -> int:
        return len(self.name)

    def ids(self, name: str) -> np.ndarray:
        """Indices of the spans called `name`."""
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def has(self, name: str) -> bool:
        return len(self.ids(name)) > 0

    def child_sum(self, parents: np.ndarray, name: str | None = None) -> np.ndarray:
        """Per parent span, summed duration (s) of its direct children."""
        sel = self.parent >= 0
        if name is not None:
            sel &= self.name == self.names.index(name) if name in self.names else False
        lookup = np.full(len(self), -1, dtype=np.int64)
        lookup[parents] = np.arange(len(parents))
        slot = lookup[self.parent[sel]]
        hit = slot >= 0
        return np.bincount(slot[hit], weights=self.duration[sel][hit],
                           minlength=len(parents))
