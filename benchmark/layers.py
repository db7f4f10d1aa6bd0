"""Per-layer metrics of a traced run, computed from its spans and counts.

A metric whose spans are missing (the wrapped name is gone from the program,
or was never called) is left out rather than reported as zero.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import Tracer

# name -> unit, better; the order is the order of the printed report.
PER_LAYER = {
    "voxel_store.save_s": ("s", "lower"),
    "voxel_store.load_s": ("s", "lower"),
    "voxel_store.resident_mb": ("MB", "lower"),
    "voxel_store.apply_cells_ms": ("ms", "lower"),
    "voxel_store.voxels_written": ("count", "lower"),
    "column_extraction.build_height_map_s": ("s", "lower"),
    "column_extraction.convert_column_ms": ("ms/update", "lower"),
    "slope_map.build_slope_map_s": ("s", "lower"),
    "slope_map.slope_at_ms": ("ms/update", "lower"),
    "occupancy_maps.build_uav_map_s": ("s", "lower"),
    "occupancy_maps.build_ugv_map_s": ("s", "lower"),
    "occupancy_maps.uav_cell_value_ms": ("ms/update", "lower"),
    "occupancy_maps.changed_ratio": ("ratio", "higher"),
    "incremental.init_s": ("s", "lower"),
    "incremental.update_self_ms": ("ms", "lower"),
    "incremental.columns_dirty": ("count", "lower"),
    "incremental.slope_cells": ("count", "lower"),
    "incremental.occupancy_cells": ("count", "lower"),
    "io_formats.write_s": ("s", "lower"),
    "path_lift.plan_2d_ms": ("ms", "lower"),
    "path_lift.lift_path_ms": ("ms", "lower"),
    "path_lift.enforce_clearance_ms": ("ms", "lower"),
    "path_lift.waypoints": ("count", "lower"),
    "path_lift.clearance_moved": ("count", "lower"),
    "trace.update_ms": ("ms", "lower"),
    "trace.convert_s": ("s", "lower"),
    "trace.convert_unaccounted_pct": ("%", "lower"),
    "trace.update_overhead_pct": ("%", "lower"),
}


def span_cost_s(calls: int = 200_000) -> float:
    """Wall time one traced call adds, from wrapped vs plain no-op calls."""
    def noop():
        return None

    wrapped = Tracer(True).wrap(noop, "calibration")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def per_layer(run, spans, cost_s: float) -> dict[str, tuple[float, str]]:
    """(value, unit) of the PER_LAYER metrics this run could measure.

    Times are scaled to the reference host like the end-to-end ones: each
    per-span time by the host speed around the span it belongs to.
    """
    out: dict[str, float] = {}

    def put(name, value):
        if value is not None and np.isfinite(value):
            out[name] = float(value)

    def median(values):
        return float(np.median(values)) if len(values) else None

    def under(parents, name):
        """Spans called `name` whose parent is one of `parents`."""
        ids = spans.ids(name)
        return ids[np.isin(spans.parent[ids], parents)]

    def scaled(ids, seconds, unit_scale=1.0):
        """Median of per-span times (one per span in `ids`), each scaled by
        the host speed around its span."""
        if not len(ids):
            return None
        return median(seconds * run.clock.local_scale(spans.start[ids], spans.end[ids])
                      ) * unit_scale

    def per_parent(parents, name, unit_scale=1.0):
        """Median over parents of their `name` children's summed time."""
        if not len(parents) or not spans.has(name):
            return None
        return scaled(parents, spans.child_sum(parents, name), unit_scale)

    convert = spans.ids("phase.convert")
    updates = spans.ids("incremental.update")
    replans = spans.ids("phase.replan")
    init = under(convert, "incremental.init")
    saves = np.concatenate([under(spans.ids(p), "voxel_store.save")
                            for p in ("phase.setup", "phase.share")])
    put("voxel_store.save_s", scaled(saves, spans.duration[saves]))
    put("voxel_store.load_s", per_parent(convert, "voxel_store.load"))
    put("voxel_store.resident_mb", median(run.rss_growth_mb))
    put("voxel_store.apply_cells_ms", per_parent(updates, "voxel_store.apply_cells", 1e3))
    put("voxel_store.voxels_written", _mean(run.voxels_written))
    put("column_extraction.build_height_map_s",
        per_parent(init, "column_extraction.build_height_map"))
    put("column_extraction.convert_column_ms",
        per_parent(updates, "column_extraction.convert_column", 1e3))
    put("slope_map.build_slope_map_s", per_parent(init, "slope_map.build_slope_map"))
    put("slope_map.slope_at_ms", per_parent(updates, "slope_map.slope_at", 1e3))
    put("occupancy_maps.build_uav_map_s", per_parent(init, "occupancy_maps.build_uav_map"))
    put("occupancy_maps.build_ugv_map_s", per_parent(init, "occupancy_maps.build_ugv_map"))
    put("occupancy_maps.uav_cell_value_ms",
        per_parent(updates, "occupancy_maps.uav_cell_value", 1e3))
    occupancy_cells = sum(r.occupancy_cells for r in run.reports)
    if occupancy_cells:
        put("occupancy_maps.changed_ratio", run.changed_cells / occupancy_cells)
    put("incremental.init_s", scaled(init, spans.duration[init]))
    if len(updates):
        put("incremental.update_self_ms", scaled(
            updates, spans.duration[updates] - spans.child_sum(updates), 1e3))
        put("trace.update_ms", scaled(updates, spans.duration[updates], 1e3))
        children = np.bincount(np.searchsorted(updates, spans.parent[
            np.isin(spans.parent, updates)]), minlength=len(updates))
        put("trace.update_overhead_pct", 100.0 * cost_s * float(np.mean(children + 1))
            / median(spans.duration[updates]))
    put("incremental.columns_dirty", _mean([r.columns for r in run.reports]))
    put("incremental.slope_cells", _mean([r.slope_cells for r in run.reports]))
    put("incremental.occupancy_cells", _mean([r.occupancy_cells for r in run.reports]))
    put("io_formats.write_s", per_parent(convert, "io_formats.write"))
    put("path_lift.plan_2d_ms", per_parent(replans, "path_lift.plan_2d", 1e3))
    put("path_lift.lift_path_ms", per_parent(replans, "path_lift.lift_path", 1e3))
    put("path_lift.enforce_clearance_ms",
        per_parent(replans, "path_lift.enforce_clearance", 1e3))
    put("path_lift.waypoints", _mean(run.waypoints))
    put("path_lift.clearance_moved", _mean(run.clearance_moved))
    if len(convert):
        put("trace.convert_s", scaled(convert, spans.duration[convert]))
        covered = spans.child_sum(convert) / spans.duration[convert]
        put("trace.convert_unaccounted_pct", 100.0 * (1.0 - median(covered)))
    return {name: (value, PER_LAYER[name][0]) for name, value in out.items()}


def _mean(values):
    return statistics.fmean(values) if values else None
