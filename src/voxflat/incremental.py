"""Streaming conversion: full rebuild once, halo-local recompute per update.

The correctness contract is rebuild equivalence: after any sequence of
updates the state is bit-identical to a from-scratch conversion of the
current voxel map. That holds because every stage is recomputed through the
same per-column/per-cell functions the full build uses, over a dirty set
dilated far enough to cover each stage's data dependencies.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .column_extraction import ColumnRanges, HeightMap, build_height_map, convert_column
from .occupancy_maps import (OccupancyGrid, build_ugv_map, build_uav_map,
                             ugv_cell_value, uav_cell_value)
from .params import ConversionParams
from .slope_map import SlopeMap, build_slope_map, slope_at
from .voxel_store import Cell, CellUpdate, VoxelMap

CSV_HEADER = "update_index,columns_dirty,slope_cells,occupancy_cells,wall_time_us"


@dataclass(frozen=True)
class DirtyReport:
    """Recomputation counts of one update, plus its wall time."""

    columns: int
    slope_cells: int
    occupancy_cells: int
    wall_time_us: int

    def csv_row(self, index: int) -> str:
        return (f"{index},{self.columns},{self.slope_cells},"
                f"{self.occupancy_cells},{self.wall_time_us}")


@dataclass
class ConversionState:
    """A voxel map with all four derived 2D grids, kept consistent by update().

    Single-writer: apply updates between reads. The derived grids always
    equal what init() would produce on the current voxel map.
    """

    voxels: VoxelMap
    params: ConversionParams
    ranges: dict[Cell, ColumnRanges]
    height: HeightMap
    slope: SlopeMap
    uav: OccupancyGrid
    ugv: OccupancyGrid


def init(vmap: VoxelMap, params: ConversionParams | None = None) -> ConversionState:
    """Full conversion of a voxel map into height, slope, and occupancy grids."""
    params = params or ConversionParams()
    height, ranges = build_height_map(vmap, params.min_clearance)
    slope = build_slope_map(height, params.slope_radius_cells(vmap.resolution))
    uav = build_uav_map(ranges, height, params.min_occupancy)
    ugv = build_ugv_map(uav, slope, params.max_slope)
    return ConversionState(vmap, params, ranges, height, slope, uav, ugv)


def update(state: ConversionState, updates: Sequence[CellUpdate]) -> DirtyReport:
    """Apply voxel writes and recompute only the affected columns and halos.

    Heights change only on written columns. Slopes depend on floors within
    the fit radius, so they are recomputed on the dirty set dilated by that
    radius; occupancy looks one further cell out (the 8-neighborhood), so it
    is recomputed on the dirty set dilated by radius + 1. The state is
    mutated in place; the report carries the per-stage recompute counts.
    """
    t0 = time.perf_counter_ns()
    vmap = state.voxels
    dirty = vmap.apply_cells(updates)

    res = vmap.resolution
    origin_z = vmap.origin[2]
    floor = state.height.floor
    ceiling = state.height.ceiling
    for cell in dirty:
        cr, hc = convert_column(vmap.column(*cell), res, origin_z,
                                state.params.min_clearance)
        if cr.is_empty():
            state.ranges.pop(cell, None)
        else:
            state.ranges[cell] = cr
        if hc is None:
            floor[cell] = np.nan
            ceiling[cell] = np.nan
        else:
            floor[cell] = hc.floor
            ceiling[cell] = hc.ceiling

    M, N, _ = vmap.extent
    radius = state.params.slope_radius_cells(res)
    slope_dirty = _dilate(dirty, radius, M, N)
    slope_values = state.slope.values
    slope_degenerate = state.slope.degenerate
    for m, n in slope_dirty:
        if np.isnan(floor[m, n]):
            slope_values[m, n] = np.nan
            slope_degenerate[m, n] = False
        else:
            s = slope_at(state.height, m, n, radius)
            if s is None:
                slope_values[m, n] = 0.0
                slope_degenerate[m, n] = True
            else:
                slope_values[m, n] = s
                slope_degenerate[m, n] = False

    occupancy_dirty = _dilate(dirty, radius + 1, M, N)
    free_mask = state.height.present_mask
    uav_values = state.uav.values
    ugv_values = state.ugv.values
    for m, n in occupancy_dirty:
        v = uav_cell_value(m, n, state.ranges, state.height, free_mask,
                           state.params.min_occupancy)
        uav_values[m, n] = v
        ugv_values[m, n] = ugv_cell_value(v, slope_values[m, n],
                                          state.params.max_slope)

    elapsed_us = (time.perf_counter_ns() - t0) // 1000
    return DirtyReport(len(dirty), len(slope_dirty), len(occupancy_dirty),
                       int(elapsed_us))


def _dilate(cells: set[Cell], radius: int, M: int, N: int) -> set[Cell]:
    out: set[Cell] = set()
    for m, n in cells:
        for mm in range(max(0, m - radius), min(M, m + radius + 1)):
            for nn in range(max(0, n - radius), min(N, n + radius + 1)):
                out.add((mm, nn))
    return out
