"""Streaming conversion: full rebuild once, halo-local recompute per update.

The correctness contract is rebuild equivalence: after any sequence of
updates the state is bit-identical to a from-scratch conversion of the
current voxel map. `update()` reaches every stage through the code the full
build runs, over the dirty columns grown far enough to cover each stage's
data dependencies:

- heights: `convert_column` on each written column, as `build_height_map`
  does for every column;
- slopes: one `slope_at` call on the bounding box of the dirty columns grown
  by the fit radius. `build_slope_map` is the same kernel over the whole
  extent, and its exact integer sums make any window bit-identical to the
  full map;
- occupancy: `uav_cell_value` and `ugv_cell_value` on each cell within
  radius + 1 of a dirty column, the per-cell rules the full builds apply.
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
    the fit radius, so `slope_at` recomputes the bounding box of the dirty
    set dilated by that radius; occupancy looks one further cell out (the
    8-neighborhood), so it is recomputed on the dirty set dilated by
    radius + 1. The state is mutated in place; the report carries the
    per-stage recompute counts.
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
    slope_cells = 0
    occupancy_cells: list[Cell] = []
    if dirty:
        # One kernel call over the bounding box of the slope halo; every cell
        # of the box is rewritten, values and flags alike.
        rows, cols = _halo_box(dirty, radius, M, N)
        values, degenerate = slope_at(state.height, rows, cols, radius)
        state.slope.values[rows, cols] = values
        state.slope.degenerate[rows, cols] = degenerate
        slope_cells = values.size

        occupancy_cells = _dilate(dirty, radius + 1, M, N)
        # uav_cell_value reads free_mask at most one cell beyond the
        # occupancy halo, so the mask is filled there and nowhere else.
        rows, cols = _halo_box(dirty, radius + 2, M, N)
        free_mask = np.zeros((M, N), dtype=bool)
        free_mask[rows, cols] = ~np.isnan(floor[rows, cols])
        slope_values = state.slope.values
        uav_values = state.uav.values
        ugv_values = state.ugv.values
        for m, n in occupancy_cells:
            v = uav_cell_value(m, n, state.ranges, state.height, free_mask,
                               state.params.min_occupancy)
            uav_values[m, n] = v
            ugv_values[m, n] = ugv_cell_value(v, slope_values[m, n],
                                              state.params.max_slope)

    elapsed_us = (time.perf_counter_ns() - t0) // 1000
    return DirtyReport(len(dirty), slope_cells, len(occupancy_cells),
                       int(elapsed_us))


def _halo_box(cells: set[Cell], radius: int, M: int,
              N: int) -> tuple[slice, slice]:
    """Bounding box of the cells grown by radius, clipped to the extent."""
    ms = [m for m, _ in cells]
    ns = [n for _, n in cells]
    return (slice(max(0, min(ms) - radius), min(M, max(ms) + radius + 1)),
            slice(max(0, min(ns) - radius), min(N, max(ns) + radius + 1)))


def _dilate(cells: set[Cell], radius: int, M: int, N: int) -> list[Cell]:
    """Cells within Chebyshev distance radius of any given cell, in the map."""
    rows, cols = _halo_box(cells, radius, M, N)
    mask = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype=bool)
    for m, n in cells:
        mask[max(0, m - radius - rows.start):m + radius + 1 - rows.start,
             max(0, n - radius - cols.start):n + radius + 1 - cols.start] = True
    hit_m, hit_n = np.nonzero(mask)
    return list(zip((hit_m + rows.start).tolist(), (hit_n + cols.start).tolist()))
