"""Streaming conversion: one array kernel per stage, over the whole map or a box.

The correctness contract is rebuild equivalence: after any sequence of
updates the state is bit-identical to a from-scratch conversion of the
current voxel map. Each stage is one kernel that `init()` runs over the whole
extent and `update()` runs over the dirty columns grown by the stage's halo,
the reach of its data dependencies:

- heights: `convert_column` on the written columns (halo 0);
- slopes: `slope_at` on the dirty columns grown by the fit radius r. Its
  integer sums are exact, so a window gives the same bits as the full map;
- UAV: `uav_cell_value` on the dirty columns grown by 1, since a cell reads
  its own voxels and its 8-neighbours' spans;
- UGV: `ugv_values` on the slope box, since it reads UAV and slope.

A stage's box is the bounding box of the dirty columns grown by its halo.
Every cell of a box is rewritten, so no stale value survives.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .column_extraction import (ColumnRanges, HeightMap, build_height_map,
                                convert_column, extract_ranges, filter_free_ranges)
from .occupancy_maps import (OccupancyGrid, build_ugv_map, build_uav_map,
                             ugv_values, uav_cell_value)
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
    height: HeightMap
    slope: SlopeMap
    uav: OccupancyGrid
    ugv: OccupancyGrid

    @cached_property
    def ranges(self) -> dict[Cell, ColumnRanges]:
        """Post-filter ranges of every column that has any, keyed by cell.

        Built from the voxels by the per-column reference functions on first
        read and cached until the next update(); no conversion stage reads it.
        """
        vmap = self.voxels
        out = {}
        for cell in vmap.nonempty_columns():
            cr = filter_free_ranges(
                extract_ranges(vmap.column(*cell), vmap.resolution, vmap.origin[2]),
                self.params.min_clearance)
            if not cr.is_empty():
                out[cell] = cr
        return out


def init(vmap: VoxelMap, params: ConversionParams | None = None) -> ConversionState:
    """Full conversion of a voxel map into height, slope, and occupancy grids."""
    params = params or ConversionParams()
    height = build_height_map(vmap, params.min_run(vmap.resolution))
    slope = build_slope_map(height, params.slope_radius_cells(vmap.resolution))
    uav = build_uav_map(vmap, height, params.min_occupancy)
    ugv = build_ugv_map(uav, slope, params.max_slope)
    return ConversionState(vmap, params, height, slope, uav, ugv)


def update(state: ConversionState, updates: Sequence[CellUpdate]) -> DirtyReport:
    """Apply voxel writes and rerun each stage's kernel on its halo box.

    The state is mutated in place. The report counts the dirty columns, the
    slope cells recomputed, and the occupancy cells recomputed (the UGV box,
    which holds the UAV one).
    """
    t0 = time.perf_counter_ns()
    vmap = state.voxels
    dirty = vmap.apply_cells(updates)
    state.__dict__.pop("ranges", None)  # the cached view is stale now
    slope_cells = 0
    if dirty:
        params = state.params
        res = vmap.resolution
        radius = params.slope_radius_cells(res)
        M, N, _ = vmap.extent
        index = tuple(np.array(list(dirty)).T)
        state.height.set_faces(index, *convert_column(vmap.states[index],
                                                      params.min_run(res)))
        rows, cols = _halo_box(index, radius, M, N)
        values, degenerate = slope_at(state.height, rows, cols, radius)
        state.slope.values[rows, cols] = values
        state.slope.degenerate[rows, cols] = degenerate
        slope_cells = values.size
        uav_rows, uav_cols = _halo_box(index, 1, M, N)
        state.uav.values[uav_rows, uav_cols] = uav_cell_value(
            vmap, state.height, uav_rows, uav_cols, params.min_occupancy)
        state.ugv.values[rows, cols] = ugv_values(state.uav.values[rows, cols],
                                                  values, params.max_slope)

    elapsed_us = (time.perf_counter_ns() - t0) // 1000
    return DirtyReport(len(dirty), slope_cells, slope_cells, int(elapsed_us))


def _halo_box(index: tuple[np.ndarray, np.ndarray], halo: int, M: int,
              N: int) -> tuple[slice, slice]:
    """Bounding box of the cells (m, n) grown by halo, clipped to the extent."""
    m, n = index
    return (slice(max(0, int(m.min()) - halo), min(M, int(m.max()) + halo + 1)),
            slice(max(0, int(n.min()) - halo), min(N, int(n.max()) + halo + 1)))
