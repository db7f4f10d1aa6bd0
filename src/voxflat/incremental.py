"""Streaming conversion: one array kernel per stage, over the whole map or a box.

The correctness contract is rebuild equivalence: after any sequence of
updates the state is bit-identical to a from-scratch conversion of the
current voxel map. Each stage is one kernel that `init()` runs over the box
of the extent that can hold output, and `update()` over the dirty columns
grown by the stage's halo, the reach of its data dependencies. `init()`'s
boxes come from `voxel_store.nonzero_box`, two reductions along
contiguous memory: the observed columns for heights, the present cells for
slopes, and the present cells grown by one for UAV; every cell outside a box
keeps its absent, NaN or -1 value. `slope_at` trims any window to its
present cells' box the same way, so `update()` shares that rule. Per stage:

- voxels: `VoxelMap.apply_cells` writes the batch by one validated scatter
  and returns the written columns as sorted (rows, cols) index arrays;
- heights: `convert_column` on the written columns (halo 0);
- slopes: `slope_at` on the dirty columns grown by the fit radius r, only
  when a dirty column's floor face changed: the fit reads nothing else, so
  otherwise the stored slopes are current (early cutoff). Its integer sums
  are exact, so a window gives the same bits as the full map;
- UAV: `uav_cell_value` on the dirty columns grown by 1, since a cell reads
  its own voxels and its 8-neighbours' spans;
- UGV: `ugv_values` on the slope box when slopes ran, else on the UAV box,
  since it reads UAV and slope.

A stage's box is the bounding box of the dirty columns, computed once, grown
by its halo. Every cell of a box is rewritten, so no stale value survives.

Both entry points call each stage from the caller's thread. Inside `init()`
the height, slope and UAV builds run their row bands concurrently on
`column_extraction.run_bands`'s thread pool; `update()`'s windows are one
band for a few voxels or a scan batch, so its stages run inline.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .column_extraction import HeightMap, build_height_map, convert_column, grow
from .occupancy_maps import (OccupancyGrid, build_ugv_map, build_uav_map,
                             ugv_values, uav_cell_value)
from .params import ConversionParams
from .slope_map import SlopeMap, build_slope_map, slope_at
from .voxel_store import Cell, CellUpdate, VoxelMap, VoxelState

CSV_HEADER = "update_index,columns_dirty,slope_cells,occupancy_cells,wall_time_us"


@dataclass(frozen=True)
class DirtyReport:
    """Recomputation counts of one update, plus its wall time.

    `slope_cells` is the slope box the fit reran on, 0 when no dirty column's
    floor face moved and the fit was skipped. `occupancy_cells` is the UGV
    box actually rewritten: the slope box, or the UAV box (the dirty columns
    grown by 1) on a skip.
    """

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
    def ranges(self) -> dict[Cell, tuple[tuple[int, int, VoxelState], ...]]:
        """Kept runs (k0, length, state) of every column that has any, keyed by cell.

        A run is kept when it is occupied, or free and at least
        `params.min_run(res)` voxels long; each column's runs are in k order.
        Built from the voxels on first read and cached until the next
        update(); no conversion stage reads it.
        """
        vmap = self.voxels
        min_run = self.params.min_run(vmap.resolution)
        out = {}
        for cell in vmap.nonempty_columns():
            kept = tuple(run for run in vmap.column(*cell).runs
                         if run[2] == VoxelState.OCCUPIED
                         or (run[2] == VoxelState.FREE and run[1] >= min_run))
            if kept:
                out[cell] = kept
        return out


def init(vmap: VoxelMap, params: ConversionParams | None = None) -> ConversionState:
    """Full conversion of a voxel map into height, slope, and occupancy grids."""
    params = params or ConversionParams()
    height = build_height_map(vmap, params.min_run(vmap.resolution))
    slope = build_slope_map(height, params.slope_radius_cells(vmap.resolution))
    uav = build_uav_map(vmap, height, params.min_occupancy)
    ugv = build_ugv_map(uav, slope, params.max_slope)
    return ConversionState(vmap, params, height, slope, uav, ugv)


def update(state: ConversionState,
           updates: Sequence[CellUpdate] | np.ndarray) -> DirtyReport:
    """Apply voxel writes and rerun each stage's kernel on its halo box.

    The writes are (i, j, k, state) tuples or an integer (n, 4) array, as
    `VoxelMap.apply_cells` takes them.

    The state is mutated in place. The report counts the dirty columns, the
    slope cells recomputed (0 when no dirty column's floor face moved, so the
    slope fit was skipped), and the UGV cells rewritten: the slope box when
    the fit ran, else the UAV box. Either box holds the UAV one.
    """
    t0 = time.perf_counter_ns()
    vmap = state.voxels
    dirty = vmap.apply_cells(updates)
    state.__dict__.pop("ranges", None)  # the cached view is stale now
    m, n = dirty
    slope_cells = occupancy_cells = 0
    if m.size:
        params = state.params
        res = vmap.resolution
        M, N, _ = vmap.extent
        floor_k, ceil_k = convert_column(vmap.states[dirty], params.min_run(res))
        # Early cutoff: the slope fit reads only floor faces, so when none of
        # them moved the stored slopes are current and UGV changes only where
        # UAV did.
        floor_moved = not np.array_equal(state.height.floor_k[dirty], floor_k)
        state.height.set_faces(dirty, floor_k, ceil_k)
        # m comes back sorted; for the few dirty columns of an update, Python
        # min and max of n are cheaper than two numpy reductions.
        ns = n.tolist()
        box = (int(m[0]), int(m[-1]) + 1, min(ns), max(ns) + 1)
        uav_rows, uav_cols = rows, cols = grow(box, 1, M, N)
        if floor_moved:
            radius = params.slope_radius_cells(res)
            rows, cols = grow(box, radius, M, N)
            values, degenerate = slope_at(state.height, rows, cols, radius)
            state.slope.values[rows, cols] = values
            state.slope.degenerate[rows, cols] = degenerate
            slope_cells = values.size
        state.uav.values[uav_rows, uav_cols] = uav_cell_value(
            vmap, state.height, uav_rows, uav_cols, params.min_occupancy)
        ugv = ugv_values(state.uav.values[rows, cols],
                         state.slope.values[rows, cols], params.max_slope)
        state.ugv.values[rows, cols] = ugv
        occupancy_cells = ugv.size

    elapsed_us = (time.perf_counter_ns() - t0) // 1000
    return DirtyReport(m.size, slope_cells, occupancy_cells, int(elapsed_us))

