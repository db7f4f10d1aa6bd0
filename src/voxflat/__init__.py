"""voxflat: 3D tri-state voxel maps to 2D occupancy/height/slope maps.

Pipeline: a dense voxel map (one byte per voxel, M*N*K bytes) becomes four
2D grids, each stage one array kernel. Integer run detection along each
column keeps the free runs tall enough for the robot and gives floor and
ceiling voxel-face indices (the height map); exact integer plane-fit moments
over each cell's window give the slope map; boundary cells of the aerial
(UAV) grid take the share of their occupied voxels inside a free neighbour's
span; and the ground (UGV) grid marks too-steep free cells occupied. 2D paths
planned on those grids lift back into 3D using the height data.

`init()` runs each kernel over the whole extent; `update()` runs the same
kernels over the boxes of dirty columns grown by each stage's halo, so the
streamed state stays bit-identical to a fresh conversion. The per-column
range functions (`extract_ranges`, `filter_free_ranges`,
`height_from_ranges`, `occupancy_value`) and `fit_plane` state the same
rules one column or window at a time, as references for the kernels.
"""
from .column_extraction import (ColumnRanges, HeightCell, HeightMap,
                                HeightRange, build_height_map, convert_column,
                                extract_ranges, filter_free_ranges,
                                height_from_ranges)
from .incremental import ConversionState, DirtyReport, init, update
from .io_formats import (GridFileHeader, GridFormatError, SizeReport,
                         read_grid, read_height, read_occupancy, read_slope,
                         size_report, write_height, write_occupancy,
                         write_occupancy_pgm, write_slope)
from .occupancy_maps import (OccupancyGrid, build_ugv_map, build_uav_map,
                             occupancy_value, overlap_length, uav_cell_value,
                             ugv_values)
from .params import ConversionParams
from .path_lift import (LiftParams, enforce_clearance, lift_path, plan_2d,
                        read_path_2d, read_path_3d, write_path_2d,
                        write_path_3d)
from .scenes import SceneSpec, SceneTruth, generate, verify_against_truth
from .slope_map import PlaneFit, SlopeMap, build_slope_map, fit_plane, slope_at
from .voxel_store import (ColumnView, VoxelMap, VoxelState, VxgError,
                          VxgHeaderError, VxgRecordError, VxgTruncatedError,
                          VxgVersionError, load_voxel_map, save_voxel_map)

__version__ = "0.1.0"
