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
streamed state stays bit-identical to a fresh conversion. Heights are
stored as integer voxel-face indices, which the kernels and path lifting
read as they are; meters (`origin_z + k*res`) appear only at the edges: the
height map's output views, the G2D files, and `HeightMap.from_meters`.
"""
from .column_extraction import HeightMap, build_height_map, convert_column
from .incremental import ConversionState, DirtyReport, init, update
from .io_formats import (GridFileHeader, GridFormatError, read_grid,
                         read_height, read_occupancy, read_slope, write_height,
                         write_occupancy, write_occupancy_pgm, write_slope)
from .occupancy_maps import (OccupancyGrid, build_ugv_map, build_uav_map,
                             uav_cell_value, ugv_values)
from .params import ConversionParams
from .path_lift import (LiftParams, enforce_clearance, lift_path, plan_2d,
                        read_path_2d, read_path_3d, write_path_2d,
                        write_path_3d)
from .scenes import SceneSpec, SceneTruth, generate, verify_against_truth
from .slope_map import SlopeMap, build_slope_map, slope_at
from .voxel_store import (ColumnView, VoxelMap, VoxelState, VxgError,
                          VxgHeaderError, VxgRecordError, VxgTruncatedError,
                          VxgVersionError, load_voxel_map, save_voxel_map)

__version__ = "0.1.0"
