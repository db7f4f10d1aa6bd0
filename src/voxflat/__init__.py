"""voxflat: 3D tri-state voxel maps to 2D occupancy/height/slope maps.

Pipeline: a dense voxel map (one byte per voxel, M*N*K bytes) is reduced
per column to free/occupied vertical ranges, unsafe free space is filtered
out, floors and ceilings become a height map, local plane fits give a slope
map, and two occupancy grids are derived (aerial and ground). 2D paths
planned on those grids lift back into 3D using the height data. An
incremental mode recomputes only the columns an update touched plus their
dependency halo.
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
                             occupancy_value, overlap_length)
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
