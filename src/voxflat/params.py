"""Conversion parameters and their validated defaults."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

# A free range's height is a difference of origin_z + k*res terms, so an
# exactly threshold-tall range can land a few ulps below the threshold; this
# tolerance (meters) keeps it, in the voxel count and the range rule alike.
CLEARANCE_EPS = 1e-9


@dataclass(frozen=True)
class ConversionParams:
    """Knobs of the 3D-to-2D conversion.

    min_clearance: smallest free-range height (m) kept as navigable.
    min_occupancy: boundary-cell ratio below which a cell stays unknown.
    slope_window_m: slope-fit neighborhood radius in meters; converted to a
        whole number of cells per map resolution (at least 1).
    max_slope: steepest floor (rise/run) a ground robot traverses.
    """

    min_clearance: float = 1.0
    min_occupancy: float = 0.5
    slope_window_m: float = 0.2
    max_slope: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.min_clearance <= 0:
            raise ValueError(f"min_clearance must be positive, got {self.min_clearance}")
        if not (0.0 < self.min_occupancy <= 1.0):
            raise ValueError(f"min_occupancy must be in (0, 1], got {self.min_occupancy}")
        if self.slope_window_m <= 0:
            raise ValueError(f"slope_window_m must be positive, got {self.slope_window_m}")
        if self.max_slope <= 0:
            raise ValueError(f"max_slope must be positive, got {self.max_slope}")

    def slope_radius_cells(self, resolution: float) -> int:
        return max(1, round(self.slope_window_m / resolution))

    def min_run(self, resolution: float) -> int:
        """Fewest free voxels a run needs to be navigable: L*res reaches
        min_clearance, within CLEARANCE_EPS."""
        return max(1, math.ceil((self.min_clearance - CLEARANCE_EPS) / resolution))
