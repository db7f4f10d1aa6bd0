"""Conversion parameters, their validated defaults, the one field rule of every
parameter dataclass, and the number and count tests every input shares."""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

# min_clearance / res can land a few ulps above a whole voxel count when res
# is not a binary fraction (2.1 / 0.3 is 7.000000000000001); this tolerance
# (meters) keeps a clearance of exactly L voxels from asking for L + 1.
_CLEARANCE_EPS = 1e-9


def is_real(value) -> bool:
    """A real number that is not a bool: an int, a float, a numpy integer or float."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_count(value) -> bool:
    """An `operator.index` integer that is not a bool, Python's or numpy's."""
    if type(value) is int:  # the common case, as cheap as an isinstance test
        return True
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def check_fields(params) -> None:
    """Check and normalize every field of a frozen dataclass by its annotation.

    The annotations are strings (postponed evaluation). A "float" field, or a
    "float | None" field that is not None, takes what `is_real` accepts and
    stores it as a finite float. An "int" field takes what `is_count` accepts
    and stores it as an int >= 0. A "bool" field takes only a bool. A wrong
    type raises TypeError and a non-finite or negative value ValueError, both
    naming the field. Fields of any other annotation, and range rules, are the class's.
    """
    for f in fields(params):
        name, value = f.name, getattr(params, f.name)
        if f.type == "bool":
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, got {value!r}")
        elif f.type == "float" or (f.type == "float | None" and value is not None):
            if not is_real(value):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(params, name, value)
        elif f.type == "int":
            if not is_count(value):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            value = operator.index(value)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(params, name, value)


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
        check_fields(self)
        if self.min_clearance <= 0:
            raise ValueError(f"min_clearance must be positive, got {self.min_clearance}")
        if not (0.0 < self.min_occupancy <= 1.0):
            raise ValueError(f"min_occupancy must be in (0, 1], got {self.min_occupancy}")
        if self.slope_window_m <= 0:
            raise ValueError(f"slope_window_m must be positive, got {self.slope_window_m}")
        if self.max_slope <= 0:
            raise ValueError(f"max_slope must be positive, got {self.max_slope}")

    def slope_radius_cells(self, resolution: float) -> int:
        try:
            return max(1, round(self.slope_window_m / resolution))
        except OverflowError:
            raise self._too_many_cells("slope_window_m", resolution) from None

    def min_run(self, resolution: float) -> int:
        """Fewest free voxels a run needs to be navigable: L*res reaches
        min_clearance, within _CLEARANCE_EPS."""
        try:
            return max(1, math.ceil((self.min_clearance - _CLEARANCE_EPS) / resolution))
        except OverflowError:
            raise self._too_many_cells("min_clearance", resolution) from None

    def _too_many_cells(self, name: str, resolution: float) -> ValueError:
        """The error for a length whose cell count at this resolution is beyond
        float range, where rounding it to an int raised OverflowError."""
        return ValueError(f"{name}: {getattr(self, name)} m is more cells than a "
                          f"float holds at resolution {resolution}")
