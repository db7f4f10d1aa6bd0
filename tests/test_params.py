import math

import pytest

from voxflat import ConversionParams


@pytest.mark.parametrize("name", ["min_clearance", "min_occupancy",
                                  "slope_window_m", "max_slope"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_conversion_params_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        ConversionParams(**{name: value})


@pytest.mark.parametrize("name, value, message", [
    ("min_clearance", 0.0, "min_clearance must be positive"),
    ("min_clearance", -0.5, "min_clearance must be positive"),
    ("min_occupancy", 0.0, r"min_occupancy must be in \(0, 1\]"),
    ("min_occupancy", 1.5, r"min_occupancy must be in \(0, 1\]"),
    ("slope_window_m", 0.0, "slope_window_m must be positive"),
    ("max_slope", -1.0, "max_slope must be positive"),
])
def test_conversion_params_reject_values_out_of_range(name, value, message):
    with pytest.raises(ValueError, match=message):
        ConversionParams(**{name: value})
