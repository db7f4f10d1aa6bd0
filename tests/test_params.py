import math

import pytest

from voxflat import ConversionParams


@pytest.mark.parametrize("name", ["min_clearance", "min_occupancy",
                                  "slope_window_m", "max_slope"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_conversion_params_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        ConversionParams(**{name: value})
