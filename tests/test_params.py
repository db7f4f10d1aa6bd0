import dataclasses
import math

import numpy as np
import pytest

from voxflat import ConversionParams, LiftParams
from voxflat.scenes import SceneSpec

# the required fields of each parameter class
REQUIRED = {ConversionParams: {}, SceneSpec: {"kind": "flat-room"},
            LiftParams: {"lookahead": 2, "height_offset": 0.5}}


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


@pytest.mark.parametrize("cls", REQUIRED, ids=lambda cls: cls.__name__)
def test_number_fields_refuse_bools_and_store_numpy_scalars_as_python_numbers(cls):
    # ConversionParams(max_slope=True) and LiftParams(5, True) were accepted,
    # SceneSpec(clutter=True) built one pillar, LiftParams kept np.float32
    # and refused np.int64 with a ValueError.
    numbers = [f for f in dataclasses.fields(cls) if f.type in ("float", "float | None", "int")]
    assert numbers
    for f in numbers:
        kind = "an integer" if f.type == "int" else "a real number"
        for flag in (True, False):
            with pytest.raises(TypeError, match=f"^{f.name} must be {kind}, got {flag}"):
                cls(**{**REQUIRED[cls], f.name: flag})
        given, stored = (np.int64(3), 3) if f.type == "int" else (np.float32(0.75), 0.75)
        got = getattr(cls(**{**REQUIRED[cls], f.name: given}), f.name)
        assert type(got) is type(stored) and got == stored
