import dataclasses
import math

import numpy as np
import pytest

from voxflat import ConversionParams, LiftParams, VoxelMap
from voxflat.column_extraction import check_positive_int
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


@pytest.mark.parametrize("name, cells", [("min_clearance", "min_run"),
                                         ("slope_window_m", "slope_radius_cells")])
def test_a_length_of_more_cells_than_a_float_holds_names_its_field(name, cells):
    # a finite 1e308 m at 0.1 m is an infinite quotient: math.ceil and round
    # raised OverflowError from init()
    params = ConversionParams(**{name: 1e308})
    with pytest.raises(ValueError, match=rf"^{name}: 1e\+308 m is more cells than a "
                                         r"float holds at resolution 0\.1$"):
        getattr(params, cells)(0.1)
    assert getattr(ConversionParams(**{name: 1e300}), cells)(0.1) > 10**300


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


def verdicts(value, *checks):
    """Whether each check accepts value (returns) or refuses it (raises
    TypeError or ValueError)."""
    out = []
    for check in checks:
        try:
            check(value)
        except (TypeError, ValueError):
            out.append(False)
        else:
            out.append(True)
    return out


@pytest.mark.parametrize("value, accepted", [
    (True, False), (np.True_, False), (2.0, False), ("2", False),
    (np.int64(2), True), (np.array(2), True)], ids=repr)
def test_every_count_boundary_shares_one_count_rule(value, accepted):
    # check_positive_int refused np.array(2), which the other two accepted
    assert verdicts(value,
                    lambda v: check_positive_int(v, "min_run"),
                    lambda v: VoxelMap(0.1, (0.0, 0.0, 0.0), (v, 2, 2)),
                    lambda v: LiftParams(v, 0.5)) == [accepted] * 3


@pytest.mark.parametrize("value, accepted", [
    (True, False), ("0.1", False), (np.float32(0.1), True), (0.1, True)], ids=repr)
def test_every_number_boundary_shares_one_number_rule(value, accepted):
    assert verdicts(value,
                    lambda v: ConversionParams(max_slope=v),
                    lambda v: VoxelMap(v, (0.0, 0.0, 0.0), (2, 2, 2))) == [accepted] * 2
