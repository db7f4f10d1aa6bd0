import dataclasses
import json
import math

import numpy as np
import pytest

from voxflat import ConversionParams, init, load_voxel_map, save_voxel_map
from voxflat.scenes import (SCENE_KINDS, SceneSpec, SceneTruth, generate,
                            verify_against_truth)


def convert_and_verify(spec):
    vmap, truth = generate(spec)
    state = init(vmap)
    problems = verify_against_truth(truth, state.height, state.slope,
                                    state.uav, state.ugv)
    assert problems == [], problems[:10]
    return vmap, truth, state


@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_every_scene_matches_its_truth(kind):
    vmap, truth, _ = convert_and_verify(SceneSpec(kind=kind))
    # each scene must actually claim something in every layer it fills
    assert (~np.isnan(truth.floor)).any()
    assert (truth.uav != -2).any()


SWEEP = [SceneSpec(kind=kind, resolution=res)
         for kind in SCENE_KINDS for res in (0.05, 0.2)] + [
    SceneSpec(kind="ramp", slope=1.5),
    SceneSpec(kind="ramp", slope=2.5),
    SceneSpec(kind="step", step_height=0.4),
    SceneSpec(kind="low-wall", observed_above=False),
    SceneSpec(kind="flat-room", clutter=6, seed=3),
    SceneSpec(kind="overhang", beam_low=1.5, beam_high=2.5),
    SceneSpec(kind="crawl-space", gap=0.3),
]


def spec_id(spec):
    changed = [f"{f.name}={getattr(spec, f.name)}" for f in dataclasses.fields(spec)
               if f.name != "kind" and getattr(spec, f.name) != f.default]
    return "-".join([spec.kind, *changed])


@pytest.mark.parametrize("spec", SWEEP, ids=spec_id)
def test_scene_variants_match_their_truth(spec):
    # resolutions move the slope fit radius (1 cell at 0.2 m, 4 at 0.05 m),
    # so windows reach further past strips and walls than at the defaults
    _, truth, _ = convert_and_verify(spec)
    assert (~np.isnan(truth.floor)).any()
    assert (~np.isnan(truth.slope)).any()


def test_generation_is_deterministic(tmp_path):
    a_map, a_truth = generate(SceneSpec(kind="composite", seed=3))
    b_map, b_truth = generate(SceneSpec(kind="composite", seed=3))
    pa, pb = tmp_path / "a.vxg", tmp_path / "b.vxg"
    save_voxel_map(a_map, pa)
    save_voxel_map(b_map, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert a_truth.to_json() == b_truth.to_json()


def test_truth_sidecar_round_trips(tmp_path):
    _, truth = generate(SceneSpec(kind="step"))
    path = tmp_path / "truth.json"
    truth.write(path)
    back = SceneTruth.read(path)
    assert np.array_equal(back.floor, truth.floor, equal_nan=True)
    assert np.array_equal(back.ceiling, truth.ceiling, equal_nan=True)
    assert np.array_equal(back.slope, truth.slope, equal_nan=True)
    assert np.array_equal(back.uav, truth.uav)
    assert np.array_equal(back.ugv, truth.ugv)
    assert back.kind == truth.kind


def truth_document(tmp_path, edit):
    _, truth = generate(SceneSpec(kind="step", size_x=1.0, size_y=0.5))
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(edit(json.loads(truth.to_json()))), encoding="ascii")
    return path


@pytest.mark.parametrize("edit", [
    lambda doc: {k: v for k, v in doc.items() if k != "kind"},
    lambda doc: [doc],
    lambda doc: {**doc, "floor": 3},
    lambda doc: {**doc, "slope": doc["slope"][:-1]},
    lambda doc: {**doc, "extent": [doc["extent"][0] + 1, *doc["extent"][1:]]},
    lambda doc: {**doc, "ugv": [[1] + row[1:] for row in doc["ugv"]]},
    lambda doc: {**doc, "extent": [1, 2]},
    lambda doc: {**doc, "kind": 3},
    lambda doc: {**doc, "spec": [doc["spec"]]},
    lambda doc: {**doc, "origin": [0.0, math.nan, 0.0]},
    lambda doc: {**doc, "origin": [0.0, 0.0, -math.inf]},
    lambda doc: {**doc, "resolution": 0},
    lambda doc: {**doc, "extent": [0, *doc["extent"][1:]]},
    lambda doc: {**doc, "floor": [[math.inf] + row[1:] for row in doc["floor"]]},
    lambda doc: {**doc, "floor": [[math.nan] + row[1:] for row in doc["floor"]]},
    lambda doc: {**doc, "slope": [[-math.inf] + row[1:] for row in doc["slope"]]},
    lambda doc: {**doc, "extent": [True, 2, 2]},
], ids=["no-kind", "list", "floor-number", "short-slope-grid", "extent-mismatch",
        "ugv-number-cell", "short-extent", "number-kind", "list-spec", "nan-origin",
        "infinite-origin", "zero-resolution", "zero-extent", "infinite-floor-claim",
        "nan-floor-claim", "infinite-slope-claim", "bool-extent"])
def test_truth_reader_rejects_malformed_documents(tmp_path, edit):
    path = truth_document(tmp_path, edit)
    with pytest.raises(ValueError, match="truth.json") as caught:
        SceneTruth.read(path)
    assert type(caught.value) is ValueError


def test_truth_reader_rejects_non_json(tmp_path):
    path = tmp_path / "truth.json"
    path.write_text("{not json", encoding="ascii")
    with pytest.raises(ValueError, match="truth.json"):
        SceneTruth.read(path)


def test_ramp_truth_slope_is_the_nominal_grade():
    _, truth = generate(SceneSpec(kind="ramp", slope=0.5))
    claimed = truth.slope[~np.isnan(truth.slope)]
    assert claimed.size > 0
    assert np.all(np.abs(claimed - 0.5) <= 1e-12)


def test_saved_scene_round_trips_through_vxg(tmp_path):
    vmap, truth = generate(SceneSpec(kind="low-wall"))
    path = tmp_path / "scene.vxg"
    save_voxel_map(vmap, path)
    loaded = load_voxel_map(path)
    assert loaded == vmap
    state = init(loaded)
    assert verify_against_truth(truth, state.height, state.slope,
                                state.uav, state.ugv) == []


def test_clutter_is_seeded_and_claims_stay_valid():
    a, _ = generate(SceneSpec(kind="flat-room", clutter=6, seed=9))
    b, _ = generate(SceneSpec(kind="flat-room", clutter=6, seed=9))
    c, _ = generate(SceneSpec(kind="flat-room", clutter=6, seed=10))
    assert a == b
    assert a != c
    convert_and_verify(SceneSpec(kind="flat-room", clutter=6, seed=9))


def test_low_wall_variants_verify():
    convert_and_verify(SceneSpec(kind="low-wall", observed_above=True))
    convert_and_verify(SceneSpec(kind="low-wall", wall_height=0.4,
                                 observed_above=False))


def test_scene_validation_errors():
    with pytest.raises(ValueError):
        SceneSpec(kind="volcano")
    with pytest.raises(ValueError, match="unknown scene kind"):
        SceneSpec(kind="corridor")  # it was a copy of flat-room
    with pytest.raises(ValueError, match="exceeds the room"):
        generate(SceneSpec(kind="low-wall", size_x=0.3, observed_above=False))
    with pytest.raises(ValueError):
        SceneSpec(kind="ramp", clutter=2)
    with pytest.raises(ValueError):
        generate(SceneSpec(kind="ramp", slope=0.3))
    with pytest.raises(ValueError):
        generate(SceneSpec(kind="crawl-space", gap=2.0))
    with pytest.raises(ValueError):
        generate(SceneSpec(kind="flat-room", height=0.5))


@pytest.mark.parametrize("spec", [
    SceneSpec(kind="ramp", height=0.5), SceneSpec(kind="step", height=0.5),
    SceneSpec(kind="composite", height=0.5), SceneSpec(kind="crawl-space", height=1.0),
], ids=spec_id)
def test_headroom_below_the_safety_margin_is_refused(spec):
    # init() would find no navigable span there, contradicting the truth
    with pytest.raises(ValueError, match="below the safety margin"):
        generate(spec)


@pytest.mark.parametrize("field, value, error, message", [
    ("clutter", -3, ValueError, "clutter must be >= 0"),
    ("seed", -1, ValueError, "seed must be >= 0"),
    ("wall_thickness", -2, ValueError, "wall_thickness must be >= 0"),
    ("clutter", 2.5, TypeError, "clutter must be an integer"),
    ("wall_thickness", 2.7, TypeError, "wall_thickness must be an integer"),
    ("seed", "3", TypeError, "seed must be an integer"),
])
def test_spec_counts_are_non_negative_integers(field, value, error, message):
    # clutter=-3 built the plain room, and wall_thickness=2.7 the voxels of 2.
    with pytest.raises(error, match=f"^{message}"):
        SceneSpec(kind="flat-room", **{field: value})


def test_spec_takes_integer_like_counts_as_ints():
    spec = SceneSpec(kind="flat-room", clutter=np.int64(2), seed=np.uint8(3))
    assert type(spec.clutter) is int and type(spec.seed) is int
    assert spec == SceneSpec(kind="flat-room", clutter=2, seed=3)


def test_headroom_is_counted_in_the_pipelines_voxels():
    # 1.2 m at res 0.7/7 leaves 10 free voxels, which min_run(res) accepts,
    # though 10 * res is an ulp below the 1 m margin.
    res = 0.7 / 7
    assert 10 * res < 1.0 and ConversionParams().min_run(res) == 10
    convert_and_verify(SceneSpec(kind="flat-room", height=1.2, resolution=res))
    with pytest.raises(ValueError, match="room is 9 voxels tall, below the safety "
                                         "margin of 10 voxels"):
        generate(SceneSpec(kind="flat-room", height=1.1, resolution=res))


@pytest.mark.parametrize("field", ["size_x", "size_y", "height", "resolution", "slope",
                                   "step_height", "wall_height", "gap", "beam_low",
                                   "beam_high"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_spec_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SceneSpec(kind="flat-room", **{field: value})


@pytest.mark.parametrize("value", ["no", 0, 1, None, np.bool_(False)])
def test_spec_observed_above_must_be_a_bool(value):
    # observed_above="no" built the observed wall
    with pytest.raises(TypeError, match="^observed_above must be a bool"):
        SceneSpec(kind="low-wall", observed_above=value)


@pytest.mark.parametrize("field", ["size_x", "resolution", "slope", "gap", "beam_high"])
@pytest.mark.parametrize("value", ["3", True, None, 2j])
def test_spec_meter_fields_must_be_real_numbers(field, value):
    # size_x="3" failed with a bare comparison TypeError
    with pytest.raises(TypeError, match=f"^{field} must be a real number"):
        SceneSpec(kind="flat-room", **{field: value})


def test_spec_takes_real_numbers_as_floats():
    spec = SceneSpec(kind="flat-room", size_x=3, size_y=np.float32(2.5), height=np.int64(2))
    assert all(type(getattr(spec, f)) is float for f in ("size_x", "size_y", "height"))
    assert spec == SceneSpec(kind="flat-room", size_x=3.0, size_y=2.5, height=2.0)


@pytest.mark.parametrize("field, value, message", [
    ("resolution", 0.0, "resolution must be finite and positive"),
    ("resolution", -0.1, "resolution must be finite and positive"),
    ("size_x", 0.0, "scene dimensions must be positive"),
    ("size_y", -1.0, "scene dimensions must be positive"),
    ("height", 0.0, "scene dimensions must be positive"),
])
def test_spec_rejects_sizes_at_or_below_zero(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        SceneSpec(kind="flat-room", **{field: value})


REFUSED = [
    (SceneSpec(kind="overhang", beam_low=2.0, beam_high=1.2), "0 < beam_low < beam_high"),
    (SceneSpec(kind="overhang", beam_high=2.9), "below the ceiling slab"),
    (SceneSpec(kind="overhang", beam_high=1.5), "space above the beam must stay below"),
    (SceneSpec(kind="low-wall", wall_thickness=0), "wall_thickness must be >= 1"),
    (SceneSpec(kind="low-wall", wall_height=1.5, observed_above=False),
     "unobserved wall too tall"),
    (SceneSpec(kind="crawl-space", gap=2.9), "crawl gap must sit below the room ceiling"),
]


@pytest.mark.parametrize("spec, message", REFUSED, ids=[spec_id(s) for s, _ in REFUSED])
def test_builders_refuse_scenes_their_truth_would_not_describe(spec, message):
    with pytest.raises(ValueError, match=message):
        generate(spec)


@pytest.mark.parametrize("layer", ["floor", "ceiling", "slope", "uav", "ugv"])
def test_each_planted_mismatch_yields_exactly_its_own_message(layer):
    _, truth, state = convert_and_verify(SceneSpec(kind="step", size_x=2.0, size_y=1.6))
    m, n = 6, 6
    assert truth.uav[m, n] == truth.ugv[m, n] == 0 and not math.isnan(truth.slope[m, n])
    floor_k, ceil_k = int(state.height.floor_k[m, n]), int(state.height.ceil_k[m, n])
    if layer == "floor":
        state.height.set_faces((m, n), floor_k + 1, ceil_k)
        expected = f"expected {truth.floor[m, n]}, got {state.height.floor[m, n]}"
    elif layer == "ceiling":
        state.height.set_faces((m, n), floor_k, ceil_k - 1)
        expected = f"expected {truth.ceiling[m, n]}, got {state.height.ceiling[m, n]}"
    elif layer == "slope":
        state.slope.values[m, n] += 0.25
        expected = f"expected {truth.slope[m, n]}, got {state.slope.values[m, n]}"
    else:
        getattr(state, layer).values[m, n] = 1.0
        expected = "expected free, got 1.0"
    problems = verify_against_truth(truth, state.height, state.slope, state.uav, state.ugv)
    assert problems == [f"{layer} ({m},{n}): {expected}"]


def test_slopes_are_compared_exactly():
    _, truth, state = convert_and_verify(SceneSpec(kind="ramp", size_x=2.0, size_y=1.6))
    m, n = np.argwhere(~np.isnan(truth.slope))[0]
    state.slope.values[m, n] = np.nextafter(truth.slope[m, n], np.inf)
    problems = verify_against_truth(truth, state.height, state.slope, state.uav, state.ugv)
    assert problems == [f"slope ({m},{n}): expected {truth.slope[m, n]}, "
                        f"got {state.slope.values[m, n]}"]


def test_coarser_resolution_scenes_still_verify():
    convert_and_verify(SceneSpec(kind="step", resolution=0.2))
    convert_and_verify(SceneSpec(kind="flat-room", resolution=0.2))
