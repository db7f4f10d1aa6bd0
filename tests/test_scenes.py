import dataclasses
import json

import numpy as np
import pytest

from voxflat import init, load_voxel_map, save_voxel_map
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
], ids=["no-kind", "list", "floor-number", "short-slope-grid", "extent-mismatch",
        "ugv-number-cell", "short-extent"])
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


def test_coarser_resolution_scenes_still_verify():
    convert_and_verify(SceneSpec(kind="step", resolution=0.2))
    convert_and_verify(SceneSpec(kind="flat-room", resolution=0.2))
