import dataclasses
import json
import os
import threading

import numpy as np
import pytest

import voxflat.cli as cli
from voxflat import (ConversionParams, LiftParams, enforce_clearance, init, lift_path,
                     load_voxel_map, plan_2d, read_height, read_occupancy, read_path_3d,
                     write_height, write_path_2d)
from voxflat.cli import main
from voxflat.scenes import SCENE_KINDS, SceneSpec, SceneTruth


def run(*argv):
    return main([str(a) for a in argv])


def synth(tmp_path, scene, *extra):
    out = tmp_path / f"{scene}.vxg"
    assert run("synth", "--scene", scene, "--out", out, *extra) == 0
    return out


def convert(tmp_path, vxg, name="out", *extra):
    out_dir = tmp_path / name
    assert run("convert", "--in", vxg, "--out-dir", out_dir, *extra) == 0
    return out_dir


def test_synth_convert_produces_all_grids(tmp_path, capsys):
    vxg = synth(tmp_path, "flat-room")
    out = convert(tmp_path, vxg)
    for name in ("uav_map.g2d", "ugv_map.g2d", "height.g2d", "slope.g2d",
                 "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["r_max_z"] == 1.0
    assert manifest["parameters"]["s_a_cells"] == 2
    assert manifest["wall_time_s"] > 0
    assert manifest["load_time_s"] > 0
    assert manifest["write_time_s"] > 0
    closing = capsys.readouterr().out.splitlines()[-1]
    assert closing.startswith("converted ") and "(load " in closing


def test_convert_is_deterministic_and_diff_agrees(tmp_path, capsys):
    vxg = synth(tmp_path, "ramp")
    a = convert(tmp_path, vxg, "a")
    b = convert(tmp_path, vxg, "b")
    for name in ("uav_map.g2d", "ugv_map.g2d", "height.g2d", "slope.g2d"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    capsys.readouterr()
    assert run("diff", a / "uav_map.g2d", b / "uav_map.g2d") == 0
    assert "0 differing cells" in capsys.readouterr().out


def test_diff_reports_differences(tmp_path, capsys):
    vxg_a = synth(tmp_path, "flat-room")
    vxg_b = synth(tmp_path, "low-wall")
    a = convert(tmp_path, vxg_a, "a")
    b = convert(tmp_path, vxg_b, "b")
    capsys.readouterr()
    assert run("diff", a / "ugv_map.g2d", b / "ugv_map.g2d") == 2
    out = capsys.readouterr().out
    assert not out.startswith("0 differing")


def test_diff_tolerance(tmp_path, capsys):
    vxg = synth(tmp_path, "flat-room")
    a = convert(tmp_path, vxg, "a")
    assert run("diff", a / "height.g2d", a / "height.g2d", "--tol", "0") == 0


def test_diff_tolerance_must_be_finite_and_non_negative(tmp_path, capsys):
    # a NaN tolerance once called two different grids identical, and a
    # negative one called every cell different
    a = convert(tmp_path, synth(tmp_path, "flat-room"), "a")
    b = convert(tmp_path, synth(tmp_path, "step"), "b")
    assert run("diff", a / "height.g2d", b / "height.g2d", "--tol", "0") == 2
    assert run("diff", a / "height.g2d", b / "height.g2d", "--tol", "100") == 0
    capsys.readouterr()
    for tol in ("nan", "inf", "-1"):
        assert run("diff", a / "ugv_map.g2d", b / "ugv_map.g2d", "--tol", tol) == 1
        assert "--tol must be finite and >= 0" in capsys.readouterr().err


def test_convert_manifest_records_file_sizes(tmp_path):
    vxg = synth(tmp_path, "ramp")
    out = convert(tmp_path, vxg, "out", "--pgm")
    manifest = json.loads((out / "manifest.json").read_text())
    sizes = manifest["bytes"]
    assert sizes.pop("input") == vxg.stat().st_size
    assert sizes == {label: (out / name).stat().st_size
                     for label, name in manifest["outputs"].items()}
    assert len(sizes) == 6


def test_convert_manifest_counts_the_bytes_read_from_a_pipe(tmp_path):
    # a pipe's stat size is 0, so the count must come from the reader
    data = synth(tmp_path, "ramp").read_bytes()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, daemon=True, args=(data,))
    writer.start()
    try:
        out = convert(tmp_path, fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["bytes"]["input"] == len(data) > 0


def test_convert_refuses_a_vxg_1_file(tmp_path, capsys):
    old = tmp_path / "old.vxg"
    old.write_bytes(b"VXG 1\nres 0.1\norigin 0.0 0.0 0.0\nextent 64 48 8\ncount 0\n")
    assert run("convert", "--in", old, "--out-dir", tmp_path / "o") == 2
    assert "unsupported VXG version 1" in capsys.readouterr().err


def test_diff_of_incomparable_grids_is_a_data_error(tmp_path, capsys):
    out = convert(tmp_path, synth(tmp_path, "flat-room", "--size-x", "2.0", "--size-y", "1.6"))
    assert run("diff", out / "uav_map.g2d", out / "height.g2d") == 2
    assert "grids are not comparable" in capsys.readouterr().err


def test_missing_input_is_a_data_error(tmp_path, capsys):
    assert run("convert", "--in", tmp_path / "nope.vxg",
               "--out-dir", tmp_path / "o") == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run("fly") == 1
    assert run("convert", "--in") == 1
    assert run("synth", "--scene", "volcano", "--out", tmp_path / "x.vxg") == 1


class Captured(Exception):
    pass


def handed_to(monkeypatch, owner, name, *argv):
    """The arguments `voxflat argv` hands to owner.name, which it then does
    not run."""
    got = []

    def capture(*args):
        got.extend(args)
        raise Captured

    monkeypatch.setattr(owner, name, capture)
    with pytest.raises(Captured):
        run(*argv)
    monkeypatch.undo()
    return got


def test_required_flags_alone_give_the_dataclass_defaults(tmp_path, monkeypatch):
    vxg = synth(tmp_path, "flat-room", "--size-x", "2.0", "--size-y", "1.6")
    out = convert(tmp_path, vxg)
    trace = tmp_path / "trace.txt"
    trace.write_text("")
    for argv in (("convert", "--in", vxg, "--out-dir", tmp_path / "o"),
                 ("bench", "--in", vxg, "--trace", trace, "--out", tmp_path / "b.csv")):
        _, params = handed_to(monkeypatch, cli.incremental, "init", *argv)
        assert params == ConversionParams()
    for kind in SCENE_KINDS:
        assert handed_to(monkeypatch, cli, "generate", "synth", "--scene", kind,
                         "--out", tmp_path / "x.vxg") == [SceneSpec(kind=kind)]
    assert handed_to(monkeypatch, cli, "generate", "bench", "--scene", "ramp", "--trace",
                     trace, "--out", tmp_path / "b.csv") == [SceneSpec(kind="ramp")]
    for mode, defaults in (("uav", LiftParams.uav_defaults), ("ugv", LiftParams.ugv_defaults)):
        *_, params = handed_to(monkeypatch, cli, "lift_path", "lift", "--grid",
                               out / f"{mode}_map.g2d", "--height", out / "height.g2d",
                               "--mode", mode, "--start", 5, 5, "--goal", 6, 5,
                               "--out", tmp_path / "p.txt")
        assert params == defaults(0.1)


@pytest.mark.parametrize("field", [f for f in dataclasses.fields(SceneSpec)
                                   if f.name != "kind"], ids=lambda f: f.name)
def test_every_scene_spec_field_has_a_synth_flag(tmp_path, monkeypatch, field):
    if field.name == "observed_above":
        value, flag = False, ["--unobserved-above"]
    else:
        value = field.default + (1 if isinstance(field.default, int) else 0.25)
        name = "res" if field.name == "resolution" else field.name.replace("_", "-")
        flag = [f"--{name}", value]
    (spec,) = handed_to(monkeypatch, cli, "generate", "synth", "--scene", "flat-room",
                        "--out", tmp_path / "x.vxg", *flag)
    assert spec == dataclasses.replace(SceneSpec(kind="flat-room"), **{field.name: value})


def test_synth_rejects_a_non_finite_size(tmp_path, capsys):
    assert run("synth", "--scene", "flat-room", "--size-x", "inf",
               "--out", tmp_path / "x.vxg") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: size_x must be finite")
    assert "Traceback" not in err


def test_synth_rejects_a_negative_count(tmp_path, capsys):
    assert run("synth", "--scene", "flat-room", "--clutter", "-3",
               "--out", tmp_path / "x.vxg") == 2
    assert capsys.readouterr().err.startswith("error: clutter must be >= 0")
    assert not (tmp_path / "x.vxg").exists()


def test_lift_uav_on_flat_scene(tmp_path, capsys):
    vxg = synth(tmp_path, "flat-room")
    out = convert(tmp_path, vxg)
    truth = SceneTruth.read(tmp_path / "flat-room.json")
    path_out = tmp_path / "path.txt"
    capsys.readouterr()
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav", "--start", 5, 5,
               "--goal", 20, 5, "--out", path_out) == 0
    assert "clearance moved 0 of 16 waypoints, max |dz| 0.000 m\n" in capsys.readouterr().out
    path = read_path_3d(path_out)
    assert len(path) == 16
    floor = truth.floor[5, 5]
    # flat scene: every waypoint sits one offset above the uniform floor
    height = read_height(out / "height.g2d")
    expected = float(height.floor[5, 5]) + 1.0
    assert all(z == pytest.approx(expected, abs=1e-6) for _, _, z in path)
    assert floor == pytest.approx(0.1)


def test_uav_lift_from_files_equals_the_library_in_memory(tmp_path):
    # height.g2d holds float32 meters; the reader snaps them back to the
    # stored faces, so the lifted z are the in-memory ones bit for bit, not
    # their float32 roundings.
    vxg = synth(tmp_path, "ramp")
    out = convert(tmp_path, vxg)
    state = init(load_voxel_map(vxg))
    assert np.array_equal(read_height(out / "height.g2d").floor_k, state.height.floor_k)
    n = state.uav.extent[1] // 2
    free = np.flatnonzero(state.uav.values[:, n] == 0.0)
    path2d = plan_2d(state.uav, (int(free[0]), n), (int(free[-1]), n))
    write_path_2d(path2d, tmp_path / "path2d.txt")
    assert run("lift", "--grid", out / "uav_map.g2d", "--height", out / "height.g2d",
               "--mode", "uav", "--path-in", tmp_path / "path2d.txt",
               "--out", tmp_path / "path3d.txt") == 0
    params = LiftParams.uav_defaults(state.height.resolution)
    want = enforce_clearance(lift_path(path2d, state.height, params), state.height,
                             params.safety_radius)
    got = read_path_3d(tmp_path / "path3d.txt")
    assert len(got) == len(path2d) > 10
    assert got == want
    assert len({z for _, _, z in got}) > 5  # the ramp gives many distinct heights


def test_lift_ugv_tracks_the_floor(tmp_path):
    vxg = synth(tmp_path, "step")
    out = convert(tmp_path, vxg)
    path_out = tmp_path / "path.txt"
    assert run("lift", "--grid", out / "ugv_map.g2d", "--height",
               out / "height.g2d", "--mode", "ugv", "--start", 5, 10,
               "--goal", 15, 10, "--out", path_out) == 0
    height = read_height(out / "height.g2d")
    for i, (x, y, z) in enumerate(read_path_3d(path_out)):
        m = int(x / 0.1)
        n = int(y / 0.1)
        assert z >= float(height.floor[m, n]) + 0.1 - 1e-6


@pytest.mark.parametrize("flags", [("--r-r", "-7"), ("--r-max-z", "-1"),
                                   ("--r-r", "-7", "--r-max-z", "-1"), ("--r-r", "0.2")])
def test_ugv_lift_refuses_the_aerial_sphere_flags(tmp_path, capsys, flags):
    out = convert(tmp_path, synth(tmp_path, "flat-room"))
    path_out = tmp_path / "path.txt"
    assert run("lift", "--grid", out / "ugv_map.g2d", "--height", out / "height.g2d",
               "--mode", "ugv", "--start", 5, 5, "--goal", 6, 5, "--out", path_out,
               *flags) == 1
    assert "apply to --mode uav only" in capsys.readouterr().err
    assert not path_out.exists()


def test_lift_uav_reports_what_clearance_moved(tmp_path, capsys):
    vxg = synth(tmp_path, "overhang")
    out = convert(tmp_path, vxg)
    height = read_height(out / "height.g2d")
    M, N = height.extent
    path2d = [(m, N // 2) for m in range(2, M - 2)]  # under the beam
    p2 = tmp_path / "p2.txt"
    write_path_2d(path2d, p2)
    capsys.readouterr()
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav", "--path-in", p2,
               "--out", tmp_path / "p3.txt") == 0
    lifted = lift_path(path2d, height, LiftParams.uav_defaults(height.resolution))
    dz = [abs(a[2] - b[2]) for a, b in zip(lifted, read_path_3d(tmp_path / "p3.txt"))]
    moved = sum(d > 0 for d in dz)
    assert moved > 0
    assert (f"clearance moved {moved} of {len(dz)} waypoints, max |dz| {max(dz):.3f} m\n"
            in capsys.readouterr().out)


def test_lift_accepts_a_path_file_and_validates_it(tmp_path, capsys):
    vxg = synth(tmp_path, "flat-room")
    out = convert(tmp_path, vxg)
    p2 = tmp_path / "p2.txt"
    write_path_2d([(5, 5), (6, 5), (7, 6)], p2)
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav", "--path-in", p2,
               "--out", tmp_path / "p3.txt") == 0
    write_path_2d([(0, 0), (1, 0)], p2)  # margin cells are not free
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav", "--path-in", p2,
               "--out", tmp_path / "p3.txt") == 2
    assert "not free" in capsys.readouterr().err
    write_path_2d([(5, 5), (7, 5)], p2)
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav", "--path-in", p2,
               "--out", tmp_path / "p3.txt") == 2
    assert "waypoints 0 and 1 are not 8-neighbors" in capsys.readouterr().err


def test_lift_between_disconnected_endpoints_is_a_data_error(tmp_path, capsys):
    # the crawl strip holds no free aerial cell, so it cuts the room in two
    out = convert(tmp_path, synth(tmp_path, "crawl-space"))
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav", "--start", 5, 20,
               "--goal", 55, 20, "--out", tmp_path / "p.txt") == 2
    assert "no path from (5, 20) to (55, 20)" in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


def test_uav_lift_needs_the_ceilings(tmp_path, capsys):
    out = convert(tmp_path, synth(tmp_path, "flat-room", "--size-x", "2.0", "--size-y", "1.6"))
    write_height(read_height(out / "height.g2d"), False, tmp_path / "floor.g2d")
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               tmp_path / "floor.g2d", "--mode", "uav", "--start", 5, 5,
               "--goal", 6, 5, "--out", tmp_path / "p.txt") == 2
    assert "uav lifting needs a floor+ceiling height file" in capsys.readouterr().err


def test_lift_mode_mismatch_is_an_error(tmp_path, capsys):
    vxg = synth(tmp_path, "flat-room")
    out = convert(tmp_path, vxg)
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "ugv", "--start", 5, 5,
               "--goal", 6, 5, "--out", tmp_path / "p.txt") == 2


def test_lift_requires_endpoints_or_file(tmp_path, capsys):
    vxg = synth(tmp_path, "flat-room")
    out = convert(tmp_path, vxg)
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav",
               "--out", tmp_path / "p.txt") == 1


def test_lift_clearance_bound_enforced(tmp_path, capsys):
    vxg = synth(tmp_path, "flat-room")
    out = convert(tmp_path, vxg)
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav", "--start", 5, 5,
               "--goal", 6, 5, "--out", tmp_path / "p.txt",
               "--r-r", "0.8") == 2
    assert "r_max_z" in capsys.readouterr().err


def test_synth_sidecar_optional(tmp_path):
    out = tmp_path / "s.vxg"
    assert run("synth", "--scene", "step", "--out", out, "--no-sidecar") == 0
    assert out.exists()
    assert not out.with_suffix(".json").exists()


def test_bench_replays_a_trace(tmp_path):
    vxg = synth(tmp_path, "flat-room", "--size-x", "4.0", "--size-y", "1.0")
    trace = tmp_path / "trace.txt"
    lines = ["# reveal three voxels, in two batches",
             "10 5 3 free", "10 5 4 free", "", "11 5 3 occupied"]
    trace.write_text("\n".join(lines) + "\n")
    csv_out = tmp_path / "bench.csv"
    assert run("bench", "--in", vxg, "--trace", trace, "--out", csv_out) == 0
    rows = csv_out.read_text().strip().splitlines()
    assert rows[0] == ("update_index,columns_dirty,slope_cells,"
                       "occupancy_cells,wall_time_us")
    assert len(rows) == 3
    first = rows[1].split(",")
    assert first[0] == "0" and first[1] == "1"  # one dirty column


def test_bench_starts_from_a_default_scene(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("10 5 3 free\n")
    csv_out = tmp_path / "bench.csv"
    assert run("bench", "--scene", "flat-room", "--trace", trace, "--out", csv_out) == 0
    rows = csv_out.read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,1,")


def test_bench_empty_trace_gives_header_only_csv(tmp_path):
    vxg = synth(tmp_path, "flat-room", "--size-x", "2.0", "--size-y", "1.6")
    trace = tmp_path / "trace.txt"
    trace.write_text("# nothing\n")
    csv_out = tmp_path / "bench.csv"
    assert run("bench", "--in", vxg, "--trace", trace, "--out", csv_out) == 0
    assert csv_out.read_text().strip().splitlines() == [
        "update_index,columns_dirty,slope_cells,occupancy_cells,wall_time_us"]


def test_bench_requires_exactly_one_source(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("")
    assert run("bench", "--trace", trace, "--out", tmp_path / "b.csv") == 1
    assert run("bench", "--in", tmp_path / "x.vxg", "--scene", "ramp", "--trace", trace,
               "--out", tmp_path / "b.csv") == 1
    assert "not allowed with argument --in" in capsys.readouterr().err


def test_bench_corridor_slices_have_constant_recompute_counts(tmp_path):
    # reveal a narrow flat room, a constant-width corridor, slice by slice;
    # mid-run dirty counts must be identical because the cross-section never
    # changes
    from voxflat import VoxelMap, save_voxel_map
    from voxflat.scenes import SceneSpec, generate
    full, _ = generate(SceneSpec(kind="flat-room", size_x=3.0, size_y=1.0))
    M, N, K = full.extent
    empty = tmp_path / "empty.vxg"
    save_voxel_map(VoxelMap(full.resolution, full.origin, full.extent), empty)
    lines = []
    for m in range(M):
        batch = []
        for n in range(N):
            view = full.column(m, n)
            for z0, length, state in view.runs:
                if state:
                    for k in range(z0, z0 + length):
                        batch.append(f"{m} {n} {k} {int(state)}")
        if batch:
            lines.extend(batch)
            lines.append("")
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(lines))
    csv_out = tmp_path / "bench.csv"
    assert run("bench", "--in", empty, "--trace", trace, "--out", csv_out) == 0
    rows = csv_out.read_text().strip().splitlines()[1:]
    occupancy_counts = [int(r.split(",")[3]) for r in rows]
    mid = occupancy_counts[4:-4]
    assert len(set(mid)) == 1


def test_pgm_flag_writes_viewable_maps(tmp_path):
    vxg = synth(tmp_path, "flat-room", "--size-x", "2.0", "--size-y", "1.6")
    out = convert(tmp_path, vxg, "out", "--pgm")
    pgm = (out / "uav_map.pgm").read_text().split()
    assert pgm[0] == "P2"
    grid = read_occupancy(out / "uav_map.g2d")
    assert [int(pgm[1]), int(pgm[2])] == list(grid.extent)


def test_lift_infeasible_clearance_names_the_waypoint(tmp_path, capsys):
    # raised floor right next to a low beam: less than a sphere of space
    from voxflat import VoxelMap, VoxelState, save_voxel_map
    vm = VoxelMap(0.1, (0, 0, 0), (20, 7, 32))
    occ, free = VoxelState.OCCUPIED, VoxelState.FREE
    vm.fill_box(0, 20, 0, 7, 0, 1, occ)       # floor slab
    vm.fill_box(0, 10, 0, 7, 1, 31, free)     # low side, free to the ceiling
    vm.fill_box(0, 20, 0, 7, 31, 32, occ)     # ceiling slab
    vm.fill_box(8, 10, 0, 7, 24, 31, occ)     # beam: ceiling 2.4 m locally
    vm.fill_box(8, 10, 0, 7, 1, 24, free)
    vm.fill_box(10, 20, 0, 7, 1, 16, occ)     # raised floor at 1.6 m
    vm.fill_box(10, 20, 0, 7, 16, 31, free)
    vxg = tmp_path / "squeeze.vxg"
    save_voxel_map(vm, vxg)
    out = convert(tmp_path, vxg)
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav", "--start", 2, 3,
               "--goal", 17, 3, "--out", tmp_path / "p.txt") == 2
    assert "waypoint" in capsys.readouterr().err


def test_lift_off_map_waypoint_is_a_data_error(tmp_path, capsys, monkeypatch):
    # a lifted path that strays off the map fails the clearance check with
    # exit code 2 instead of passing through unchecked
    import voxflat.cli as cli
    real_lift = cli.lift_path
    monkeypatch.setattr(cli, "lift_path",
                        lambda *a: real_lift(*a) + [(100.0, 100.0, -5.0)])
    vxg = synth(tmp_path, "flat-room", "--size-x", "2.0", "--size-y", "1.6")
    out = convert(tmp_path, vxg)
    assert run("lift", "--grid", out / "uav_map.g2d", "--height",
               out / "height.g2d", "--mode", "uav", "--start", 5, 5,
               "--goal", 12, 10, "--out", tmp_path / "p.txt") == 2
    assert "is off the map" in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


def test_convert_outputs_match_the_sidecar(tmp_path):
    vxg = synth(tmp_path, "composite")
    out = convert(tmp_path, vxg)
    truth = SceneTruth.read(tmp_path / "composite.json")
    height = read_height(out / "height.g2d")
    uav = read_occupancy(out / "uav_map.g2d")
    ugv = read_occupancy(out / "ugv_map.g2d")
    from voxflat import read_slope
    slope = read_slope(out / "slope.g2d")
    claimed = ~np.isnan(truth.floor)
    # the reader snaps the float32 file heights back to voxel faces, so the
    # heights equal the truth exactly
    assert np.array_equal(height.floor[claimed], truth.floor[claimed])
    assert np.array_equal(height.ceiling[claimed], truth.ceiling[claimed])
    sclaim = ~np.isnan(truth.slope)
    assert np.allclose(slope.values[sclaim], truth.slope[sclaim], atol=1e-6)
    for grid, claims in ((uav, truth.uav), (ugv, truth.ugv)):
        free = claims == 0
        occupied = claims == 1
        unknown = claims == -1
        assert np.all(grid.values[free] == 0.0)
        assert np.all(grid.values[occupied] > 0.0)
        assert np.all(grid.values[unknown] == -1.0)


def test_trace_parse_errors(tmp_path, capsys):
    vxg = synth(tmp_path, "flat-room", "--size-x", "2.0", "--size-y", "1.6")
    trace = tmp_path / "trace.txt"
    trace.write_text("1 2 3\n")
    assert run("bench", "--in", vxg, "--trace", trace,
               "--out", tmp_path / "b.csv") == 2
    trace.write_text("1 2 3 lava\n")
    assert run("bench", "--in", vxg, "--trace", trace,
               "--out", tmp_path / "b.csv") == 2
    trace.write_text("1 2 3 free\n1 x 3 free\n")
    capsys.readouterr()
    assert run("bench", "--in", vxg, "--trace", trace,
               "--out", tmp_path / "b.csv") == 2
    assert "trace.txt:2: unreadable voxel index" in capsys.readouterr().err
    trace.write_text("1 2 3 free\n\n1 2 99999999999999999999 free\n")
    capsys.readouterr()
    assert run("bench", "--in", vxg, "--trace", trace,
               "--out", tmp_path / "b.csv") == 2
    assert "trace.txt:3: voxel index beyond int64" in capsys.readouterr().err
    trace.write_text("1 2 3 free\n1 -2 3 occupied\n")
    assert run("bench", "--in", vxg, "--trace", trace,
               "--out", tmp_path / "b.csv") == 2
    assert "error: update 1: voxel (1, -2, 3) outside extent" in capsys.readouterr().err


def test_trace_batches_are_integer_arrays(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("# two batches\n10 5 3 free\n10 5 4 0\n\n\n11 5 3 occupied\n")
    batches = cli._read_trace(trace)
    assert [b.dtype for b in batches] == [np.int64, np.int64]
    assert [b.tolist() for b in batches] == [[[10, 5, 3, 2], [10, 5, 4, 0]],
                                             [[11, 5, 3, 1]]]


@pytest.mark.parametrize("p_f", ["inf", "-inf", "nan"])
def test_lift_refuses_a_non_finite_path_lookahead(tmp_path, capsys, p_f):
    # inf ended in an OverflowError traceback, and nan did not name the flag
    out = convert(tmp_path, synth(tmp_path, "flat-room"))
    path_out = tmp_path / "path.txt"
    capsys.readouterr()
    for mode in ("uav", "ugv"):
        assert run("lift", "--grid", out / f"{mode}_map.g2d", "--height", out / "height.g2d",
                   "--mode", mode, "--start", 5, 5, "--goal", 6, 5, "--out", path_out,
                   f"--p-f={p_f}") == 1
        assert f"lift: --p-f must be finite, got {float(p_f)}" in capsys.readouterr().err
    assert not path_out.exists()
