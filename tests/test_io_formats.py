import numpy as np
import pytest

from voxflat import (GridFormatError, HeightMap, OccupancyGrid, SlopeMap,
                     read_grid, read_height, read_occupancy, read_slope,
                     size_report, write_height, write_occupancy,
                     write_occupancy_pgm, write_slope)

from oracles import make_height_map


def occupancy_grid(values, kind="uav"):
    return OccupancyGrid(kind, 0.1, (0.0, 0.0, 0.0), np.array(values, dtype=float))


def test_all_unknown_occupancy_payload_is_255(tmp_path):
    grid = occupancy_grid([[-1.0] * 3] * 2)
    path = tmp_path / "g.g2d"
    write_occupancy(grid, path)
    data = path.read_bytes()
    assert data.endswith(b"\xff" * 6)


def test_occupancy_endpoint_quantization(tmp_path):
    grid = occupancy_grid([[0.0, 1.0, -1.0]])
    path = tmp_path / "g.g2d"
    write_occupancy(grid, path)
    assert path.read_bytes()[-3:] == bytes([0, 254, 255])
    back = read_occupancy(path)
    assert back.values[0, 0] == 0.0
    assert back.values[0, 1] == 1.0
    assert back.values[0, 2] == -1.0


def test_occupancy_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(6)
    values = rng.random((9, 7))
    values[rng.random((9, 7)) < 0.3] = -1.0
    grid = occupancy_grid(values)
    path = tmp_path / "g.g2d"
    write_occupancy(grid, path)
    back = read_occupancy(path)
    known = values >= 0
    assert np.array_equal(known, back.values >= 0)  # -1/known never flips
    assert np.all(np.abs(back.values[known] - values[known]) <= 1.0 / 254 + 1e-12)
    assert back.kind == "uav"
    assert back.resolution == 0.1


def test_occupancy_preserves_robot_kind(tmp_path):
    grid = occupancy_grid([[0.0]], kind="ugv")
    path = tmp_path / "g.g2d"
    write_occupancy(grid, path)
    assert read_occupancy(path).kind == "ugv"


def test_height_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    # float32-representable heights round-trip exactly
    floor = rng.random((5, 4)).astype(np.float32).astype(np.float64)
    ceiling = floor + 2.5
    floor[0, 0] = np.nan
    ceiling[0, 0] = np.nan
    height = HeightMap(0.1, (0.0, 0.0, 0.0), floor,
                       ceiling.astype(np.float32).astype(np.float64))
    path = tmp_path / "h.g2d"
    write_height(height, True, path)
    back = read_height(path)
    assert np.array_equal(back.floor, floor, equal_nan=True)
    assert np.array_equal(back.ceiling, height.ceiling, equal_nan=True)
    # writing what was read reproduces the file byte for byte
    again = tmp_path / "h2.g2d"
    write_height(back, True, again)
    assert again.read_bytes() == path.read_bytes()


def test_height_floor_only_variant(tmp_path):
    height = make_height_map([[0.0, None], [1.5, 2.0]])
    floor_only = tmp_path / "floor.g2d"
    both = tmp_path / "both.g2d"
    write_height(height, False, floor_only)
    write_height(height, True, both)
    back = read_height(floor_only)
    assert np.array_equal(back.floor, height.floor, equal_nan=True)
    assert np.isnan(back.ceiling).all()
    # the ceiling plane costs exactly 4 more bytes per cell
    header_delta = len(b"height-floor-ceiling") - len(b"height-floor")
    assert both.stat().st_size - floor_only.stat().st_size == 4 * 4 + header_delta


def test_all_absent_height_map(tmp_path):
    height = make_height_map([[None, None]])
    path = tmp_path / "h.g2d"
    write_height(height, True, path)
    back = read_height(path)
    assert np.isnan(back.floor).all() and np.isnan(back.ceiling).all()


def test_slope_round_trip_keeps_window(tmp_path):
    values = np.array([[0.0, 0.5], [np.nan, 2.0]], dtype=np.float32).astype(float)
    smap = SlopeMap(0.1, (0.0, 0.0, 0.0), values, np.zeros((2, 2), bool), 2)
    path = tmp_path / "s.g2d"
    write_slope(smap, path)
    back = read_slope(path)
    assert back.neighborhood_cells == 2
    assert np.array_equal(back.values, values, equal_nan=True)


def test_readers_reject_wrong_kinds(tmp_path):
    height = make_height_map([[0.0]])
    hpath = tmp_path / "h.g2d"
    write_height(height, True, hpath)
    with pytest.raises(GridFormatError, match="kind"):
        read_occupancy(hpath)
    gpath = tmp_path / "g.g2d"
    write_occupancy(occupancy_grid([[0.0]]), gpath)
    with pytest.raises(GridFormatError, match="kind"):
        read_height(gpath)


def test_truncated_grid_rejected(tmp_path):
    path = tmp_path / "g.g2d"
    write_occupancy(occupancy_grid([[0.0, 1.0]]), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(GridFormatError, match="payload"):
        read_occupancy(path)


def test_grid_writes_are_deterministic(tmp_path):
    grid = occupancy_grid([[0.25, -1.0], [0.75, 0.0]])
    a, b = tmp_path / "a.g2d", tmp_path / "b.g2d"
    write_occupancy(grid, a)
    write_occupancy(grid, b)
    assert a.read_bytes() == b.read_bytes()


def test_read_grid_planes(tmp_path):
    height = make_height_map([[0.0, 1.0]], [[2.0, 3.0]])
    path = tmp_path / "h.g2d"
    write_height(height, True, path)
    hdr, planes = read_grid(path)
    assert hdr.kind == "height-floor-ceiling"
    assert len(planes) == 2
    assert np.array_equal(planes[0], height.floor)
    assert np.array_equal(planes[1], height.ceiling)


def test_pgm_export(tmp_path):
    grid = occupancy_grid([[0.0, 1.0], [-1.0, 0.5]])
    path = tmp_path / "g.pgm"
    write_occupancy_pgm(grid, path)
    text = path.read_text().split()
    assert text[0] == "P2"
    assert text[1:3] == ["2", "2"]  # width (x cells), height (y cells)
    assert text[3] == "255"
    pixels = [int(v) for v in text[4:]]
    assert len(pixels) == 4
    assert 127 in pixels            # the unknown cell
    assert pixels.count(127) == 1   # known cells never collide with it
    assert 0 in pixels and 255 in pixels


def test_pgm_export_golden_bytes(tmp_path):
    # 0.3 * 255 = 76.5 and 0.5 * 255 = 127.5 round half to even (76, 128);
    # 0.5 and 128/255 both land on the reserved 127 and are nudged to 126.
    grid = occupancy_grid([[-1.0, 0.0, 0.3], [0.5, 1.0, 0.002],
                           [0.25, 128 / 255, 0.998]])
    path = tmp_path / "g.pgm"
    write_occupancy_pgm(grid, path)
    assert path.read_bytes() == (b"P2\n3 3\n255\n"
                                 b"179 254 1\n255 0 126\n127 126 191\n")


def test_height_reader_planes_are_the_generic_reader_planes(tmp_path):
    height = make_height_map([[0.5, None], [1.25, 2.0]])
    path = tmp_path / "h.g2d"
    write_height(height, False, path)
    _, planes = read_grid(path)
    back = read_height(path)
    assert len(planes) == 1
    assert np.array_equal(back.floor, planes[0], equal_nan=True)
    assert np.isnan(back.ceiling).all()


@pytest.mark.parametrize("line, replacement, message", [
    (b"res 0.1", b"res -0.5", "resolution"),
    (b"res 0.1", b"res 0.0", "resolution"),
    (b"res 0.1", b"res nan", "resolution"),
    (b"res 0.1", b"res inf", "resolution"),
    (b"res 0.1", b"res abc", "unreadable value in 'res'"),
    (b"origin 0.0 0.0 0.0", b"origin 0.0 nan 0.0", "origin"),
    (b"origin 0.0 0.0 0.0", b"origin 0.0 0.0 -inf", "origin"),
    (b"origin 0.0 0.0 0.0", b"origin 0.0 x 0.0", "unreadable value in 'origin'"),
    (b"extent 2 1", b"extent 2 one", "unreadable value in 'extent'"),
    (b"extent 2 1", b"extent 2 1.0", "unreadable value in 'extent'"),
])
def test_grid_header_rejects_bad_numbers(tmp_path, line, replacement, message):
    path = tmp_path / "g.g2d"
    write_occupancy(occupancy_grid([[0.0], [1.0]]), path)
    data = path.read_bytes()
    assert line in data
    path.write_bytes(data.replace(line, replacement, 1))
    with pytest.raises(GridFormatError, match=message):
        read_occupancy(path)


def test_slope_header_rejects_unreadable_window(tmp_path):
    smap = SlopeMap(0.1, (0.0, 0.0, 0.0), np.zeros((1, 1)), np.zeros((1, 1), bool), 2)
    path = tmp_path / "s.g2d"
    for window, message in ((b"window two", "unreadable value in 'window'"),
                            (b"window 0", "slope window must be >= 1"),
                            (b"window -3", "slope window must be >= 1")):
        write_slope(smap, path)
        path.write_bytes(path.read_bytes().replace(b"window 2", window))
        with pytest.raises(GridFormatError, match=message):
            read_slope(path)


def test_size_report_self_comparison(tmp_path):
    path = tmp_path / "v.vxg"
    path.write_bytes(b"x" * 1000)
    report = size_report(path, {"itself": path})
    rows = report.rows()
    assert rows[0] == ("v.vxg", 1000, 100.0)
    assert rows[1] == ("itself", 1000, 100.0)


def test_size_report_grouping_and_percentages(tmp_path):
    voxel = tmp_path / "v.vxg"
    voxel.write_bytes(b"x" * 10_000)
    a = tmp_path / "map.g2d"
    a.write_bytes(b"y" * 450)
    b = tmp_path / "height.g2d"
    b.write_bytes(b"z" * 1_000)
    report = size_report(voxel, {"2d-map": a, "2d-map+height": [a, b]})
    rows = {label: (size, pct) for label, size, pct in report.rows()}
    assert rows["2d-map"] == (450, 4.5)
    assert rows["2d-map+height"] == (1450, 14.5)
    csv = report.to_csv()
    assert "2d-map,450,4.5" in csv


def test_size_report_missing_file(tmp_path):
    voxel = tmp_path / "v.vxg"
    voxel.write_bytes(b"x")
    with pytest.raises(FileNotFoundError):
        size_report(voxel, [tmp_path / "nope.g2d"])


def test_occupancy_file_smaller_than_voxel_file_when_columns_are_busy(tmp_path):
    # a voxel record costs 16 B and an occupancy cell 1 B, so the 2D file
    # wins whenever columns average more than 1/16 of a stored voxel
    from voxflat import init, save_voxel_map, write_occupancy
    from voxflat.scenes import SceneSpec, generate
    vmap, _ = generate(SceneSpec(kind="flat-room", size_x=2.0, size_y=1.6))
    M, N, _ = vmap.extent
    assert vmap.cell_count() > M * N / 16
    vxg = tmp_path / "v.vxg"
    save_voxel_map(vmap, vxg)
    occ = tmp_path / "o.g2d"
    write_occupancy(init(vmap).uav, occ)
    assert occ.stat().st_size < vxg.stat().st_size


def test_height_file_payload_arithmetic(tmp_path):
    # floor+ceiling payload is exactly 8 bytes per cell beyond the header
    height = make_height_map([[0.0] * 7 for _ in range(5)])
    path = tmp_path / "h.g2d"
    write_height(height, True, path)
    header_len = path.read_bytes().find(b"origin")
    header_len = path.read_bytes().index(b"\n", header_len) + 1
    assert path.stat().st_size - header_len == 8 * 5 * 7


@pytest.mark.parametrize("line, replacement, message", [
    (b"G2D 1", b"G2D 2", "unsupported grid format version 2"),
    (b"extent 2 1", b"extent 0 1", "extent components must be >= 1"),
    (b"extent 2 1", b"extent 2 -1", "extent components must be >= 1"),
])
def test_grid_header_rejects_unsupported_versions_and_empty_extents(tmp_path, line,
                                                                   replacement, message):
    path = tmp_path / "g.g2d"
    write_occupancy(occupancy_grid([[0.0], [1.0]]), path)
    path.write_bytes(path.read_bytes().replace(line, replacement, 1))
    with pytest.raises(GridFormatError, match=message):
        read_grid(path)


@pytest.mark.parametrize("writer", [write_occupancy, write_occupancy_pgm])
@pytest.mark.parametrize("value", [1.5, np.nan, np.inf, -0.5, -2.0, -np.inf])
def test_occupancy_writers_reject_values_outside_the_occupancy_domain(tmp_path, writer,
                                                                      value):
    grid = occupancy_grid([[0.0, -1.0, 1.0], [0.25, value, 0.5]])
    path = tmp_path / "g.out"
    with pytest.raises(ValueError, match=rf"occupancy cell \(1, 1\) holds {value}"):
        writer(grid, path)
    assert not path.exists()
