import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voxflat import (GridFormatError, HeightMap, OccupancyGrid, SlopeMap,
                     read_grid, read_height, read_occupancy, read_slope,
                     write_height, write_occupancy, write_occupancy_pgm,
                     write_slope)

from oracles import grid_outcome, make_height_map, through_a_pipe


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
    # voxel faces round-trip exactly through the float32 file, and so do the
    # meter views made from them
    floor_k = rng.integers(0, 60, (5, 4)).astype(np.int32)
    ceil_k = floor_k + rng.integers(1, 40, (5, 4)).astype(np.int32)
    floor_k[0, 0] = ceil_k[0, 0] = -1
    height = HeightMap(0.1, (0.0, 0.0, -1.3), floor_k, ceil_k)
    path = tmp_path / "h.g2d"
    write_height(height, True, path)
    back = read_height(path)
    assert np.array_equal(back.floor_k, floor_k)
    assert np.array_equal(back.ceil_k, ceil_k)
    assert np.array_equal(back.floor, height.floor, equal_nan=True)
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


def test_height_reader_names_the_path_and_cell_of_a_ceiling_at_or_below_its_floor(tmp_path):
    path = tmp_path / "h.g2d"
    path.write_bytes(b"G2D 1\nkind height-floor-ceiling\nextent 1 2\nres 0.1\norigin 0 0 0\n"
                     + np.array([[0.0, 0.5], [1.0, 0.5]], "<f4").tobytes())
    with pytest.raises(GridFormatError) as raised:
        read_height(path)
    assert str(raised.value) == (f"{path}: height cell (0, 1) with floor face 5 and "
                                 "ceiling face 5: the ceiling is at or below the floor")


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
    # read_height snaps the generic reader's plane to the nearest face
    assert np.array_equal(back.floor_k, np.where(np.isnan(planes[0]), -1,
                                                 np.rint(planes[0] / 0.1)))
    assert (back.ceil_k == -1).all() and np.isnan(back.ceiling).all()


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
    (b"G2D 1", b"G2D 2", "unsupported G2D version 2"),
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


# One small grid of each kind, with an origin and resolution whose shortest
# decimals are not trivial, and the bytes the writers gave for them before
# they moved onto the codec shared with VXG: header text, then payload.
_ORIGIN = (-1.5, 2.25, -0.3)
_HEIGHT = HeightMap(0.05, _ORIGIN, np.array([[0, -1], [6, 2]]),
                    np.array([[40, -1], [7, 3]]))
_GOLDEN = {
    "occupancy": (
        lambda path: write_occupancy(OccupancyGrid(
            "ugv", 0.05, _ORIGIN, np.array([[-1.0, 0.0, 0.5], [1.0, 0.3, 0.002]])), path),
        b"G2D 1\nkind occupancy\nextent 2 3\nres 0.05\norigin -1.5 2.25 -0.3\n"
        b"robot ugv\n" + bytes.fromhex("ff007ffe4c01")),
    "height-floor": (
        lambda path: write_height(_HEIGHT, False, path),
        b"G2D 1\nkind height-floor\nextent 2 2\nres 0.05\norigin -1.5 2.25 -0.3\n"
        + bytes.fromhex("9a9999be 0000c07f 00008024 cdcc4cbe")),
    "height-floor-ceiling": (
        lambda path: write_height(_HEIGHT, True, path),
        b"G2D 1\nkind height-floor-ceiling\nextent 2 2\nres 0.05\n"
        b"origin -1.5 2.25 -0.3\n"
        + bytes.fromhex("9a9999be 0000c07f 00008024 cdcc4cbe"
                        "9a99d93f 0000c07f cdcc4c3d 9a9919be")),
    "slope": (
        lambda path: write_slope(SlopeMap(
            0.05, _ORIGIN, np.array([[0.0, np.nan], [0.25, 1.5]]),
            np.zeros((2, 2), bool), 3), path),
        b"G2D 1\nkind slope\nextent 2 2\nres 0.05\norigin -1.5 2.25 -0.3\nwindow 3\n"
        + bytes.fromhex("00000000 0000c07f 0000803e 0000c03f")),
}


@pytest.mark.parametrize("kind", list(_GOLDEN))
def test_grid_writers_golden_bytes(tmp_path, kind):
    write, golden = _GOLDEN[kind]
    path = tmp_path / "g.g2d"
    write(path)
    assert path.read_bytes() == golden
    hdr, _ = read_grid(path)
    assert (hdr.kind, hdr.resolution, hdr.origin) == (kind, 0.05, _ORIGIN)


def unnamed(outcome):
    """An outcome with the file name dropped from its error message."""
    if isinstance(outcome[0], type):
        return outcome[0], outcome[1].split(": ", 1)[1]
    return outcome


@pytest.mark.parametrize("kind", list(_GOLDEN))
def test_grid_reader_reads_a_pipe_as_it_reads_a_file(tmp_path, kind):
    _, golden = _GOLDEN[kind]
    path = tmp_path / "g.g2d"
    read = functools.partial(grid_outcome, read_grid)
    for data in (golden, golden[:-1], golden + b"\x00"):
        path.write_bytes(data)
        want = unnamed(read(path))
        assert unnamed(through_a_pipe(tmp_path, data, read)) == want
        assert isinstance(want[0], type) == (data != golden)


def write_raw_slope(values: np.ndarray, path) -> None:
    """A 2 x 2 slope file holding any float32 cells, which write_slope refuses
    to write when read_slope would refuse them."""
    path.write_bytes(b"G2D 1\nkind slope\nextent 2 2\nres 0.1\norigin 0 0 0\nwindow 2\n"
                     + values.astype("<f4").tobytes())


@pytest.mark.parametrize("bad", [-1.0, np.inf, -np.inf, -0.5])
def test_slope_reader_rejects_cells_no_slope_can_hold(tmp_path, bad):
    values = np.array([[0.0, 0.5], [np.nan, bad]])
    path = tmp_path / "s.g2d"
    write_raw_slope(values, path)
    with pytest.raises(GridFormatError, match=rf"slope cell \(1, 1\) holds {bad}, neither "
                                              r"NaN \(absent\) nor a finite float32 >= 0"):
        read_slope(path)
    # the generic reader returns the planes as stored
    assert read_grid(path)[1][0][1, 1] == np.float32(bad)
    # the first bad cell in row-major order is named
    values[0, 1] = -2.0
    write_raw_slope(values, path)
    with pytest.raises(GridFormatError, match=r"slope cell \(0, 1\) holds -2.0"):
        read_slope(path)


@pytest.mark.parametrize("bad", [-1.0, -0.5, -1e-50, np.inf, -np.inf, 1e300,
                                 2.0**128 - 2.0**103])
def test_slope_writer_refuses_cells_the_reader_refuses(tmp_path, bad):
    # 2**128 - 2**103 is the smallest float64 that float32 rounds to inf
    values = np.array([[0.0, 0.5], [np.nan, bad]])
    smap = SlopeMap(0.1, (0.0, 0.0, 0.0), values, np.zeros((2, 2), bool), 2)
    path = tmp_path / "s.g2d"
    with pytest.raises(ValueError, match=re.escape(
            f"slope cell (1, 1) holds {bad}, neither NaN (absent) nor a finite "
            f"float32 >= 0")):
        write_slope(smap, path)
    assert not path.exists()
    # the largest float64 that float32 rounds to a finite value is written
    values[1, 1] = np.nextafter(2.0**128 - 2.0**103, 0.0)
    write_slope(smap, path)
    assert read_slope(path).values[1, 1] == np.finfo(np.float32).max


SLOPE_CELLS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 1e300, 2.0**128 - 2.0**103, 3.4028235e38]),
    st.floats(0.0, 1e39))


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)),
                     elements=SLOPE_CELLS))
def test_every_slope_file_written_reads_back(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("slope") / "s.g2d"
    smap = SlopeMap(0.1, (0.0, 0.0, 0.0), values, np.zeros(values.shape, bool), 2)
    with np.errstate(over="ignore"):
        cells = values.astype(np.float32)
    try:
        write_slope(smap, path)
    except ValueError as e:
        m, n = map(int, re.match(r"slope cell \((\d+), (\d+)\)", str(e)).groups())
        assert values[m, n] < 0.0 or np.isinf(cells[m, n])
        assert not path.exists()
        return
    assert np.array_equal(read_slope(path).values, cells, equal_nan=True)


_WRITERS = {
    "occupancy": lambda res, origin, extent, path: write_occupancy(
        OccupancyGrid("uav", res, origin, np.zeros(extent)), path),
    "height": lambda res, origin, extent, path: write_height(
        HeightMap.empty(res, origin, extent), True, path),
    "slope": lambda res, origin, extent, path: write_slope(
        SlopeMap(res, origin, np.zeros(extent), np.zeros(extent, bool), 2), path),
}


@pytest.mark.parametrize("which", list(_WRITERS))
@pytest.mark.parametrize("resolution, origin, extent, message", [
    (np.nan, (0.0, 0.0, 0.0), (2, 3), "resolution must be finite and positive, got nan"),
    (0.0, (0.0, 0.0, 0.0), (2, 3), "resolution must be finite and positive, got 0.0"),
    (-0.1, (0.0, 0.0, 0.0), (2, 3), "resolution must be finite and positive, got -0.1"),
    (np.inf, (0.0, 0.0, 0.0), (2, 3), "resolution must be finite and positive, got inf"),
    (0.1, (0.0, np.nan, 0.0), (2, 3), "non-finite origin"),
    (0.1, (0.0, 0.0, -np.inf), (2, 3), "non-finite origin"),
    (0.1, (0.0, 0.0, 0.0), (0, 3), "extent components must be >= 1, got (0, 3)"),
    (0.1, (0.0, 0.0, 0.0), (2, 0), "extent components must be >= 1, got (2, 0)"),
])
def test_grid_writers_refuse_a_geometry_the_reader_refuses(tmp_path, which, resolution,
                                                           origin, extent, message):
    path = tmp_path / "g.g2d"
    with pytest.raises(ValueError, match=re.escape(message)):
        _WRITERS[which](resolution, origin, extent, path)
    assert not path.exists()


@pytest.mark.parametrize("window", [0, -3, 2.0, True])
def test_slope_writer_refuses_a_window_the_reader_refuses(tmp_path, window):
    smap = SlopeMap(0.1, (0.0, 0.0, 0.0), np.zeros((1, 1)), np.zeros((1, 1), bool), window)
    path = tmp_path / "s.g2d"
    with pytest.raises(ValueError, match=re.escape(f"slope window must be an int >= 1, "
                                                   f"got {window!r}")):
        write_slope(smap, path)
    assert not path.exists()
