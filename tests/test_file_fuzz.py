"""Byte-mutation fuzz of the VXG and G2D readers.

Valid files are mutated by Hypothesis (byte flips, overwrites, insertions,
deletions and truncation); a reader must then either return a value or
raise its typed error. Any other exception escaping is a reader bug.
Extents stay tiny, and an insertion adds at most three bytes, so a mutated
extent cannot ask for much memory.
"""
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from voxflat import (ConversionParams, GridFormatError, VoxelMap, VoxelState,
                     VxgError, init, load_voxel_map, read_grid, read_height,
                     read_occupancy, read_slope, save_voxel_map, write_height,
                     write_occupancy, write_slope)

# Half the positions fall in the first 96 bytes, where the headers are.
position = st.integers(0, 96) | st.integers(0, 10_000)
# Short byte strings a header field may turn into.
tokens = st.sampled_from([b"-", b"0", b"-1", b"nan", b"inf", b"1e9", b" ", b"\n",
                          b"\t", b"\xff", b"_", b"."])
mutation = st.one_of(
    st.tuples(st.just("flip"), position, st.integers(1, 255)),
    st.tuples(st.just("set"), position, st.integers(0, 255)),
    st.tuples(st.just("insert"), position, st.binary(min_size=1, max_size=2) | tokens),
    st.tuples(st.just("delete"), position, st.integers(1, 8)),
    st.tuples(st.just("truncate"), position, st.none()),
)


def mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for kind, at, arg in mutations:
        at %= len(out) + 1
        if kind == "insert":
            out[at:at] = arg
        elif kind == "truncate":
            del out[at:]
        elif at == len(out):
            continue
        elif kind == "flip":
            out[at] ^= arg
        elif kind == "set":
            out[at] = arg
        else:
            del out[at:at + arg]
    return bytes(out)


def small_map() -> VoxelMap:
    vmap = VoxelMap(0.1, (0.0, 0.0, 0.0), (3, 2, 12))
    vmap.fill_box(0, 3, 0, 2, 0, 1, VoxelState.OCCUPIED)
    vmap.fill_box(0, 3, 0, 2, 1, 12, VoxelState.FREE)
    vmap.fill_box(1, 2, 1, 2, 0, 12, VoxelState.OCCUPIED)
    return vmap


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(mutation, min_size=1, max_size=3))
def test_mutated_vxg_files_raise_only_vxg_errors(tmp_path_factory, mutations):
    path = tmp_path_factory.mktemp("vxg") / "map.vxg"
    save_voxel_map(small_map(), path)
    path.write_bytes(mutate(path.read_bytes(), mutations))
    try:
        load_voxel_map(path)
    except VxgError:
        pass


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(["uav", "ugv", "height", "slope"]),
       mutations=st.lists(mutation, min_size=1, max_size=3))
def test_mutated_g2d_files_raise_only_grid_format_errors(tmp_path_factory, which,
                                                         mutations):
    state = init(small_map(), ConversionParams(min_clearance=0.5, slope_window_m=0.1))
    path = tmp_path_factory.mktemp("g2d") / f"{which}.g2d"
    if which in ("uav", "ugv"):
        write_occupancy(getattr(state, which), path)
    elif which == "height":
        write_height(state.height, True, path)
    else:
        write_slope(state.slope, path)
    path.write_bytes(mutate(path.read_bytes(), mutations))
    for reader in (read_grid, read_occupancy, read_height, read_slope):
        try:
            reader(path)
        except GridFormatError:
            pass


def test_signalling_nan_in_a_height_payload_reads_as_absent(tmp_path):
    # Found by the G2D fuzz: converting a float32 signalling NaN to float64
    # raised numpy's "invalid value encountered in cast" warning.
    state = init(small_map(), ConversionParams(min_clearance=0.5, slope_window_m=0.1))
    path = tmp_path / "height.g2d"
    write_height(state.height, True, path)
    data = bytearray(path.read_bytes())
    data[-4:] = b"\x01\x00\x80\x7f"  # last ceiling cell: a signalling NaN
    path.write_bytes(bytes(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        height = read_height(path)
    assert np.isnan(height.ceiling[-1, -1])
    assert np.array_equal(height.floor, state.height.floor.astype("<f4"), equal_nan=True)
