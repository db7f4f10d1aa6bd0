"""Byte-mutation fuzz of the VXG and G2D readers.

Valid files are mutated by Hypothesis (byte flips, overwrites, insertions,
deletions and truncation); a reader must then either return a value or
raise its typed error. Any other exception escaping is a reader bug. The VXG
reader and the generic G2D reader must also agree with their whole-file
reference readers: the same map or planes, or the same error class and
message. The VXG file is a box narrower than the extent, so mutations reach
the box line and every payload row.
Extents stay tiny, and an insertion adds at most three bytes, so a mutated
extent cannot ask for much memory.
"""
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import grid_outcome, load_outcome, load_voxel_map_reference, read_grid_reference
from voxflat import (ConversionParams, GridFormatError, VoxelMap, VoxelState, init,
                     load_voxel_map, read_grid, read_height, read_occupancy,
                     read_slope, save_voxel_map, write_height,
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
    # small_map in a larger extent: the box is rows 1-3, columns 2-3.
    states = np.zeros((5, 4, 12), np.uint8)
    states[1:4, 2:4] = small_map().states
    vmap = VoxelMap.from_states(0.1, (0.0, 0.0, 0.0), states)
    path = tmp_path_factory.mktemp("vxg") / "map.vxg"
    save_voxel_map(vmap, path)
    assert b"\nbox 1 4 2 4\n" in path.read_bytes()
    path.write_bytes(mutate(path.read_bytes(), mutations))
    got = load_outcome(load_voxel_map, path)
    assert got == load_outcome(load_voxel_map_reference, path)


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
    assert grid_outcome(read_grid, path) == grid_outcome(read_grid_reference, path)
    for reader in (read_occupancy, read_height, read_slope):
        try:
            reader(path)
        except GridFormatError:
            pass


def test_signalling_nan_in_a_height_payload_reads_as_absent(tmp_path):
    # Found by the G2D fuzz: converting a float32 signalling NaN to float64
    # raised numpy's "invalid value encountered in cast" warning.
    state = init(small_map(), ConversionParams(min_clearance=0.5, slope_window_m=0.1))
    assert state.height.floor_k[1, 1] == -1  # the occupied column is absent
    path = tmp_path / "height.g2d"
    write_height(state.height, True, path)
    data = bytearray(path.read_bytes())
    header = len(data) - 2 * 6 * 4
    for plane in (0, 1):  # cell (1, 1), flat index 3, of both planes
        at = header + (plane * 6 + 3) * 4
        data[at:at + 4] = b"\x01\x00\x80\x7f"
    path.write_bytes(bytes(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        height = read_height(path)
    # Heights snap back to the stored faces, so the map read equals the
    # converted one exactly.
    assert np.array_equal(height.floor_k, state.height.floor_k)
    assert np.array_equal(height.ceil_k, state.height.ceil_k)
    assert np.array_equal(height.floor, state.height.floor, equal_nan=True)
