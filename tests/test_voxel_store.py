import contextlib
import copy
import functools
import operator
import re
import tracemalloc
from enum import IntEnum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (load_outcome, load_voxel_map_reference, save_voxel_map_reference,
                     through_a_pipe)
from voxflat import (VoxelMap, VoxelState, VxgError, VxgHeaderError, VxgRecordError,
                     VxgTruncatedError, VxgVersionError, load_voxel_map,
                     save_voxel_map, voxel_store)

U, O, F = VoxelState.UNKNOWN, VoxelState.OCCUPIED, VoxelState.FREE


def random_map(rng, M=12, N=9, K=7, writes=60):
    vm = VoxelMap(0.1, (1.5, -2.0, 0.25), (M, N, K))
    updates = [(int(rng.integers(M)), int(rng.integers(N)), int(rng.integers(K)),
                VoxelState(int(rng.integers(0, 3)))) for _ in range(writes)]
    vm.apply_cells(updates)
    return vm


def test_empty_map_saves_header_only(tmp_path):
    vm = VoxelMap(0.1, (0, 0, 0), (10, 10, 10))
    path = tmp_path / "empty.vxg"
    save_voxel_map(vm, path)
    data = path.read_bytes()
    assert data == b"VXG 2\nres 0.1\norigin 0.0 0.0 0.0\nextent 10 10 10\nbox 0 0 0 0\n"
    loaded = load_voxel_map(path)
    assert loaded == vm
    assert loaded.column(3, 4).runs == ((0, 10, U),)


def test_single_record_column_runs(tmp_path):
    vm = VoxelMap(0.1, (0, 0, 0), (10, 10, 10))
    vm.apply_cells([(2, 3, 4, F)])
    path = tmp_path / "one.vxg"
    save_voxel_map(vm, path)
    loaded = load_voxel_map(path)
    assert loaded.column(2, 3).runs == ((0, 4, U), (4, 1, F), (5, 5, U))


def test_save_is_canonical_regardless_of_insertion_order(tmp_path):
    cells = [(5, 1, 2, O), (0, 0, 0, F), (5, 1, 1, F), (2, 7, 3, O)]
    a = VoxelMap(0.25, (0, 0, 0), (8, 8, 8))
    a.apply_cells(cells)
    b = VoxelMap(0.25, (0, 0, 0), (8, 8, 8))
    b.apply_cells(list(reversed(cells)))
    pa, pb = tmp_path / "a.vxg", tmp_path / "b.vxg"
    save_voxel_map(a, pa)
    save_voxel_map(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_round_trip_random_maps(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(30):
        vm = random_map(rng)
        path = tmp_path / f"m{trial}.vxg"
        save_voxel_map(vm, path)
        loaded = load_voxel_map(path)
        assert loaded == vm
        again = tmp_path / f"m{trial}_again.vxg"
        save_voxel_map(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_load_reads_a_pipe(tmp_path):
    vm = random_map(np.random.default_rng(3))
    save_voxel_map(vm, tmp_path / "map.vxg")
    data = (tmp_path / "map.vxg").read_bytes()
    load = functools.partial(load_outcome, load_voxel_map)
    assert through_a_pipe(tmp_path, data, load) == vm
    # A defect read through a pipe is named as in the file.
    header, payload = data.rsplit(b"\n", 1)
    for bad in (data[:-1], data + b"\x00", header + b"\n" + b"\x03" + payload[1:]):
        (tmp_path / "bad.vxg").write_bytes(bad)
        got = through_a_pipe(tmp_path, bad, load)
        assert got == load(tmp_path / "bad.vxg")
        assert isinstance(got, tuple) and issubclass(got[0], VxgError)


def test_header_errors_are_distinct(tmp_path):
    good = tmp_path / "good.vxg"
    save_voxel_map(VoxelMap(0.1, (0, 0, 0), (2, 2, 2)), good)
    base = good.read_bytes()

    bad = tmp_path / "bad.vxg"
    bad.write_bytes(b"XGV 1\n" + base.split(b"\n", 1)[1])
    with pytest.raises(VxgHeaderError):
        load_voxel_map(bad)

    bad.write_bytes(b"VXG 9\n" + base.split(b"\n", 1)[1])
    with pytest.raises(VxgVersionError):
        load_voxel_map(bad)

    # There is no VXG 1 reader: the old record format is refused by version.
    bad.write_bytes(b"VXG 1\nres 0.1\norigin 0.0 0.0 0.0\nextent 2 2 2\ncount 0\n")
    with pytest.raises(VxgVersionError, match="unsupported VXG version 1"):
        load_voxel_map(bad)

    for old, new in ((b"res 0.1", b"res zero"), (b"res 0.1", b"res nan"),
                     (b"res 0.1", b"res inf"), (b"origin 0.0 0.0 0.0", b"origin 0.0 nan 0.0")):
        bad.write_bytes(base.replace(old, new))
        with pytest.raises(VxgHeaderError):
            load_voxel_map(bad)

    # numpy refuses a 10^15-byte array at once, without touching memory
    bad.write_bytes(base.replace(b"extent 2 2 2", b"extent 1000000 1000000 1000"))
    with pytest.raises(VxgHeaderError, match="extent 1000000x1000000x1000"):
        load_voxel_map(bad)

    bad.write_bytes(base[:20])
    with pytest.raises(VxgHeaderError):  # header itself cut short
        load_voxel_map(bad)

    vm = VoxelMap(0.1, (0, 0, 0), (2, 2, 2))
    vm.apply_cells([(0, 0, 0, F)])
    save_voxel_map(vm, good)
    full = good.read_bytes()
    assert full.endswith(b"box 0 1 0 1\n\x02\x00")
    bad.write_bytes(full[:-1])
    with pytest.raises(VxgTruncatedError, match="expected 2 payload bytes, found 1"):
        load_voxel_map(bad)
    bad.write_bytes(full + b"\x00")
    with pytest.raises(VxgTruncatedError, match="expected 2 payload bytes, found 3"):
        load_voxel_map(bad)


def test_record_errors_carry_position(tmp_path):
    # A payload byte above 2 is named by its voxel, the first in C order
    # over the box, with the box's offset added back.
    header = b"VXG 2\nres 0.1\norigin 0.0 0.0 0.0\nextent 4 5 2\nbox 1 3 2 4\n"
    path = tmp_path / "rec.vxg"
    for at, value, voxel in ((0, 3, (1, 2, 0)), (5, 255, (2, 2, 1)), (7, 3, (2, 3, 1))):
        payload = bytearray(b"\x01\x02" * 4)
        payload[at] = value
        path.write_bytes(header + bytes(payload))
        message = rf"voxel \({voxel[0]}, {voxel[1]}, {voxel[2]}\): invalid state {value}$"
        with pytest.raises(VxgRecordError, match=message):
            load_voxel_map(path)
        assert load_outcome(load_voxel_map, path) == load_outcome(
            load_voxel_map_reference, path)
    # Two bad bytes in different box rows: the first is named.
    payload = bytearray(8)
    payload[6], payload[3] = 7, 255
    path.write_bytes(header + bytes(payload))
    with pytest.raises(VxgRecordError, match=r"voxel \(1, 3, 1\): invalid state 255"):
        load_voxel_map(path)


def test_save_writes_golden_bytes_in_ijk_order(tmp_path):
    records = [(0, 1, 3, 1), (1, 0, 0, 2), (1, 0, 2, 1), (1, 1, 0, 2), (2, 1, 1, 2)]
    vm = VoxelMap(0.25, (-1.0, 0.5, 0.0), (3, 2, 4))
    vm.apply_cells([(i, j, k, VoxelState(s)) for i, j, k, s in reversed(records)])
    path = tmp_path / "golden.vxg"
    save_voxel_map(vm, path)
    assert path.read_bytes() == (
        b"VXG 2\nres 0.25\norigin -1.0 0.5 0.0\nextent 3 2 4\nbox 0 3 0 2\n"
        # (i, j) = (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1); k = 0..3 each
        b"\x00\x00\x00\x00" b"\x00\x00\x00\x01" b"\x02\x00\x01\x00"
        b"\x02\x00\x00\x00" b"\x00\x00\x00\x00" b"\x00\x02\x00\x00")
    # One voxel: the box is its column, and only that column is stored.
    vm = VoxelMap(0.5, (0.0, 0.0, 0.0), (3, 4, 3))
    vm.apply_cells([(2, 1, 1, O)])
    save_voxel_map(vm, path)
    assert path.read_bytes() == (
        b"VXG 2\nres 0.5\norigin 0.0 0.0 0.0\nextent 3 4 3\nbox 2 3 1 2\n\x00\x01\x00")


def test_column_runs_merge_and_split():
    vm = VoxelMap(0.1, (0, 0, 0), (4, 4, 5))
    vm.apply_cells([(1, 1, 1, F), (1, 1, 2, F), (1, 1, 3, O)])
    assert vm.column(1, 1).runs == ((0, 1, U), (1, 2, F), (3, 1, O), (4, 1, U))
    # adjacent equal-state writes merge into one run
    vm.apply_cells([(1, 1, 3, F)])
    assert vm.column(1, 1).runs == ((0, 1, U), (1, 3, F), (4, 1, U))


def test_column_out_of_range():
    vm = VoxelMap(0.1, (0, 0, 0), (4, 4, 5))
    with pytest.raises(IndexError):
        vm.column(4, 0)
    with pytest.raises(IndexError):
        vm.column(0, -1)


@pytest.mark.parametrize("box", [(0, 5, 0, 4, 0, 5), (-1, 1, 0, 4, 0, 5),
                                 (2, 1, 0, 4, 0, 5), (0, 4, 0, 4, 3, 6)])
def test_fill_box_out_of_range(box):
    vm = VoxelMap(0.1, (0, 0, 0), (4, 4, 5))
    with pytest.raises(IndexError, match=r"outside extent 4x4x5"):
        vm.fill_box(*box, VoxelState.FREE)
    assert vm.cell_count() == 0


def test_runs_partition_height_for_random_columns():
    rng = np.random.default_rng(5)
    for _ in range(50):
        vm = random_map(rng, M=3, N=3, K=17, writes=40)
        for m in range(3):
            for n in range(3):
                runs = vm.column(m, n).runs
                assert runs[0][0] == 0
                assert sum(r[1] for r in runs) == 17
                for (s0, l0, st0), (s1, _, st1) in zip(runs, runs[1:]):
                    assert s1 == s0 + l0
                    assert st0 != st1


def cells(dirty) -> set[tuple[int, int]]:
    """The (rows, cols) arrays apply_cells returns, as a set of columns."""
    return set(zip(*map(np.ndarray.tolist, dirty)))


def test_apply_cells_dirty_semantics():
    vm = VoxelMap(0.1, (0, 0, 0), (6, 6, 6))
    assert cells(vm.apply_cells([])) == set()
    dirty = vm.apply_cells([(1, 1, 0, F), (1, 1, 1, F), (2, 2, 0, O)])
    assert cells(dirty) == {(1, 1), (2, 2)}
    # rewriting a cell with its current state still marks the column dirty
    assert cells(vm.apply_cells([(1, 1, 0, F)])) == {(1, 1)}


def test_apply_cells_returns_sorted_unique_index_arrays():
    vm = VoxelMap(0.1, (0, 0, 0), (6, 6, 6))
    rows, cols = vm.apply_cells([(4, 0, 1, F), (1, 5, 0, O), (4, 0, 2, F),
                                 (1, 2, 3, F), (0, 3, 0, O)])
    assert rows.dtype == cols.dtype == np.int64
    assert rows.tolist() == [0, 1, 1, 4]
    assert cols.tolist() == [3, 2, 5, 0]
    rows, cols = vm.apply_cells([])
    assert rows.shape == cols.shape == (0,)


def test_apply_cells_last_write_wins_for_repeated_voxels():
    vm = VoxelMap(0.1, (0, 0, 0), (2, 2, 2))
    vm.apply_cells([(0, 0, 0, F), (0, 0, 0, O), (1, 1, 1, O), (0, 0, 0, U),
                    (1, 1, 1, F)])
    assert vm.states[[0, 1], [0, 1], [0, 1]].tolist() == [U, F]
    # a batch long enough for numpy's general indexing loops
    rng = np.random.default_rng(3)
    voxels = rng.integers(0, 2, (20000, 3))
    states = rng.integers(0, 3, 20000)
    vm.apply_cells([(*v, s) for v, s in zip(voxels.tolist(), states.tolist())])
    last = {tuple(v): s for v, s in zip(voxels.tolist(), states.tolist())}
    assert all(vm.states[v] == s for v, s in last.items())


def test_apply_cells_bool_index_acts_as_its_integer():
    vm = VoxelMap(0.1, (0, 0, 0), (3, 3, 4))
    dirty = vm.apply_cells([(True, 0, 1, F)])
    assert cells(dirty) == {(1, 0)}
    expected = np.zeros((3, 3, 4), np.uint8)
    expected[1, 0, 1] = F
    assert np.array_equal(vm.states, expected)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("value", [1.5, 1.0, 2.7, "1", None])
def test_apply_cells_rejects_non_integer_fields_without_mutating(field, value):
    vm = VoxelMap(0.1, (0, 0, 0), (3, 3, 4))
    bad = [0, 1, 1, 1]
    bad[field] = value
    with pytest.raises(TypeError, match="update 1"):
        vm.apply_cells([(0, 0, 0, O), tuple(bad)])
    assert vm.cell_count() == 0


def test_apply_cells_rejects_malformed_records():
    vm = VoxelMap(0.1, (0, 0, 0), (3, 3, 4))
    with pytest.raises(ValueError, match="update 1: expected 4 integers"):
        vm.apply_cells([(0, 0, 0, O), (0, 0, 1)])
    with pytest.raises(ValueError, match="update 0: expected 4 integers"):
        vm.apply_cells([(0, 0, 0, O, 1)])
    with pytest.raises(TypeError, match="update 2"):
        vm.apply_cells([(0, 0, 0, O), (0, 0, 1, O), 5])
    with pytest.raises(IndexError, match=r"update 1: voxel \(0, 0, 100000000000000000000\)"):
        vm.apply_cells([(0, 0, 0, O), (0, 0, 10**20, O)])
    with pytest.raises(ValueError, match="update 0: invalid voxel state -1"):
        vm.apply_cells([(0, 0, 0, -1)])
    assert vm.cell_count() == 0


def test_apply_cells_rejects_bad_updates_without_mutating():
    vm = VoxelMap(0.1, (0, 0, 0), (6, 6, 6))
    vm.apply_cells([(0, 0, 0, F)])
    with pytest.raises(IndexError, match="update 1"):
        vm.apply_cells([(1, 1, 1, F), (6, 0, 0, O)])
    assert vm.states[1, 1, 1] == U  # batch rejected before any write


def test_apply_cells_touches_only_reported_columns():
    rng = np.random.default_rng(7)
    for _ in range(20):
        vm = random_map(rng, M=8, N=8, K=6, writes=30)
        before = {(m, n): vm.states[m, n].tolist()
                  for m in range(8) for n in range(8)}
        updates = [(int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(6)),
                    VoxelState(int(rng.integers(0, 3)))) for _ in range(5)]
        dirty = cells(vm.apply_cells(updates))
        for m in range(8):
            for n in range(8):
                if (m, n) not in dirty:
                    now = vm.states[m, n].tolist()
                    assert now == before[(m, n)]


def test_erasing_all_cells_restores_equality_with_fresh_map():
    vm = VoxelMap(0.1, (0, 0, 0), (4, 4, 4))
    vm.apply_cells([(1, 2, 3, O), (1, 2, 2, F)])
    vm.apply_cells([(1, 2, 3, U), (1, 2, 2, U)])
    assert vm == VoxelMap(0.1, (0, 0, 0), (4, 4, 4))


@pytest.mark.parametrize("state, error", [(7, ValueError), (3, ValueError),
                                          (-1, ValueError), (2.7, TypeError),
                                          ("2", TypeError), (None, TypeError),
                                          (np.float64(1.0), TypeError)])
def test_fill_box_rejects_a_bad_state_and_writes_nothing(state, error):
    vm = VoxelMap(0.1, (0, 0, 0), (4, 4, 5))
    vm.fill_box(0, 4, 0, 4, 0, 2, O)
    before = copy.deepcopy(vm)
    with pytest.raises(error, match=re.escape(repr(state))):
        vm.fill_box(0, 1, 0, 1, 0, 2, state)
    assert vm == before


def test_fill_box_takes_any_integer_state(tmp_path):
    # IntEnum members, Python and numpy ints, and bool as its integer; the
    # saved map loads back
    vm = VoxelMap(0.1, (0, 0, 0), (4, 4, 5))
    for j, state in enumerate((F, 1, np.uint8(2), True)):
        vm.fill_box(0, 4, j, j + 1, 0, 3, state)
    assert vm.states[0, :, 0].tolist() == [2, 1, 2, 1]
    save_voxel_map(vm, tmp_path / "m.vxg")
    assert load_voxel_map(tmp_path / "m.vxg") == vm


def test_fill_box_matches_apply_cells():
    a = VoxelMap(0.1, (0, 0, 0), (6, 5, 4))
    b = VoxelMap(0.1, (0, 0, 0), (6, 5, 4))
    a.fill_box(1, 4, 2, 5, 0, 3, F)
    b.apply_cells([(i, j, k, F) for i in range(1, 4)
                   for j in range(2, 5) for k in range(0, 3)])
    assert a == b


def test_constructor_validation():
    with pytest.raises(ValueError):
        VoxelMap(0.0, (0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        VoxelMap(0.1, (0, 0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        VoxelMap(0.1, (0, 0), (1, 1, 1))


@settings(max_examples=150, deadline=None)
@given(dtype=st.sampled_from([np.uint8, np.int8, np.int16, np.dtype(">i2"), np.int64,
                              np.bool_]),
       shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6)),
       flip=st.booleans(), data=st.data())
def test_from_states_is_a_checked_copy_of_the_array(tmp_path_factory, dtype, shape,
                                                     flip, data):
    elements = st.booleans() if dtype == np.bool_ else st.integers(0, 2)
    states = data.draw(hnp.arrays(dtype, shape, elements=elements))
    if flip:  # a strided view reads the same way
        states = states[::-1, :, ::-1]
    want = states.astype(np.uint8)  # a bool array acts as its integers
    vm = VoxelMap.from_states(0.1, (0.5, -1.0, 0.0), states)
    assert vm.extent == shape and vm.states.dtype == np.uint8
    assert np.array_equal(vm.states, want)
    assert not np.shares_memory(vm.states, states)
    states[...] = 1  # later writes to the array do not reach the map
    assert np.array_equal(vm.states, want)
    path = tmp_path_factory.mktemp("vxg") / "map.vxg"
    save_voxel_map(vm, path)
    assert load_voxel_map(path) == vm
    # the same map, written voxel by voxel from the array's nonzero voxels
    ref = VoxelMap(0.1, (0.5, -1.0, 0.0), shape)
    i, j, k = np.nonzero(want)
    ref.apply_cells(np.column_stack((i, j, k, want[i, j, k])))
    assert ref == vm


@pytest.mark.parametrize("value", [-1, 3, 255])
def test_from_states_names_a_bad_state_as_the_vxg_reader_does(tmp_path, value):
    # The observed box is rows 1-2, columns 2-3; its first bad voxel in C
    # order is (2, 3, 0), and a second one follows it.
    states = np.zeros((4, 5, 2), np.int16)
    states[1:3, 2:4] = 1
    states[2, 3] = value, 7
    with pytest.raises(ValueError, match=rf"^voxel \(2, 3, 0\): invalid state {value}$"):
        VoxelMap.from_states(0.1, (0.0, 0.0, 0.0), states)
    # The same box as a VXG payload and as a uint8 array: the same words.
    as_bytes = states.astype(np.uint8)
    path = tmp_path / "rec.vxg"
    path.write_bytes(b"VXG 2\nres 0.1\norigin 0.0 0.0 0.0\nextent 4 5 2\nbox 1 3 2 4\n"
                     + as_bytes[1:3, 2:4].tobytes())
    with pytest.raises(VxgRecordError) as from_file:
        voxel_store.read_voxel_map(path)
    with pytest.raises(ValueError) as from_array:
        VoxelMap.from_states(0.1, (0.0, 0.0, 0.0), as_bytes)
    assert type(from_array.value) is ValueError
    assert str(from_file.value) == str(from_array.value) == (
        f"voxel (2, 3, 0): invalid state {value & 0xFF}")


@pytest.mark.parametrize("states, error, message", [
    (np.zeros((2, 3), np.uint8), ValueError,
     r"states must be an \(M, N, K\) array, got shape \(2, 3\)"),
    (np.zeros((1, 2, 3, 1), np.uint8), ValueError, r"got shape \(1, 2, 3, 1\)"),
    (np.uint8(1), ValueError, r"got shape \(\)"),
    (np.zeros((2, 2, 2)), TypeError, "states must be an integer array, got dtype float64"),
    (np.ones((2, 2, 2), np.float32), TypeError, "got dtype float32"),
    (np.zeros((2, 2, 2), object), TypeError, "got dtype object"),
    (np.full((2, 2, 2), "1"), TypeError, "got dtype <U1"),
    (np.zeros((0, 2, 2), np.uint8), ValueError, "extent components must be >= 1"),
], ids=["2d", "4d", "0d", "float64", "float32", "object", "str", "empty"])
def test_from_states_refuses_other_arrays(states, error, message):
    with pytest.raises(error, match=message):
        VoxelMap.from_states(0.1, (0.0, 0.0, 0.0), states)


def test_from_states_checks_the_geometry():
    states = np.zeros((2, 2, 2), np.uint8)
    with pytest.raises(ValueError, match="resolution must be finite and positive"):
        VoxelMap.from_states(0.0, (0.0, 0.0, 0.0), states)
    with pytest.raises(ValueError, match="origin must have three coordinates"):
        VoxelMap.from_states(0.1, (0.0, 0.0), states)


@st.composite
def voxel_scripts(draw):
    """An extent plus a list of apply_cells batches and fill_box calls."""
    M, N, K = draw(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 8)))
    state = st.integers(0, 2)
    update = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1),
                       st.integers(0, K - 1), state)

    def span(n):
        return st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)

    op = st.one_of(st.tuples(st.just("apply"), st.lists(update, max_size=12)),
                   st.tuples(st.just("box"), st.tuples(span(M), span(N), span(K), state)))
    return (M, N, K), draw(st.lists(op, max_size=8))


@settings(max_examples=150, deadline=None)
@given(voxel_scripts())
def test_voxel_map_matches_a_plain_array(tmp_path_factory, script):
    extent, ops = script
    M, N, K = extent
    vm = VoxelMap(0.1, (0.0, 0.0, 0.0), extent)
    ref = np.zeros(extent, dtype=np.uint8)
    for kind, args in ops:
        if kind == "apply":
            dirty = vm.apply_cells([(i, j, k, VoxelState(s)) for i, j, k, s in args])
            for i, j, k, s in args:
                ref[i, j, k] = s
            assert cells(dirty) == {(i, j) for i, j, _, _ in args}
        else:
            (i0, i1), (j0, j1), (k0, k1), s = args
            vm.fill_box(i0, i1, j0, j1, k0, k1, VoxelState(s))
            ref[i0:i1, j0:j1, k0:k1] = s

        assert vm.cell_count() == np.count_nonzero(ref)
        assert list(vm.nonempty_columns()) == [
            (m, n) for m in range(M) for n in range(N) if ref[m, n].any()]
        for m in range(M):
            for n in range(N):
                starts, lengths, states = zip(*vm.column(m, n).runs)
                assert np.array_equal(np.repeat(states, lengths), ref[m, n])
                assert list(starts) == [sum(lengths[:r]) for r in range(len(lengths))]

    path = tmp_path_factory.mktemp("vxg") / "map.vxg"
    save_voxel_map(vm, path)
    loaded = load_voxel_map(path)
    assert loaded == vm
    assert np.array_equal(loaded.states, ref)


_INT_TYPES = (int, np.int64, np.int32, np.uint16, np.intp)


@st.composite
def write_batches(draw):
    """An extent, a prior map, and a batch that may hold one bad record.

    Indices come from a small range, so batches repeat voxels; fields come as
    Python or numpy integers, and states include Unknown (an erase).
    """
    M, N, K = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6)))
    prior = draw(st.lists(st.integers(0, 2), min_size=M * N * K, max_size=M * N * K))
    as_int = st.sampled_from(_INT_TYPES)
    record = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1),
                       st.integers(0, K - 1), st.integers(0, 2))
    batch = [tuple(draw(as_int)(v) for v in r)
             for r in draw(st.lists(record, max_size=25))]
    bad = draw(st.none() | st.sampled_from([
        (IndexError, (M, 0, 0, 1)), (IndexError, (0, -1, 0, 1)),
        (IndexError, (0, 0, K, 2)), (ValueError, (0, 0, 0, 3)),
        (ValueError, (0, 0, 0, -1)), (TypeError, (0, 0.0, 0, 1)),
        (TypeError, (0, 0, 0, 2.7)), (TypeError, ("0", 0, 0, 1)),
        (TypeError, (0, 0, None, 1)), (ValueError, (0, 0, 0))]))
    if bad is not None:
        pos = draw(st.integers(0, len(batch)))
        batch.insert(pos, bad[1])
        bad = (bad[0], pos)
    return (M, N, K), np.array(prior, np.uint8).reshape(M, N, K), batch, bad


def batch_forms(batch):
    """The batch as drawn and, when every record is four integers, as (n, 4)
    int32 and int64 arrays."""
    yield batch
    if all(len(r) == 4 and all(isinstance(v, (int, np.integer)) for v in r) for r in batch):
        for dtype in (np.int32, np.int64):
            yield np.array(batch, dtype).reshape(-1, 4)


def apply_outcome(prior, batch):
    """(states, rows dtype, rows, cols dtype, cols) after apply_cells on a map
    holding prior, or (error type, message, states) if it raised. An array
    batch must come back unchanged and unshared by the dirty arrays."""
    vm = VoxelMap.from_states(0.1, (0.0, 0.0, 0.0), prior)
    given = batch.copy() if isinstance(batch, np.ndarray) else None
    try:
        rows, cols = vm.apply_cells(batch)
    except (TypeError, ValueError, IndexError) as exc:
        return type(exc), str(exc), vm.states.tolist()
    if given is not None:
        assert np.array_equal(batch, given) and batch.dtype == given.dtype
        assert not np.shares_memory(rows, batch) and not np.shares_memory(cols, batch)
    return vm.states.tolist(), rows.dtype, rows.tolist(), cols.dtype, cols.tolist()


@settings(max_examples=300, deadline=None)
@given(write_batches())
def test_apply_cells_matches_a_per_voxel_loop(case):
    extent, prior, batch, bad = case
    # Tuples and integer arrays of the same batch give the same states and
    # dirty columns, or the same error with the same message.
    outcome, *others = [apply_outcome(prior, form) for form in batch_forms(batch)]
    assert all(other == outcome for other in others)
    if bad is not None:
        error, pos = bad
        assert outcome[0] is error and outcome[1].startswith(f"update {pos}: ")
        assert outcome[2] == prior.tolist()
        return
    ref = prior.copy()
    for i, j, k, s in batch:  # in order, so the last write wins
        ref[i, j, k] = s
    states, _, rows, _, cols = outcome
    assert states == ref.tolist()
    assert list(zip(rows, cols)) == sorted({(int(i), int(j)) for i, j, _, _ in batch})


def test_apply_cells_errors_print_plain_ints():
    vm = VoxelMap(0.1, (0, 0, 0), (3, 3, 4))
    for batch in ([(0, 0, 0, O), (np.int32(1), np.int64(2), np.uint8(9), np.int32(1))],
                  np.array([(0, 0, 0, 1), (1, 2, 9, 1)], np.int32)):
        with pytest.raises(IndexError, match=r"^update 1: voxel \(1, 2, 9\) outside "):
            vm.apply_cells(batch)
    for batch in ([(0, 0, 0, O), (1, 2, 3, np.int32(5))],
                  np.array([(0, 0, 0, 1), (1, 2, 3, 5)], np.int32)):
        with pytest.raises(ValueError, match="^update 1: invalid voxel state 5$"):
            vm.apply_cells(batch)
    assert vm.cell_count() == 0


def test_apply_cells_bool_array_acts_as_its_integers():
    # A bool array is read as tuples of Python bools, and bool fields act as
    # their integers.
    batch = np.array([(True, False, True, True), (False, True, False, False),
                      (True, True, True, True)])
    as_tuples = [tuple(r) for r in batch.tolist()]
    assert (apply_outcome(np.zeros((2, 2, 2), np.uint8), batch)
            == apply_outcome(np.zeros((2, 2, 2), np.uint8), as_tuples))
    vm = VoxelMap(0.1, (0, 0, 0), (2, 2, 2))
    assert cells(vm.apply_cells(batch)) == {(0, 1), (1, 0), (1, 1)}
    assert vm.states[1, 1, 1] == O and vm.states[0, 1, 0] == U


@pytest.mark.parametrize("batch, error, message", [
    (np.array([(0, 0, 0, 1), (0, 1, 0, 2.5)]), TypeError, "update 0: expected 4 "
     "integers, got (0.0, 0.0, 0.0, 1.0)"),
    (np.array([(0, 0, 0, 1)], np.float32), TypeError, "update 0: expected 4 integers, "
     "got (0.0, 0.0, 0.0, 1.0)"),
    (np.array([(0, 0, 0, 1), (0, 1, 0, "2")], object), TypeError, "update 1: expected 4 "
     "integers, got (0, 1, 0, '2')"),
    (np.array([(0, 0, 0, 1), (0, 1, 0, None)], object), TypeError, "update 1: expected 4 "
     "integers, got (0, 1, 0, None)"),
    (np.array([(0, 0, 0), (0, 1, 0)], np.int64), ValueError, "update 0: expected 4 "
     "integers, got (0, 0, 0)"),
    (np.array([0, 0, 0, 1], np.int64), TypeError, "update 0: expected 4 integers, got 0"),
], ids=["float64", "float32", "object-str", "object-none", "width-3", "one-dimensional"])
def test_apply_cells_other_arrays_follow_the_tuple_rules(batch, error, message):
    as_tuples = [tuple(r) for r in batch.tolist()] if batch.ndim == 2 else batch.tolist()
    prior = np.zeros((2, 2, 2), np.uint8)
    outcome = apply_outcome(prior, batch)
    assert outcome == apply_outcome(prior, as_tuples)
    assert outcome == (error, message, prior.tolist())


# -- int_records against a per-field oracle ----------------------------------

class Small(IntEnum):
    TWO = 2


_INT64 = st.integers(-2**63, 2**63 - 1)
int_fields = st.one_of(
    _INT64, st.integers(-2**70, 2**70), st.booleans(), st.sampled_from([Small.TWO, F]),
    _INT64.map(np.int64), st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64), st.integers(0, 255).map(np.uint8))


def field_oracle(v):
    v = operator.index(v)
    return v if -2**63 <= v < 2**63 else min(max(v, -1), 2**62)


def assert_fresh_int64(out, n, width):
    assert out.dtype == np.int64 and out.shape == (n, width)
    assert out.flags.c_contiguous and out.flags.writeable


@settings(max_examples=300, deadline=None)
@given(width=st.sampled_from([2, 4]), data=st.data())
def test_int_records_matches_a_per_field_oracle(width, data):
    records = data.draw(st.lists(st.lists(int_fields, min_size=width, max_size=width)
                                 .map(tuple), max_size=12))
    out = voxel_store.int_records(records, width, "rec")
    assert_fresh_int64(out, len(records), width)
    assert out.tolist() == [[field_oracle(v) for v in r] for r in records]
    out[...] = 0  # writable without touching anything the caller holds
    bad = data.draw(st.one_of(
        st.tuples(st.just(TypeError), st.sampled_from([1.5, 2.0, "1", None, np.float64(1)])),
        st.tuples(st.just(ValueError), st.sampled_from([width - 1, width + 1]))))
    pos = data.draw(st.integers(0, len(records)))
    if bad[0] is TypeError:
        record = list(data.draw(st.lists(int_fields, min_size=width, max_size=width)))
        record[data.draw(st.integers(0, width - 1))] = bad[1]
    else:
        record = data.draw(st.lists(int_fields, min_size=bad[1], max_size=bad[1]))
    records.insert(pos, tuple(record))
    message = f"rec {pos}: expected {width} integers, got {tuple(record)!r}"
    with pytest.raises(bad[0]) as info:
        voxel_store.int_records(records, width, "rec")
    assert str(info.value) == message


@settings(max_examples=200, deadline=None)
@given(width=st.sampled_from([2, 4]), data=st.data())
def test_int_records_of_an_array_is_its_records(width, data):
    dtype = data.draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8,
                                       np.uint32, np.uint64, np.bool_]))
    n = data.draw(st.integers(0, 8))
    array = data.draw(hnp.arrays(dtype, (n, width)))
    if data.draw(st.booleans()):
        array = np.asfortranarray(array)
    given = array.copy()
    out = voxel_store.int_records(array, width, "rec")
    assert_fresh_int64(out, n, width)
    assert not np.shares_memory(out, array)
    assert np.array_equal(array, given)
    as_tuples = [tuple(r) for r in array.tolist()]
    assert out.tolist() == voxel_store.int_records(as_tuples, width, "rec").tolist()


def test_int_records_of_nothing():
    for width in (2, 4):
        for records in ([], (), np.empty((0, width), np.int32), np.empty((0, width))):
            assert_fresh_int64(voxel_store.int_records(records, width, "rec"), 0, width)


# -- VXG codec against the whole-file reference -----------------------------

def vxg_slabs_of(slab_bytes: int | None):
    """Set the bytes per slab save_voxel_map copies from a box that is not
    contiguous (None: keep the default), so small maps cross slabs."""
    if slab_bytes is None:
        return contextlib.nullcontext()
    return mock.patch.object(voxel_store, "_SLAB_BYTES", slab_bytes)


# Small slabs put slab boundaries inside tiny maps (1: one box row per slab).
slab_sizes = st.sampled_from([1, 8, 40, None])


def assert_codec_matches_the_reference(vm, folder):
    """Saved bytes equal the reference's, both readers load the map back,
    and saving the loaded map gives the same bytes."""
    save_voxel_map(vm, folder / "map.vxg")
    save_voxel_map_reference(vm, folder / "ref.vxg")
    data = (folder / "map.vxg").read_bytes()
    assert data == (folder / "ref.vxg").read_bytes()
    loaded = load_voxel_map(folder / "map.vxg")
    assert loaded == vm
    assert load_voxel_map_reference(folder / "map.vxg") == vm
    save_voxel_map(loaded, folder / "again.vxg")
    assert (folder / "again.vxg").read_bytes() == data
    return data


@settings(max_examples=150, deadline=None)
@given(extent=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 9)),
       density=st.sampled_from([0.0, 0.3, 1.0]), slab=slab_sizes,
       seed=st.integers(0, 2**32 - 1))
def test_blocked_codec_matches_the_reference(tmp_path_factory, extent, density,
                                             slab, seed):
    rng = np.random.default_rng(seed)
    present = rng.random(extent) < density
    states = np.where(present, rng.integers(1, 3, extent, dtype=np.uint8), 0)
    vm = VoxelMap.from_states(0.1, (0.5, -1.0, 0.0), states)
    with vxg_slabs_of(slab):
        assert_codec_matches_the_reference(vm, tmp_path_factory.mktemp("vxg"))


@st.composite
def embedded_maps(draw):
    """A small random block of voxels at a random offset in a larger extent,
    and the block's box; all-Unknown maps, one voxel in a corner of the
    extent and blocks filling the whole extent are drawn on purpose."""
    M, N, K = extent = draw(st.tuples(st.integers(1, 7), st.integers(1, 7),
                                      st.integers(1, 5)))
    states = np.zeros(extent, np.uint8)
    kind = draw(st.sampled_from(["empty", "corner", "full", "block"]))
    if kind == "empty":
        return VoxelMap.from_states(0.2, (-0.5, 0.25, 1.0), states), None
    if kind == "corner":
        i, j = draw(st.sampled_from([0, M - 1])), draw(st.sampled_from([0, N - 1]))
        states[i, j, draw(st.integers(0, K - 1))] = draw(st.integers(1, 2))
        return VoxelMap.from_states(0.2, (-0.5, 0.25, 1.0), states), (i, i + 1, j, j + 1)
    m0, n0 = (0, 0) if kind == "full" else (draw(st.integers(0, M - 1)),
                                           draw(st.integers(0, N - 1)))
    m1, n1 = (M, N) if kind == "full" else (draw(st.integers(m0 + 1, M)),
                                           draw(st.integers(n0 + 1, N)))
    block = draw(hnp.arrays(np.uint8, (m1 - m0, n1 - n0, K), elements=st.integers(0, 2)))
    # An observed voxel on each of the block's four sides makes it the box.
    rows, cols = st.integers(0, m1 - m0 - 1), st.integers(0, n1 - n0 - 1)
    for i, j in ((0, draw(cols)), (-1, draw(cols)), (draw(rows), 0), (draw(rows), -1)):
        block[i, j, draw(st.integers(0, K - 1))] = draw(st.integers(1, 2))
    states[m0:m1, n0:n1] = block
    return VoxelMap.from_states(0.2, (-0.5, 0.25, 1.0), states), (m0, m1, n0, n1)


@settings(max_examples=200, deadline=None)
@given(case=embedded_maps(), slab=slab_sizes)
def test_saved_box_is_the_observed_box(tmp_path_factory, case, slab):
    vm, box = case
    with vxg_slabs_of(slab):
        data = assert_codec_matches_the_reference(vm, tmp_path_factory.mktemp("vxg"))
    m0, m1, n0, n1 = box or (0, 0, 0, 0)
    header = f"\nbox {m0} {m1} {n0} {n1}\n".encode("ascii")
    assert data.endswith(header + vm.states[m0:m1, n0:n1].tobytes())


def test_codec_matches_the_reference_beyond_one_default_block(tmp_path):
    # A box one column narrower than the extent on each side is not
    # contiguous in the map, and at 1.47 MB it spans two default slabs.
    rng = np.random.default_rng(5)
    states = np.zeros((120, 130, 96), np.uint8)
    states[:, 1:129] = rng.integers(0, 3, (120, 128, 96), dtype=np.uint8)
    vm = VoxelMap.from_states(0.05, (0.0, 0.0, -1.0), states)
    box = vm.states[:, 1:129]
    assert not box.flags.c_contiguous and box.nbytes > voxel_store._SLAB_BYTES
    data = assert_codec_matches_the_reference(vm, tmp_path)
    assert b"\nbox 0 120 1 129\n" in data


@st.composite
def defective_files(draw):
    """A VXG 2 file whose box may leave the extent or run backwards, whose
    payload may be a byte short or long, and whose bytes may hold values
    above 2."""
    M, N, K = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    m0, m1 = sorted(draw(st.lists(st.integers(-1, M + 1), min_size=2, max_size=2)),
                    reverse=draw(st.booleans()))
    n0, n1 = sorted(draw(st.lists(st.integers(-1, N + 1), min_size=2, max_size=2)),
                    reverse=draw(st.booleans()))
    size = max(0, m1 - m0) * max(0, n1 - n0) * K + draw(st.sampled_from([0, 0, 0, -1, 1]))
    payload = draw(st.lists(st.sampled_from([0, 1, 2, 2, 3, 255]), min_size=max(0, size),
                            max_size=max(0, size)))
    return (f"VXG 2\nres 0.1\norigin 0.0 0.0 0.0\nextent {M} {N} {K}\n"
            f"box {m0} {m1} {n0} {n1}\n").encode("ascii") + bytes(payload)


@settings(max_examples=300, deadline=None)
@given(data=defective_files())
def test_blocked_load_names_the_reference_defect(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("vxg") / "rec.vxg"
    path.write_bytes(data)
    assert load_outcome(load_voxel_map, path) == load_outcome(
        load_voxel_map_reference, path)


@pytest.mark.parametrize("box, payload, error, message", [
    ("0 2 0 3", b"\x01" * 6, VxgHeaderError, r"box \[0,2\)x\[0,3\) is not a box inside extent 3x2"),
    ("2 1 0 1", b"", VxgHeaderError, r"box \[2,1\)x\[0,1\) is not a box"),
    ("0 1 1 0", b"", VxgHeaderError, r"box \[0,1\)x\[1,0\) is not a box"),
    ("-1 1 0 1", b"\x01" * 8, VxgHeaderError, r"box \[-1,1\)x\[0,1\) is not a box"),
    ("1 3 0 2", b"\x01" * 15, VxgTruncatedError, "expected 16 payload bytes, found 15"),
    ("1 3 0 2", b"\x01" * 17, VxgTruncatedError, "expected 16 payload bytes, found 17"),
    ("1 1 0 2", b"\x01", VxgTruncatedError, "expected 0 payload bytes, found 1"),
])
def test_vxg_box_and_payload_defects(tmp_path, box, payload, error, message):
    path = tmp_path / "map.vxg"
    path.write_bytes(b"VXG 2\nres 0.1\norigin 0.0 0.0 0.0\nextent 3 2 4\nbox "
                     + box.encode("ascii") + b"\n" + payload)
    with pytest.raises(error, match=message):
        load_voxel_map(path)
    assert load_outcome(load_voxel_map, path) == load_outcome(load_voxel_map_reference, path)


def test_out_of_range_records_win_over_an_unallocatable_extent(tmp_path):
    # The box and the payload length are checked before the map is
    # allocated, so a file naming a huge extent fails on them, not on memory.
    path = tmp_path / "rec.vxg"
    header = b"VXG 2\nres 0.1\norigin 0.0 0.0 0.0\nextent 1000000 1000000 1000\n"
    path.write_bytes(header + b"box 0 1 0 1000001\n")
    with pytest.raises(VxgHeaderError, match="is not a box inside extent"):
        load_voxel_map(path)
    path.write_bytes(header + b"box 0 1 0 1\n" + b"\x01" * 999)
    with pytest.raises(VxgTruncatedError, match="expected 1000 payload bytes, found 999"):
        load_voxel_map(path)
    path.write_bytes(header + b"box 0 0 0 0\n")
    with pytest.raises(VxgHeaderError, match="too large to allocate"):
        load_voxel_map(path)


def test_load_and_save_peak_memory_is_the_map_plus_one_block(tmp_path):
    # A full 2 MB map is one 2 MB payload, read into and written from the
    # map itself. A box narrower than the extent is written in slabs, read
    # row by row into the map: the map plus one slab.
    for N, cols in ((256, slice(0, 256)), (258, slice(1, 257))):
        states = np.zeros((256, N, 32), np.uint8)
        states[:, cols, :16] = O
        states[:, cols, 16:] = F
        vm = VoxelMap.from_states(0.1, (0.0, 0.0, 0.0), states)
        path = tmp_path / "full.vxg"
        tracemalloc.start()
        try:
            save_voxel_map(vm, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_voxel_map(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 256 * 256 * 32
        assert loaded == vm
        assert save_peak < 8_000_000
        assert load_peak < 8_000_000
        # beyond the map: at most one slab on save, none on load
        assert save_peak < voxel_store._SLAB_BYTES + 100_000
        assert load_peak < vm.states.nbytes + 100_000


@pytest.mark.parametrize("resolution, origin, extent, message", [
    (float("nan"), (0, 0, 0), (1, 1, 1), "resolution must be finite and positive, got nan"),
    (float("inf"), (0, 0, 0), (1, 1, 1), "resolution must be finite and positive, got inf"),
    (0.0, (0, 0, 0), (1, 1, 1), "resolution must be finite and positive, got 0.0"),
    (-0.1, (0, 0, 0), (1, 1, 1), "resolution must be finite and positive, got -0.1"),
    (0.1, (0, float("nan"), 0), (1, 1, 1), r"non-finite origin \(0.0, nan, 0.0\)"),
    (0.1, (float("-inf"), 0, 0), (1, 1, 1), r"non-finite origin \(-inf, 0.0, 0.0\)"),
    (0.1, (0, 0, 0), (1, 0, 1), r"extent components must be >= 1, got \(1, 0, 1\)"),
    (0.1, (0, 0, 0), (1, 1), "extent must be three counts"),
    # counts are integers in the sense of operator.index, never truncated
    (0.1, (0, 0, 0), (1.7, 2, 3.9), r"extent must be three counts, got \(1.7, 2, 3.9\)"),
    (0.1, (0, 0, 0), (2.0, 2, 2), "extent must be three counts"),
    (0.1, (0, 0, 0), ("2", "2", "2"), "extent must be three counts"),
    (0.1, (0, 0), (1, 1, 1), "origin must have three coordinates"),
    (0.1, 0.0, (1, 1, 1), "origin must have three coordinates, got 0.0"),
    # a bool is no count, resolution or coordinate, and a str no number
    (True, ("1", 0.0, 0.0), (True, 2, 2), r"extent must be three counts, got \(True, 2, 2\)"),
    (0.1, (0, 0, 0), (2, 2, False), "extent must be three counts"),
    (True, (0, 0, 0), (2, 2, 2), "resolution must be a real number, got True"),
    ("0.1", (0, 0, 0), (2, 2, 2), "resolution must be a real number, got '0.1'"),
    (0.1, ("1", 0.0, 0.0), (2, 2, 2),
     r"origin coordinates must be real numbers, got \('1', 0.0, 0.0\)"),
    (0.1, (0, None, 0), (2, 2, 2), "origin coordinates must be real numbers"),
    (0.1, (False, 0, 0), (2, 2, 2), "origin coordinates must be real numbers"),
])
def test_voxel_map_rejects_bad_geometry(resolution, origin, extent, message):
    with pytest.raises(ValueError, match=message):
        VoxelMap(resolution, origin, extent)


def test_voxel_map_takes_numpy_scalars_and_arrays():
    vm = VoxelMap(np.float32(0.25), np.array([1, -2, 0.5]), np.array([2, 3, 4], np.int16))
    assert vm.resolution == 0.25 and vm.origin == (1.0, -2.0, 0.5)
    assert vm.extent == (2, 3, 4) and all(type(e) is int for e in vm.extent)
    assert all(type(c) is float for c in (vm.resolution, *vm.origin))


@pytest.mark.parametrize("line, replacement, message", [
    (b"extent 2 2 2", b"extent 2 0 2", r"extent components must be >= 1, got \(2, 0, 2\)"),
    (b"extent 2 2 2", b"extent -1 2 2", "extent components must be >= 1"),
    (b"box 0 0 0 0", b"box -3 0 0 0", "is not a box inside extent 2x2"),
    (b"res 0.1", b"res 1/10", "unreadable value in 'res' line"),
    (b"box 0 0 0 0", b"box 0 0 0", "malformed 'box' line"),
])
def test_vxg_header_rejects_empty_extents_and_negative_counts(tmp_path, line,
                                                              replacement, message):
    path = tmp_path / "map.vxg"
    save_voxel_map(VoxelMap(0.1, (0, 0, 0), (2, 2, 2)), path)
    path.write_bytes(path.read_bytes().replace(line, replacement, 1))
    with pytest.raises(VxgHeaderError, match=message):
        load_voxel_map(path)
    assert load_outcome(load_voxel_map, path) == load_outcome(load_voxel_map_reference, path)
