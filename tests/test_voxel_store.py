import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (load_outcome, load_voxel_map_reference, save_voxel_map_reference,
                     vxg_blocks_of)
from voxflat import (VoxelMap, VoxelState, VxgHeaderError, VxgRecordError,
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
    assert data == b"VXG 1\nres 0.1\norigin 0.0 0.0 0.0\nextent 10 10 10\ncount 0\n"
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
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, daemon=True,
                              args=((tmp_path / "map.vxg").read_bytes(),))
    writer.start()
    try:
        assert load_voxel_map(fifo) == vm
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


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
    bad.write_bytes(full[:-4])
    with pytest.raises(VxgTruncatedError):
        load_voxel_map(bad)
    bad.write_bytes(full + b"\x00\x00")
    with pytest.raises(VxgTruncatedError):
        load_voxel_map(bad)


def test_record_errors_carry_position(tmp_path):
    header = b"VXG 1\nres 0.1\norigin 0.0 0.0 0.0\nextent 2 2 2\ncount 2\n"
    ok = np.array([[0, 0, 0, 2]], dtype="<u4").tobytes()
    bad_state = np.array([[1, 1, 1, 7]], dtype="<u4").tobytes()
    path = tmp_path / "rec.vxg"
    path.write_bytes(header + ok + bad_state)
    with pytest.raises(VxgRecordError, match="record 1"):
        load_voxel_map(path)
    out_of_range = np.array([[5, 0, 0, 1]], dtype="<u4").tobytes()
    path.write_bytes(header + ok + out_of_range)
    with pytest.raises(VxgRecordError, match="record 1"):
        load_voxel_map(path)
    for state in (1, 2):
        duplicate = np.array([[0, 0, 0, state]], dtype="<u4").tobytes()
        path.write_bytes(header + ok + duplicate)
        with pytest.raises(VxgRecordError, match=r"record 1: duplicate voxel \(0, 0, 0\)"):
            load_voxel_map(path)
    three = header.replace(b"count 2", b"count 3")
    path.write_bytes(three + ok + bad_state.replace(b"\x07", b"\x01") + ok)
    with pytest.raises(VxgRecordError, match="record 2: duplicate"):
        load_voxel_map(path)


def test_save_writes_golden_bytes_in_ijk_order(tmp_path):
    records = [(0, 1, 3, 1), (1, 0, 0, 2), (1, 0, 2, 1), (1, 1, 0, 2), (2, 1, 1, 2)]
    vm = VoxelMap(0.25, (-1.0, 0.5, 0.0), (3, 2, 4))
    vm.apply_cells([(i, j, k, VoxelState(s)) for i, j, k, s in reversed(records)])
    path = tmp_path / "golden.vxg"
    save_voxel_map(vm, path)
    assert path.read_bytes() == (
        b"VXG 1\nres 0.25\norigin -1.0 0.5 0.0\nextent 3 2 4\ncount 5\n"
        + b"".join(struct.pack("<4I", *r) for r in records))


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
    assert (vm.state_at(0, 0, 0), vm.state_at(1, 1, 1)) == (U, F)
    # a batch long enough for numpy's general indexing loops
    rng = np.random.default_rng(3)
    voxels = rng.integers(0, 2, (20000, 3))
    states = rng.integers(0, 3, 20000)
    vm.apply_cells([(*v, s) for v, s in zip(voxels.tolist(), states.tolist())])
    last = {tuple(v): s for v, s in zip(voxels.tolist(), states.tolist())}
    assert all(vm.state_at(*v) == s for v, s in last.items())


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
    assert vm.state_at(1, 1, 1) == U  # batch rejected before any write


def test_apply_cells_touches_only_reported_columns():
    rng = np.random.default_rng(7)
    for _ in range(20):
        vm = random_map(rng, M=8, N=8, K=6, writes=30)
        before = {(m, n): [vm.state_at(m, n, k) for k in range(6)]
                  for m in range(8) for n in range(8)}
        updates = [(int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(6)),
                    VoxelState(int(rng.integers(0, 3)))) for _ in range(5)]
        dirty = cells(vm.apply_cells(updates))
        for m in range(8):
            for n in range(8):
                if (m, n) not in dirty:
                    now = [vm.state_at(m, n, k) for k in range(6)]
                    assert now == before[(m, n)]


def test_erasing_all_cells_restores_equality_with_fresh_map():
    vm = VoxelMap(0.1, (0, 0, 0), (4, 4, 4))
    vm.apply_cells([(1, 2, 3, O), (1, 2, 2, F)])
    vm.apply_cells([(1, 2, 3, U), (1, 2, 2, U)])
    assert vm == VoxelMap(0.1, (0, 0, 0), (4, 4, 4))


def test_state_at_outside_extent_is_unknown():
    vm = VoxelMap(0.1, (0, 0, 0), (4, 4, 4))
    assert vm.state_at(99, 0, 0) == U
    assert vm.state_at(-1, 0, 0) == U


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
    assert all(loaded.state_at(i, j, k) == ref[i, j, k]
               for i in range(M) for j in range(N) for k in range(K))


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


@settings(max_examples=300, deadline=None)
@given(write_batches())
def test_apply_cells_matches_a_per_voxel_loop(case):
    extent, prior, batch, bad = case
    vm = VoxelMap(0.1, (0.0, 0.0, 0.0), extent)
    for (i, j, k), s in np.ndenumerate(prior):
        vm.fill_box(i, i + 1, j, j + 1, k, k + 1, VoxelState(int(s)))
    if bad is not None:
        error, pos = bad
        with pytest.raises(error, match=f"^update {pos}: "):
            vm.apply_cells(batch)
        assert np.array_equal(vm.states, prior)
        return
    ref = prior.copy()
    for i, j, k, s in batch:  # in order, so the last write wins
        ref[i, j, k] = s
    rows, cols = vm.apply_cells(batch)
    assert np.array_equal(vm.states, ref)
    assert list(zip(rows.tolist(), cols.tolist())) == sorted(
        {(int(i), int(j)) for i, j, _, _ in batch})


# -- blocked VXG codec against the whole-file reference -----------------------

# Small blocks put block boundaries inside tiny maps; None keeps the default.
block_sizes = st.sampled_from([1, 2, 3, 5, 16, None])


@settings(max_examples=150, deadline=None)
@given(extent=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 9)),
       density=st.sampled_from([0.0, 0.3, 1.0]), block=block_sizes,
       seed=st.integers(0, 2**32 - 1))
def test_blocked_codec_matches_the_reference(tmp_path_factory, extent, density,
                                             block, seed):
    rng = np.random.default_rng(seed)
    vm = VoxelMap(0.1, (0.5, -1.0, 0.0), extent)
    present = rng.random(extent) < density
    vm._voxels[present] = rng.integers(1, 3, extent, dtype=np.uint8)[present]
    folder = tmp_path_factory.mktemp("vxg")
    with vxg_blocks_of(block):
        save_voxel_map(vm, folder / "map.vxg")
        save_voxel_map_reference(vm, folder / "ref.vxg")
        assert (folder / "map.vxg").read_bytes() == (folder / "ref.vxg").read_bytes()
        assert load_voxel_map(folder / "map.vxg") == vm
        assert load_voxel_map_reference(folder / "map.vxg") == vm


def test_codec_matches_the_reference_beyond_one_default_block(tmp_path):
    rng = np.random.default_rng(5)
    extent = (40, 40, 48)  # 76,800 records, more than one block of 65,536
    vm = VoxelMap(0.05, (0.0, 0.0, -1.0), extent)
    vm._voxels[...] = rng.integers(1, 3, extent, dtype=np.uint8)
    assert vm.cell_count() > voxel_store._BLOCK_RECORDS
    save_voxel_map(vm, tmp_path / "map.vxg")
    save_voxel_map_reference(vm, tmp_path / "ref.vxg")
    assert (tmp_path / "map.vxg").read_bytes() == (tmp_path / "ref.vxg").read_bytes()
    assert load_voxel_map(tmp_path / "map.vxg") == vm


@st.composite
def defective_records(draw):
    """An extent and a record list: distinct valid voxels with out-of-range
    voxels, invalid states and repeats of earlier voxels mixed in."""
    M, N, K = extent = draw(st.tuples(st.integers(1, 4), st.integers(1, 4),
                                      st.integers(1, 4)))
    voxels = draw(st.permutations([(i, j, k) for i in range(M) for j in range(N)
                                   for k in range(K)]))
    records = []
    for kind in draw(st.lists(st.sampled_from(
            ["valid"] * 6 + ["outside", "state", "repeat"]), max_size=24)):
        state = draw(st.integers(1, 2))
        if kind == "valid" and voxels:
            records.append((*voxels.pop(), state))
        elif kind == "outside":
            axis = draw(st.integers(0, 2))
            voxel = [0, 0, 0]
            voxel[axis] = extent[axis] + draw(st.integers(0, 3)) * 1000
            records.append((*voxel, state))
        elif kind == "state":
            records.append((0, 0, 0, draw(st.sampled_from([0, 3, 255, 2**32 - 1]))))
        elif kind == "repeat" and records:
            records.append((*draw(st.sampled_from(records))[:3], state))
    return extent, records


def write_records(path, extent, records):
    header = (f"VXG 1\nres 0.1\norigin 0.0 0.0 0.0\nextent {extent[0]} {extent[1]} "
              f"{extent[2]}\ncount {len(records)}\n").encode("ascii")
    path.write_bytes(header + np.array(records, dtype="<u4").reshape(-1, 4).tobytes())


@settings(max_examples=300, deadline=None)
@given(case=defective_records(), block=block_sizes)
def test_blocked_load_names_the_reference_defect(tmp_path_factory, case, block):
    extent, records = case
    path = tmp_path_factory.mktemp("vxg") / "rec.vxg"
    write_records(path, extent, records)
    with vxg_blocks_of(block):
        assert load_outcome(load_voxel_map, path) == load_outcome(
            load_voxel_map_reference, path)


@pytest.mark.parametrize("records, message", [
    # an out-of-range voxel in block 1, an invalid state in block 2: the state wins
    ([(0, 0, 0, 1), (0, 0, 1, 2), (9, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 0)],
     "record 4: invalid state 0"),
    # a voxel repeated across the boundary of blocks 0 and 1
    ([(0, 0, 0, 1), (1, 1, 1, 2), (1, 1, 1, 1), (0, 1, 0, 2)],
     r"record 2: duplicate voxel \(1, 1, 1\)"),
    # a voxel repeated inside block 1, after a repeat-free block 0
    ([(0, 0, 0, 1), (1, 1, 1, 2), (0, 1, 0, 1), (0, 1, 0, 2)],
     r"record 3: duplicate voxel \(0, 1, 0\)"),
])
def test_defects_in_later_blocks_match_the_reference(tmp_path, records, message):
    path = tmp_path / "rec.vxg"
    write_records(path, (2, 2, 2), records)
    with pytest.raises(VxgRecordError, match=message):
        load_voxel_map_reference(path)
    with vxg_blocks_of(2), pytest.raises(VxgRecordError, match=message):
        load_voxel_map(path)


def test_out_of_range_records_win_over_an_unallocatable_extent(tmp_path):
    path = tmp_path / "rec.vxg"
    write_records(path, (10**6, 10**6, 1000), [(0, 0, 0, 1), (0, 0, 0, 3)])
    with pytest.raises(VxgRecordError, match="record 1: invalid state 3"):
        load_voxel_map(path)
    write_records(path, (10**6, 10**6, 1000), [(0, 0, 0, 1), (0, 0, 1000, 1)])
    with pytest.raises(VxgRecordError, match="record 1: voxel"):
        load_voxel_map(path)


def test_load_and_save_peak_memory_is_the_map_plus_one_block(tmp_path):
    # 2,097,152 records: a 33.5 MB payload over a 2 MB dense map. Reading or
    # writing the whole payload at once peaks at several times the payload.
    vm = VoxelMap(0.1, (0.0, 0.0, 0.0), (256, 256, 32))
    vm.fill_box(0, 256, 0, 256, 0, 16, O)
    vm.fill_box(0, 256, 0, 256, 16, 32, F)
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
    assert path.stat().st_size > 33_500_000
    assert loaded == vm
    assert save_peak < 8_000_000
    assert load_peak < 8_000_000


@pytest.mark.parametrize("resolution, origin, extent, message", [
    (float("nan"), (0, 0, 0), (1, 1, 1), "resolution must be finite and positive, got nan"),
    (float("inf"), (0, 0, 0), (1, 1, 1), "resolution must be finite and positive, got inf"),
    (0.0, (0, 0, 0), (1, 1, 1), "resolution must be finite and positive, got 0.0"),
    (-0.1, (0, 0, 0), (1, 1, 1), "resolution must be finite and positive, got -0.1"),
    (0.1, (0, float("nan"), 0), (1, 1, 1), r"non-finite origin \(0.0, nan, 0.0\)"),
    (0.1, (float("-inf"), 0, 0), (1, 1, 1), r"non-finite origin \(-inf, 0.0, 0.0\)"),
    (0.1, (0, 0, 0), (1, 0, 1), r"extent components must be >= 1, got \(1, 0, 1\)"),
    (0.1, (0, 0, 0), (1, 1), "extent must be three counts"),
    (0.1, (0, 0), (1, 1, 1), "origin must have three coordinates"),
])
def test_voxel_map_rejects_bad_geometry(resolution, origin, extent, message):
    with pytest.raises(ValueError, match=message):
        VoxelMap(resolution, origin, extent)


@pytest.mark.parametrize("line, replacement, message", [
    (b"extent 2 2 2", b"extent 2 0 2", r"extent components must be >= 1, got \(2, 0, 2\)"),
    (b"extent 2 2 2", b"extent -1 2 2", "extent components must be >= 1"),
    (b"count 0", b"count -3", "negative record count -3"),
    (b"res 0.1", b"res 1/10", "unreadable value in 'res' line"),
    (b"count 0", b"count", "malformed 'count' line"),
])
def test_vxg_header_rejects_empty_extents_and_negative_counts(tmp_path, line,
                                                              replacement, message):
    path = tmp_path / "map.vxg"
    save_voxel_map(VoxelMap(0.1, (0, 0, 0), (2, 2, 2)), path)
    path.write_bytes(path.read_bytes().replace(line, replacement, 1))
    with pytest.raises(VxgHeaderError, match=message):
        load_voxel_map(path)
    assert load_outcome(load_voxel_map, path) == load_outcome(load_voxel_map_reference, path)
