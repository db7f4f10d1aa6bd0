"""Dense three-state voxel map with a compact on-disk format.

Storage is one uint8 array of shape (M, N, K) indexed (i, j, k), so a map
costs M*N*K bytes however little of it has been observed (8 MB at
512x512x32). Every downstream product (height, slope, occupancy) reads the
map per column, and a column is a contiguous row of that array, so there is
no octree here. A batch of voxel writes, given as (i, j, k, state) tuples
(packed by one struct call each) or as an integer (n, 4) array (copied by one
cast), is validated as one int64 array and stored by one flat scatter; the
columns it touched come back as sorted index arrays.
VXG files are read and written one block of records at a time, so their
peak memory is the dense map plus one block, however large the file.
"""
from __future__ import annotations

import io
import math
import numbers
import operator
import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import starmap
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np


class VoxelState(IntEnum):
    UNKNOWN = 0
    OCCUPIED = 1
    FREE = 2


Cell = tuple[int, int]
CellUpdate = tuple[int, int, int, VoxelState]

_RECORD_BYTES = 16  # four little-endian uint32 per record
_BLOCK_RECORDS = 1 << 16  # VXG records read or written at once: 1 MiB


class VxgError(ValueError):
    """Base class for voxel-file parse failures."""


class VxgHeaderError(VxgError):
    """Header is missing, malformed, carries a bad magic string, or declares
    an extent too large to allocate."""


class VxgVersionError(VxgError):
    """File declares a format version this reader does not understand."""


class VxgTruncatedError(VxgError):
    """Record payload is shorter or longer than the header promised."""


class VxgRecordError(VxgError):
    """A record carries an out-of-range index, an invalid state, or a voxel
    an earlier record already named."""


def fmt_float(value: float) -> str:
    """Shortest decimal that round-trips, used by all canonical headers."""
    return repr(float(value))


def cell_center(origin: Sequence[float], resolution: float, m: int, n: int) -> tuple[float, float]:
    """World (x, y) of the center of grid cell (m, n)."""
    return (origin[0] + (m + 0.5) * resolution, origin[1] + (n + 0.5) * resolution)


def int_records(records: Sequence[Sequence[int]] | np.ndarray, width: int,
                label: str) -> np.ndarray:
    """Integer records as a new writable, C-contiguous int64 (n, width) array.

    A sequence of records is packed by one struct call per record. Fields must
    be integers in the sense of operator.index: Python and numpy ints and
    IntEnums pass, and bool acts as its integer. A record of another length
    raises ValueError and a non-integer field TypeError, both naming the
    record as f"{label} {position}". Values beyond int64 are clamped to -1 or
    2**62, which are out of range for any caller's bounds check.

    An integer ndarray of shape (n, width) is copied by one cast, with uint64
    values beyond int64 clamped to 2**62 as above. Any other array (bool,
    float, object, or another shape) is read as a list of tuples of its
    Python values and follows the rules above, with the same messages; so a
    bool array acts as its integers, as bool fields do.
    """
    if isinstance(records, np.ndarray):
        if records.ndim == 2 and records.shape[1] == width and records.dtype.kind in "iu":
            out = records.astype(np.int64, order="C")
            if records.dtype == np.uint64:
                out[records > np.iinfo(np.int64).max] = 2**62
            return out
        rows = records.tolist()
        records = list(map(tuple, rows)) if records.ndim == 2 else rows
    try:
        # struct's "q" code takes integers only, through __index__, and
        # refuses a record of another length; a bytearray keeps it writable.
        packed = bytearray().join(starmap(struct.Struct(f"={width}q").pack, records))
        return np.frombuffer(packed, np.int64).reshape(-1, width)
    except (TypeError, struct.error):
        pass
    out = np.empty((len(records), width), np.int64)
    for pos, record in enumerate(records):
        try:
            fields = [v if -2**63 <= v < 2**63 else -1 if v < 0 else 2**62
                      for v in map(operator.index, record)]
        except TypeError:
            raise TypeError(f"{label} {pos}: expected {width} integers, got {record!r}") from None
        if len(fields) != width:
            raise ValueError(f"{label} {pos}: expected {width} integers, got {record!r}")
        out[pos] = fields
    return out


@dataclass(frozen=True)
class ColumnView:
    """Run-length view of one column: (z_start, length, state) covering [0, K)."""

    runs: tuple[tuple[int, int, VoxelState], ...]


class VoxelMap:
    """Dense M x N x K grid of tri-state voxels.

    Cells never written are Unknown.
    Voxel layer k spans world z in [origin_z + k*res, origin_z + (k+1)*res).

    The resolution and origin coordinates are real numbers and the extent
    three integer counts (`operator.index`), none of them a bool; anything
    else, and what `check_geometry` rejects, raises ValueError naming the
    field. The types are those of `params.check_fields`, which raises
    TypeError for a wrong type; here every geometry defect, type or value, is
    a ValueError, as `check_geometry` reports it for the VXG and G2D headers,
    so a caller catches one error type for a bad geometry.
    """

    def __init__(self, resolution: float, origin: Sequence[float], extent: Sequence[int]):
        try:
            ext = tuple(map(_count, extent))
        except TypeError:
            ext = ()
        if len(ext) != 3:
            raise ValueError(f"extent must be three counts, got {extent!r}")
        try:
            coords = tuple(origin)
        except TypeError:
            coords = ()
        if len(coords) != 3:
            raise ValueError(f"origin must have three coordinates, got {origin!r}")
        if not all(map(_real, coords)):
            raise ValueError(f"origin coordinates must be real numbers, got {origin!r}")
        if not _real(resolution):
            raise ValueError(f"resolution must be a real number, got {resolution!r}")
        self.origin = tuple(map(float, coords))
        check_geometry(ValueError, resolution, self.origin, ext)
        self.resolution = float(resolution)
        self.extent = ext
        self._voxels = np.zeros(ext, dtype=np.uint8)

    # -- access ---------------------------------------------------------

    @property
    def states(self) -> np.ndarray:
        """Read-only (M, N, K) uint8 view of all voxel states, indexed (i, j, k)."""
        view = self._voxels.view()
        view.flags.writeable = False
        return view

    def nonempty_columns(self) -> Iterator[Cell]:
        """Columns holding at least one non-Unknown voxel, in (i, j) order."""
        ii, jj = np.nonzero(self._voxels.any(axis=2))
        return zip(ii.tolist(), jj.tolist())

    def cell_count(self) -> int:
        """Number of non-Unknown voxels."""
        return int(np.count_nonzero(self._voxels))

    def column(self, m: int, n: int) -> ColumnView:
        """Run-length view of column (m, n); runs partition [0, K)."""
        M, N, _ = self.extent
        if not (0 <= m < M and 0 <= n < N):
            raise IndexError(f"column ({m}, {n}) outside extent {M}x{N}")
        return ColumnView(_runs_of(self._voxels[m, n]))

    # -- mutation -------------------------------------------------------

    def apply_cells(self, updates: Sequence[CellUpdate] | np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Write voxel states, last write wins, and return the touched columns.

        The batch is a sequence of (i, j, k, state) records or an integer
        (n, 4) array; `int_records` turns either into one new int64 (n, 4)
        array, which is validated whole and written by one flat scatter, so a
        bad record leaves the map untouched. Fields must be integers (bool
        acts as its integer, and so does a bool array): a float, str or None
        raises TypeError, an index outside the extent IndexError and a state
        outside 0-2 ValueError, each naming the first bad record and printing
        its fields as Python values (5, not np.int32(5)), in the same words
        for tuples and arrays.
        The touched columns come back as (rows, cols) int64 arrays, unique and
        sorted in (i, j) order like np.nonzero; they never share memory with
        the batch. Rewriting a voxel with its current state still marks its
        column dirty (dirtiness is conservative).
        """
        M, N, K = self.extent
        records = int_records(updates, 4, "update")
        i, j, k, state = records.T
        try:
            linear = np.ravel_multi_index((i, j, k), self.extent)
        except ValueError:  # some voxel outside the extent
            linear = None
        # Viewed as unsigned, a negative field wraps to a huge value, so one
        # comparison checks both ends of its range.
        if linear is None or np.count_nonzero(state.view(np.uint64) > 2):
            bad = records.view(np.uint64) >= np.array((M, N, K, 3), np.uint64)
            pos = int(np.argmax(bad.any(axis=1)))
            i, j, k, state = updates[pos]
            if bad[pos, :3].any():
                raise IndexError(
                    f"update {pos}: voxel ({i}, {j}, {k}) outside extent {M}x{N}x{K}")
            raise ValueError(f"update {pos}: invalid voxel state {state}")
        # Repeated voxels: a 1-D integer-array assignment stores its values in
        # order, so the last write wins (pinned by the voxel store tests).
        self._voxels.reshape(-1)[linear] = state
        column = linear // K
        # Batches arrive in runs of one column, on which a stable sort is
        # near linear; np.unique does the same work several times slower.
        column.sort(kind="stable")
        if column.size and column[0] != column[-1]:
            column = np.concatenate((column[:1], column[1:][column[1:] != column[:-1]]))
            return np.divmod(column, N)
        return i[:1], j[:1]  # at most one column, as in single-column edits

    def fill_box(self, i0: int, i1: int, j0: int, j1: int, k0: int, k1: int,
                 state: VoxelState) -> None:
        """Bulk-write one state over the half-open box [i0,i1)x[j0,j1)x[k0,k1).

        The state is an integer 0-2 in the sense of operator.index (bool acts
        as its integer, as in apply_cells): a non-integer raises TypeError
        and a value outside 0-2 ValueError, both naming the state; a box
        outside the extent raises IndexError. Nothing is written on error.
        """
        try:
            s = operator.index(state)
        except TypeError:
            raise TypeError(f"voxel state must be an integer 0-2, got {state!r}") from None
        if not 0 <= s <= 2:
            raise ValueError(f"invalid voxel state {state!r}")
        M, N, K = self.extent
        if not (0 <= i0 <= i1 <= M and 0 <= j0 <= j1 <= N and 0 <= k0 <= k1 <= K):
            raise IndexError(
                f"box [{i0},{i1})x[{j0},{j1})x[{k0},{k1}) outside extent {M}x{N}x{K}"
            )
        self._voxels[i0:i1, j0:j1, k0:k1] = _FILL[s]

    # -- comparison -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VoxelMap):
            return NotImplemented
        return ((self.resolution, self.origin, self.extent)
                == (other.resolution, other.origin, other.extent)
                and np.array_equal(self._voxels, other._voxels))

    def __repr__(self) -> str:
        M, N, K = self.extent
        return (f"VoxelMap(res={self.resolution}, extent={M}x{N}x{K}, "
                f"voxels={self.cell_count()})")


_STATES = (VoxelState.UNKNOWN, VoxelState.OCCUPIED, VoxelState.FREE)
# 0-d uint8 arrays of the states: numpy fills a slice from one of these
# without converting a Python int on every call.
_FILL = tuple(np.array(s, dtype=np.uint8) for s in range(3))


def _runs_of(col: np.ndarray) -> tuple[tuple[int, int, VoxelState], ...]:
    values = col.tolist()
    runs = []
    start = 0
    current = values[0]
    for idx in range(1, len(values)):
        v = values[idx]
        if v != current:
            runs.append((start, idx - start, _STATES[current]))
            start = idx
            current = v
    runs.append((start, len(values) - start, _STATES[current]))
    return tuple(runs)


# -- VXG file format (version 1) ----------------------------------------
#
# ASCII header:   VXG 1 / res / origin / extent / count, one item per line,
# then `count` binary records of four little-endian uint32: i, j, k, state
# with state 1=Occupied, 2=Free. Unknown voxels are omitted. Canonical files
# sort records by (i, j, k), which save_voxel_map always produces.


def save_voxel_map(vmap: VoxelMap, path: str | Path) -> None:
    """Write the canonical VXG encoding: deterministic bytes for equal maps.

    The map is written in slabs of whole i rows, in C order, which is the
    canonical (i, j, k) record order; a slab holds at most one block of
    voxels (or one row, if a row is larger), so the records in memory at
    once stay near one block however large the map is.
    """
    voxels = vmap._voxels
    ox, oy, oz = vmap.origin
    M, N, K = vmap.extent
    header = (
        f"VXG 1\n"
        f"res {fmt_float(vmap.resolution)}\n"
        f"origin {fmt_float(ox)} {fmt_float(oy)} {fmt_float(oz)}\n"
        f"extent {M} {N} {K}\n"
        f"count {np.count_nonzero(voxels)}\n"
    )
    rows = max(1, _BLOCK_RECORDS // (N * K))
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for i0 in range(0, M, rows):
            slab = voxels[i0:i0 + rows].reshape(-1)
            linear = np.flatnonzero(slab)
            records = np.empty((linear.size, 4), dtype="<u4")
            records[:, 3] = slab[linear]
            if slab.size <= 1 << 32:
                # Indices fit uint32, whose division is far cheaper than int64's
                # (and a floor division plus a product cheaper than divmod).
                linear = linear.astype(np.uint32)
            column = linear // K
            records[:, 2] = linear - column * K
            row = column // N
            records[:, 1] = column - row * N
            records[:, 0] = row + i0
            f.write(records.data)


def load_voxel_map(path: str | Path) -> VoxelMap:
    """Parse a VXG file; raises a distinct VxgError subclass per defect.

    The payload is read one block of records at a time into one reused
    buffer, checked, and scattered into the map, so the peak memory is the
    dense map plus one block. A defective block sends the reader back over
    the payload to name the first defect, with invalid states taking
    precedence over out-of-range voxels anywhere in the file.
    """
    with open(path, "rb") as f:
        lines = []
        for _ in range(5):
            line = f.readline()
            if not line.endswith(b"\n"):
                raise VxgHeaderError("incomplete header: expected 5 header lines")
            lines.append(line[:-1].decode("ascii", errors="replace"))

        magic = lines[0].split()
        if len(magic) != 2 or magic[0] != "VXG":
            raise VxgHeaderError(f"bad magic line {lines[0]!r}")
        try:
            version = int(magic[1])
        except ValueError:
            raise VxgHeaderError(f"unreadable version in {lines[0]!r}") from None
        if version != 1:
            raise VxgVersionError(f"unsupported VXG version {version}")

        # Each field is checked as it is parsed, so the first defect is named.
        resolution, = header_fields(lines[1], "res", 1, float, VxgHeaderError)
        check_geometry(VxgHeaderError, resolution=resolution)
        origin = header_fields(lines[2], "origin", 3, float, VxgHeaderError)
        check_geometry(VxgHeaderError, origin=origin)
        extent = header_fields(lines[3], "extent", 3, int, VxgHeaderError)
        check_geometry(VxgHeaderError, extent=extent)
        count, = header_fields(lines[4], "count", 1, int, VxgHeaderError)
        if count < 0:
            raise VxgHeaderError(f"negative record count {count}")

        if f.seekable():
            offset = f.tell()
        else:  # a pipe: its length is known only once read
            f, offset = io.BytesIO(f.read()), 0
        found = f.seek(0, os.SEEK_END) - offset
        f.seek(offset)
        expected = count * _RECORD_BYTES
        if found != expected:
            raise VxgTruncatedError(f"expected {expected} record bytes, found {found}")

        M, N, K = extent
        try:
            vmap = VoxelMap(resolution, origin, extent)
        except (MemoryError, ValueError):
            raise (_record_error(f, offset, count, extent) or VxgHeaderError(
                f"extent {M}x{N}x{K} is too large to allocate ({M * N * K} bytes)"
            )) from None
        flat = vmap._voxels.reshape(-1)
        linear = np.empty(min(count, _BLOCK_RECORDS), np.int64)
        for _, block in _record_blocks(f, count):
            i, j, k, state = block.T
            # One max per column is several times faster than comparing the
            # whole (n, 4) block with the limits.
            if (i.max() >= M or j.max() >= N or k.max() >= K or state.max() > 2
                    or state.min() == 0):
                raise _record_error(f, offset, count, extent)
            flat[_linear_index(block, N, K, linear)] = state
        # Every record writes a non-Unknown state, so fewer non-Unknown voxels
        # than records means two records named the same voxel.
        if np.count_nonzero(flat) != count:
            raise _record_error(f, offset, count, extent, seen=flat)
    return vmap


def _record_blocks(f, count: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first record number, (n, 4) uint32 records) per block of the payload
    from the file position on; every block reuses one buffer."""
    buffer = np.empty((min(count, _BLOCK_RECORDS), 4), dtype="<u4")
    for start in range(0, count, _BLOCK_RECORDS):
        block = buffer[:min(_BLOCK_RECORDS, count - start)]
        if f.readinto(block) != block.nbytes:
            raise VxgTruncatedError(f"record payload ended inside record {start}")
        yield start, block


def _linear_index(block: np.ndarray, N: int, K: int, out: np.ndarray) -> np.ndarray:
    """Flat index (i*N + j)*K + k of each in-range record, formed in out."""
    linear = out[:len(block)]
    linear[:] = block[:, 0]
    linear *= N
    linear += block[:, 1]
    linear *= K
    linear += block[:, 2]
    return linear


def _record_error(f, offset: int, count: int, extent: tuple[int, int, int],
                  seen: np.ndarray | None = None) -> VxgRecordError | None:
    """The error for the first defective record, found by re-reading the
    payload from offset: the first invalid state anywhere, else the first
    voxel outside the extent, else (given `seen`, a flat map to clear and
    reuse as the set of voxels named so far) the first record naming a voxel
    an earlier record named. None if every record is sound."""
    M, N, K = extent
    f.seek(offset)
    outside = None
    for start, block in _record_blocks(f, count):
        bad = (block[:, 3] == 0) | (block[:, 3] > 2)
        if bad.any():
            r = int(np.argmax(bad))
            return VxgRecordError(f"record {start + r}: invalid state {int(block[r, 3])}")
        out_of_range = (block[:, 0] >= M) | (block[:, 1] >= N) | (block[:, 2] >= K)
        if outside is None and out_of_range.any():
            r = int(np.argmax(out_of_range))
            i, j, k = block[r, :3].tolist()
            outside = VxgRecordError(
                f"record {start + r}: voxel ({i}, {j}, {k}) outside extent {M}x{N}x{K}")
    if outside is not None or seen is None:
        return outside
    seen[:] = 0
    f.seek(offset)
    linear = np.empty(min(count, _BLOCK_RECORDS), np.int64)
    for start, block in _record_blocks(f, count):
        index = _linear_index(block, N, K, linear)
        order = np.argsort(index, kind="stable")
        repeat = seen[index] != 0
        repeat[order[1:]] |= index[order[1:]] == index[order[:-1]]
        if repeat.any():
            r = int(np.argmax(repeat))
            i, j, k = block[r, :3].tolist()
            return VxgRecordError(f"record {start + r}: duplicate voxel ({i}, {j}, {k})")
        seen[index] = 1
    return None


def header_fields(line: str, tag: str, n: int, convert, error) -> tuple:
    """The n values after `tag` on one header line, each passed to convert.

    A line of another tag or length, or a value convert rejects, raises
    error(message); VXG and G2D headers share this parser.
    """
    parts = line.split()
    if len(parts) != n + 1 or parts[0] != tag:
        raise error(f"malformed {tag!r} line: {line!r}")
    try:
        return tuple(convert(p) for p in parts[1:])
    except ValueError:
        raise error(f"unreadable value in {tag!r} line: {line!r}") from None


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(value) -> int:
    """operator.index of a value that is not a bool; TypeError otherwise."""
    if isinstance(value, bool):
        raise TypeError(f"a bool is not a count: {value!r}")
    return operator.index(value)


def check_geometry(error, resolution=None, origin=None, extent=None) -> None:
    """Raise error(message) for a resolution that is not finite and positive,
    a non-finite origin coordinate or an extent count below 1, in that order.

    A field left None is not checked, so a file reader can check each field
    as it parses it; `VoxelMap` and the VXG and G2D readers share the rules.
    """
    if resolution is not None and not (math.isfinite(resolution) and resolution > 0):
        raise error(f"resolution must be finite and positive, got {resolution}")
    if origin is not None and not all(map(math.isfinite, origin)):
        raise error(f"non-finite origin {origin}")
    if extent is not None and any(e < 1 for e in extent):
        raise error(f"extent components must be >= 1, got {extent}")
