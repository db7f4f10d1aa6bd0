"""Dense three-state voxel map with a compact on-disk format.

Storage is one uint8 array of shape (M, N, K) indexed (i, j, k), so a map
costs M*N*K bytes however little of it has been observed (8 MB at
512x512x32). Every downstream product (height, slope, occupancy) reads the
map per column, and a column is a contiguous row of that array, so there is
no octree here. A batch of voxel writes, given as (i, j, k, state) tuples
(packed by one struct call each) or as an integer (n, 4) array (copied by one
cast), is validated as one int64 array and stored by one flat scatter; the
columns it touched come back as sorted index arrays. A whole dense array of
states becomes a map by `VoxelMap.from_states`, a checked copy; this module
is the only code that writes the stored array.
A VXG file holds the same bytes: one state per voxel over the bounding box
of the observed columns, read straight into the map and written from it in
slabs of box rows, so loading or saving needs the dense map and at most one
slab besides. Its layout, ASCII header lines that fix the payload length and
then the raw payload, is the G2D grid files' too, and three helpers serve
both: `read_header`, `payload` (a pipe is read whole) and `write_file`.
`check_states` names a state outside 0-2 by its voxel, in the same words for
an array given to `from_states` and for a VXG payload byte.
"""
from __future__ import annotations

import io
import math
import operator
import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import starmap
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .params import is_count, is_real


class VoxelState(IntEnum):
    UNKNOWN = 0
    OCCUPIED = 1
    FREE = 2


Cell = tuple[int, int]
CellUpdate = tuple[int, int, int, VoxelState]


class VxgError(ValueError):
    """Base class for voxel-file parse failures."""


class VxgHeaderError(VxgError):
    """Header is missing, malformed, carries a bad magic string, or declares
    an extent too large to allocate."""


class VxgVersionError(VxgError):
    """File declares a format version this reader does not understand."""


class VxgTruncatedError(VxgError):
    """Payload is shorter or longer than the header's box."""


class VxgRecordError(VxgError):
    """A payload byte is not a voxel state (0, 1 or 2)."""


def fmt_float(value: float) -> str:
    """Shortest decimal that round-trips, used by all canonical headers."""
    return repr(float(value))


def read_records(path: str | Path, fields: str,
                 parse: Callable[[list[str]], object]) -> list[list]:
    """The records of an ASCII file, such as a trace or a path file, in the
    groups that blank lines end: `parse` of each line's whitespace-split
    fields, '#' lines skipped. A byte above 0x7f, a line of another field
    count than `fields` and a ValueError from `parse` each raise ValueError
    prefixed with f"{path}:{line}: "."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        # The bytes before the first bad one decode; the bad one ends the last line.
        lineno = len((data[:e.start] + b".").decode("ascii").splitlines())
        raise ValueError(f"{path}:{lineno}: non-ASCII byte 0x{data[e.start]:02x}") from None
    groups: list[list] = [[]]
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            groups.append([])
        elif not parts[0].startswith("#"):
            try:
                if len(parts) != len(fields.split()):
                    raise ValueError(f"expected '{fields}', got {' '.join(parts)!r}")
                groups[-1].append(parse(parts))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return [group for group in groups if group]


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

    The resolution and origin coordinates are real numbers (`is_real`) and
    the extent three counts (`is_count`); anything else, and what
    `check_geometry` rejects, raises ValueError naming the field. The tests
    are those of `params.check_fields`, which raises TypeError for a wrong
    type; here every geometry defect, type or value, is a ValueError, as
    `check_geometry` reports it for the VXG and G2D headers, so a caller
    catches one error type for a bad geometry.
    """

    def __init__(self, resolution: float, origin: Sequence[float], extent: Sequence[int]):
        ext = tuple(extent) if np.iterable(extent) else ()
        if len(ext) != 3 or not all(map(is_count, ext)):
            raise ValueError(f"extent must be three counts, got {extent!r}")
        ext = tuple(map(operator.index, ext))
        coords = tuple(origin) if np.iterable(origin) else ()
        if len(coords) != 3:
            raise ValueError(f"origin must have three coordinates, got {origin!r}")
        if not all(map(is_real, coords)):
            raise ValueError(f"origin coordinates must be real numbers, got {origin!r}")
        if not is_real(resolution):
            raise ValueError(f"resolution must be a real number, got {resolution!r}")
        self.origin = tuple(map(float, coords))
        check_geometry(ValueError, resolution, self.origin, ext)
        self.resolution = float(resolution)
        self.extent = ext
        self._voxels = np.zeros(ext, dtype=np.uint8)

    @classmethod
    def from_states(cls, resolution: float, origin: Sequence[float],
                    states: np.ndarray) -> "VoxelMap":
        """A new map holding a copy of an (M, N, K) integer array of states.

        The extent is the array's shape, and the resolution and origin follow
        the constructor's rules. A bool array acts as its integers, as in
        apply_cells. An array of another ndim raises ValueError and one of a
        non-integer dtype (float, complex, object, str) TypeError. A state
        outside 0-2 raises ValueError naming the first such voxel in C order,
        in the VXG reader's words (`check_states`). The map shares no memory
        with `states`, so later writes to the array do not reach it.
        """
        a = np.asarray(states)
        if a.ndim != 3:
            raise ValueError(f"states must be an (M, N, K) array, got shape {a.shape}")
        if a.dtype.kind not in "biu":
            raise TypeError(f"states must be an integer array, got dtype {a.dtype}")
        vmap = cls(resolution, origin, a.shape)
        check_states(ValueError, a)
        vmap._voxels[...] = a
        return vmap

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


# -- VXG file format (version 2) ----------------------------------------
#
# ASCII header:   VXG 2 / res / origin / extent M N K / box m0 m1 n0 n1, one
# item per line, then (m1-m0)*(n1-n0)*K payload bytes: the state of each
# voxel of the box (0 Unknown, 1 Occupied, 2 Free) in C order. The box is
# half-open; save_voxel_map writes the bounding box of the columns holding a
# non-Unknown voxel (`nonzero_box`), or 0 0 0 0 when there are none.

_SLAB_BYTES = 1 << 20  # box rows per write; copied when the box is narrower than the map


def nonzero_box(a: np.ndarray) -> tuple[int, int, int, int] | None:
    """Bounding box (m0, m1, n0, n1), half-open, of the columns a[m, n] of a
    2D or 3D array that hold a nonzero entry; None when none does.

    Both reductions run along contiguous memory: the maximum of each row's
    whole slab finds the hit rows, then the maximum down those rows only,
    taken over k as well for a 3D array, finds the hit columns. On a
    512x512x32 voxel map that is several times cheaper than `any(axis=2)`
    over the short k axis.
    """
    if not a.size:
        return None
    rows = np.flatnonzero((a if a.ndim == 2 else a.reshape(len(a), -1)).max(axis=1))
    if not rows.size:
        return None
    m0, m1 = int(rows[0]), int(rows[-1]) + 1
    cols = a[m0:m1].max(axis=0)
    cols = np.flatnonzero(cols if cols.ndim == 1 else cols.max(axis=1))
    return m0, m1, int(cols[0]), int(cols[-1]) + 1


def save_voxel_map(vmap: VoxelMap, path: str | Path) -> None:
    """Write the canonical VXG encoding: equal maps give equal bytes.

    The box goes out in slabs of box rows of at most _SLAB_BYTES (or one
    row, if a row is larger). A slab of whole map rows is contiguous and
    written with no copy; a narrower box's slab is copied, so the memory
    beyond the map stays one slab.
    """
    M, N, K = vmap.extent
    m0, m1, n0, n1 = nonzero_box(vmap._voxels) or (0, 0, 0, 0)
    box = vmap._voxels[m0:m1, n0:n1]
    rows = max(1, _SLAB_BYTES // max(1, (n1 - n0) * K))
    write_file(path, ["VXG 2",
                      f"res {fmt_float(vmap.resolution)}",
                      f"origin {' '.join(map(fmt_float, vmap.origin))}",
                      f"extent {M} {N} {K}",
                      f"box {m0} {m1} {n0} {n1}"],
               (box[r:r + rows] for r in range(0, m1 - m0, rows)))


def load_voxel_map(path: str | Path) -> VoxelMap:
    """Parse a VXG file; raises a distinct VxgError subclass per defect.

    After the header, the box must lie inside the extent and the payload
    must hold exactly its bytes; both are checked before the map is
    allocated. Any box inside the extent is read, not only the one
    save_voxel_map writes. The payload is read straight into the map's box
    rows, so the peak memory is the dense map; a byte above 2 is then named
    by its voxel, the first in C order.
    """
    return read_voxel_map(path)[0]


def read_voxel_map(path: str | Path) -> tuple[VoxelMap, int]:
    """load_voxel_map, plus the bytes read: header and payload, the whole
    file, also when it is a pipe, whose size no stat reports."""
    with open(path, "rb") as f:
        lines = read_header(f, "VXG", 2, 5, VxgHeaderError, VxgVersionError)
        # Each field is checked as it is parsed, so the first defect is named.
        resolution, = header_fields(lines[1], "res", 1, float, VxgHeaderError)
        check_geometry(VxgHeaderError, resolution=resolution)
        origin = header_fields(lines[2], "origin", 3, float, VxgHeaderError)
        check_geometry(VxgHeaderError, origin=origin)
        extent = header_fields(lines[3], "extent", 3, int, VxgHeaderError)
        check_geometry(VxgHeaderError, extent=extent)
        M, N, K = extent
        m0, m1, n0, n1 = header_fields(lines[4], "box", 4, int, VxgHeaderError)
        if not (0 <= m0 <= m1 <= M and 0 <= n0 <= n1 <= N):
            raise VxgHeaderError(f"box [{m0},{m1})x[{n0},{n1}) is not a box "
                                 f"inside extent {M}x{N}")

        expected = (m1 - m0) * (n1 - n0) * K
        f = payload(f, expected, VxgTruncatedError)
        try:
            vmap = VoxelMap(resolution, origin, extent)
        except (MemoryError, ValueError):
            raise VxgHeaderError(
                f"extent {M}x{N}x{K} is too large to allocate ({M * N * K} bytes)"
            ) from None
        box = vmap._voxels[m0:m1, n0:n1]
        for rows in (box,) if box.flags.c_contiguous else box:
            if f.readinto(rows) != rows.nbytes:
                raise VxgTruncatedError("payload ended early")
    check_states(VxgRecordError, box, m0, n0)
    # ASCII decoding keeps one character per byte, an undecodable one too.
    return vmap, sum(map(len, lines)) + len(lines) + expected


def check_states(error, states: np.ndarray, m0: int = 0, n0: int = 0) -> None:
    """Raise error(message) for the first voxel, in C order, of an integer or
    bool (M, N, K) array whose state is not 0, 1 or 2, as
    `voxel (m0 + i, n0 + j, k): invalid state v`, the box offset (m0, n0)
    naming the voxel in its map. `VoxelMap.from_states` and the VXG reader
    share it.

    Viewed as unsigned, a negative state wraps to a huge value, so one pass
    (the maximum) checks an array whose states are all valid.
    """
    unsigned = states.view(f"{states.dtype.byteorder}u{states.dtype.itemsize}")
    if unsigned.size and unsigned.max() > 2:
        i, j, k = map(int, np.unravel_index(np.argmax(unsigned > 2), states.shape))
        raise error(f"voxel ({m0 + i}, {n0 + j}, {k}): invalid state {states[i, j, k]}")


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


def read_header(f, magic: str, version: int, n: int, error, version_error) -> list[str]:
    """The first n lines of binary file f, as ASCII without their newlines;
    a file cut short, a first line other than `magic version` or an unreadable
    version raise error(message), another version version_error(message)."""
    raw = [f.readline() for _ in range(n)]
    if not all(line.endswith(b"\n") for line in raw):
        raise error(f"incomplete header: expected {n} header lines")
    lines = [line[:-1].decode("ascii", errors="replace") for line in raw]
    parts = lines[0].split()
    if len(parts) != 2 or parts[0] != magic:
        raise error(f"bad magic line {lines[0]!r}")
    try:
        found = int(parts[1])
    except ValueError:
        raise error(f"unreadable version in {lines[0]!r}") from None
    if found != version:
        raise version_error(f"unsupported {magic} version {found}")
    return lines


def payload(f, expected: int, error):
    """Binary file f, positioned after its header, checked to hold exactly
    `expected` more bytes (else error(message)) and returned at that point.
    A pipe, whose length is known only once read, is read whole first."""
    if not f.seekable():
        f = io.BytesIO(f.read())
    offset = f.tell()
    found = f.seek(0, os.SEEK_END) - offset
    f.seek(offset)
    if found != expected:
        raise error(f"expected {expected} payload bytes, found {found}")
    return f


def write_file(path: str | Path, header_lines: Sequence[str], arrays) -> None:
    """Write the header lines, each ended by a newline, then the bytes of
    each array in C order; a C-contiguous array is written with no copy."""
    with open(path, "wb") as f:
        f.write("".join(line + "\n" for line in header_lines).encode("ascii"))
        for a in arrays:
            f.write(np.ascontiguousarray(a))


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
