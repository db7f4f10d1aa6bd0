"""Dense three-state voxel map with a compact on-disk format.

Storage is one uint8 array of shape (M, N, K) indexed (i, j, k), so a map
costs M*N*K bytes however little of it has been observed (8 MB at
512x512x32). Every downstream product (height, slope, occupancy) reads the
map per column, and a column is a contiguous row of that array, so there is
no octree here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
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


@dataclass(frozen=True)
class ColumnView:
    """Run-length view of one column: (z_start, length, state) covering [0, K)."""

    cell: Cell
    runs: tuple[tuple[int, int, VoxelState], ...]


class VoxelMap:
    """Dense M x N x K grid of tri-state voxels.

    Cells never written are Unknown, as are all indices outside the extent.
    Voxel layer k spans world z in [origin_z + k*res, origin_z + (k+1)*res).
    """

    def __init__(self, resolution: float, origin: Sequence[float], extent: Sequence[int]):
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        ext = tuple(int(e) for e in extent)
        if len(ext) != 3 or any(e < 1 for e in ext):
            raise ValueError(f"extent must be three counts >= 1, got {extent!r}")
        self.resolution = float(resolution)
        self.origin = tuple(float(c) for c in origin)
        if len(self.origin) != 3:
            raise ValueError(f"origin must have three coordinates, got {origin!r}")
        self.extent = ext
        self._voxels = np.zeros(ext, dtype=np.uint8)

    # -- access ---------------------------------------------------------

    def state_at(self, i: int, j: int, k: int) -> VoxelState:
        """State of one voxel; indices outside the extent are Unknown."""
        M, N, K = self.extent
        if not (0 <= i < M and 0 <= j < N and 0 <= k < K):
            return VoxelState.UNKNOWN
        return VoxelState(int(self._voxels[i, j, k]))

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
        return ColumnView((m, n), _runs_of(self._voxels[m, n]))

    # -- mutation -------------------------------------------------------

    def apply_cells(self, updates: Sequence[CellUpdate]) -> set[Cell]:
        """Write voxel states, last write wins, and return touched columns.

        The whole batch is validated before anything is written, so a bad
        record leaves the map untouched. Rewriting a voxel with its current
        state still marks its column dirty (dirtiness is conservative).
        """
        M, N, K = self.extent
        for pos, (i, j, k, state) in enumerate(updates):
            if not (0 <= i < M and 0 <= j < N and 0 <= k < K):
                raise IndexError(
                    f"update {pos}: voxel ({i}, {j}, {k}) outside extent {M}x{N}x{K}"
                )
            if int(state) not in (0, 1, 2):
                raise ValueError(f"update {pos}: invalid voxel state {state!r}")
        dirty: set[Cell] = set()
        for i, j, k, state in updates:
            self._voxels[i, j, k] = int(state)
            dirty.add((i, j))
        return dirty

    def fill_box(self, i0: int, i1: int, j0: int, j1: int, k0: int, k1: int,
                 state: VoxelState) -> None:
        """Bulk-write one state over the half-open box [i0,i1)x[j0,j1)x[k0,k1)."""
        M, N, K = self.extent
        if not (0 <= i0 <= i1 <= M and 0 <= j0 <= j1 <= N and 0 <= k0 <= k1 <= K):
            raise IndexError(
                f"box [{i0},{i1})x[{j0},{j1})x[{k0},{k1}) outside extent {M}x{N}x{K}"
            )
        self._voxels[i0:i1, j0:j1, k0:k1] = int(state)

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

    np.nonzero walks the array in C order, which is the canonical (i, j, k)
    record order. The index is dropped before the write and the records are
    written without a bytes copy, to keep the peak memory of large maps low.
    """
    index = np.nonzero(vmap._voxels)
    records = np.empty((index[0].size, 4), dtype="<u4")
    for c, values in enumerate(index + (vmap._voxels[index],)):
        records[:, c] = values
    del index
    ox, oy, oz = vmap.origin
    M, N, K = vmap.extent
    header = (
        f"VXG 1\n"
        f"res {fmt_float(vmap.resolution)}\n"
        f"origin {fmt_float(ox)} {fmt_float(oy)} {fmt_float(oz)}\n"
        f"extent {M} {N} {K}\n"
        f"count {records.shape[0]}\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(records.data)


def load_voxel_map(path: str | Path) -> VoxelMap:
    """Parse a VXG file; raises a distinct VxgError subclass per defect."""
    data = Path(path).read_bytes()
    lines = []
    offset = 0
    for _ in range(5):
        nl = data.find(b"\n", offset)
        if nl < 0:
            raise VxgHeaderError("incomplete header: expected 5 header lines")
        lines.append(data[offset:nl].decode("ascii", errors="replace"))
        offset = nl + 1

    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != "VXG":
        raise VxgHeaderError(f"bad magic line {lines[0]!r}")
    try:
        version = int(magic[1])
    except ValueError:
        raise VxgHeaderError(f"unreadable version in {lines[0]!r}") from None
    if version != 1:
        raise VxgVersionError(f"unsupported VXG version {version}")

    resolution = _header_numbers(lines[1], "res", 1, float)[0]
    if not (math.isfinite(resolution) and resolution > 0):
        raise VxgHeaderError(f"resolution must be finite and positive, got {resolution}")
    origin = _header_numbers(lines[2], "origin", 3, float)
    if not all(map(math.isfinite, origin)):
        raise VxgHeaderError(f"non-finite origin {origin}")
    extent = _header_numbers(lines[3], "extent", 3, int)
    if any(e < 1 for e in extent):
        raise VxgHeaderError(f"extent components must be >= 1, got {extent}")
    count = _header_numbers(lines[4], "count", 1, int)[0]
    if count < 0:
        raise VxgHeaderError(f"negative record count {count}")

    payload = data[offset:]
    expected = count * _RECORD_BYTES
    if len(payload) != expected:
        raise VxgTruncatedError(
            f"expected {expected} record bytes, found {len(payload)}"
        )
    records = np.frombuffer(payload, dtype="<u4").reshape(count, 4)

    M, N, K = extent
    bad_state = ~np.isin(records[:, 3], (1, 2))
    if bad_state.any():
        r = int(np.argmax(bad_state))
        raise VxgRecordError(f"record {r}: invalid state {int(records[r, 3])}")
    out_of_range = (records[:, 0] >= M) | (records[:, 1] >= N) | (records[:, 2] >= K)
    if out_of_range.any():
        r = int(np.argmax(out_of_range))
        raise VxgRecordError(
            f"record {r}: voxel ({int(records[r, 0])}, {int(records[r, 1])}, "
            f"{int(records[r, 2])}) outside extent {M}x{N}x{K}"
        )

    try:
        vmap = VoxelMap(resolution, origin, extent)
    except (MemoryError, ValueError):
        raise VxgHeaderError(
            f"extent {M}x{N}x{K} is too large to allocate ({M * N * K} bytes)"
        ) from None
    flat = vmap._voxels.reshape(-1)
    linear = np.ravel_multi_index(tuple(records[:, :3].T), extent)
    flat[linear] = records[:, 3]
    # Every record writes a non-Unknown state, so fewer non-Unknown voxels
    # than records means two records named the same voxel.
    if np.count_nonzero(flat) != count:
        order = np.argsort(linear, kind="stable")
        repeats = order[1:][linear[order[1:]] == linear[order[:-1]]]
        r = int(repeats.min())
        raise VxgRecordError(
            f"record {r}: duplicate voxel ({int(records[r, 0])}, "
            f"{int(records[r, 1])}, {int(records[r, 2])})"
        )
    return vmap


def _header_numbers(line: str, tag: str, n: int, convert) -> tuple:
    parts = line.split()
    if len(parts) != n + 1 or parts[0] != tag:
        raise VxgHeaderError(f"malformed {tag!r} line: {line!r}")
    try:
        return tuple(convert(p) for p in parts[1:])
    except ValueError:
        raise VxgHeaderError(f"unreadable number in {tag!r} line: {line!r}") from None
