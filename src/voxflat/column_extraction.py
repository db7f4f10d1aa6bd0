"""The 2D height map, by integer run detection along voxel columns.

A free run of L voxels is navigable when L >= `ConversionParams.min_run(res)`,
the robot's vertical clearance in whole voxels. A column's floor is the
bottom face of its lowest kept run and its ceiling the top face of its
highest, as voxel-face indices (floor_k, ceil_k). The map stores those
indices; meters (`origin_z + k*res`) appear only in its output views and in
`HeightMap.from_meters`, the one entry for outside heights. `convert_column`
finds both indices for any (..., K) stack of columns with one AND over the
boolean free mask, laid out flat, by `window_reduce`, the one sliding-window
kernel (the slope sums and the lift's window maximum use it too), so
`build_height_map` and `update()` (the written columns) run the same code.
`check_positive_int` is the one rule for a run length or a slope-fit radius:
a count (`params.is_count`, as for a `VoxelMap` extent) >= 1.

A full build reads only the box that can hold output: `build_height_map` the
bounding box of the observed columns, in row bands of about _BAND_VOXELS
voxels of the box's width, into a `HeightMap.empty` map, and then the box of
present cells inside it, which the map keeps as `present_box` for the slope
and UAV builds. `voxel_store.nonzero_box` finds both, and the box a VXG file
stores, with reductions along contiguous memory (each row's maximum, then
one down the hit rows only), never along the short k axis.

`run_bands` cuts a box into bands of whole rows and runs them, for the
height, slope and UAV builds, on one shared thread pool, a thread per usable
CPU: numpy releases the interpreter lock inside the band kernels, and each
band writes only its own rows of the output, so the bits are those of the
serial loop. One band runs inline on the caller's thread: an explored map's
UAV box does, and so does `update()` while its windows span at most one band
(64 rows for slopes, 2**16 cells for UAV), as edits of a few voxels and scan
batches do.
"""
from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .params import is_count
from .voxel_store import VoxelMap, VoxelState, check_geometry, nonzero_box

# Voxels per convert_column pass in build_height_map, as whole rows of the
# observed box: its bool temporaries are 256 KB each. On a fully observed
# 512x512x32 map (2-core VM), bands of 2**17 to 2**22 voxels build within 5%
# of each other; smaller ones pay per-pass overhead (2**14: +40%). A box
# 86 columns wide (an explored map) behaves the same: bands follow its width.
_BAND_VOXELS = 1 << 18

# A plain int: numpy compares an array with an IntEnum member much slower.
_FREE = int(VoxelState.FREE)


def check_positive_int(value, name: str) -> None:
    """Raise ValueError naming `name` unless value is a count (`is_count`) >= 1."""
    if not is_count(value) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def window_reduce(a: np.ndarray, d: int, op: Callable, step: int = 1) -> np.ndarray:
    """op, associative and commutative (operator.and_, operator.add,
    np.maximum), over the d entries a[i], a[i + step], ..., a[i + (d-1)*step]
    of a flat array, for every i < a.size - (d-1)*step; maybe a view of a.

    By doubling: op of two w-entry windows w*step apart is the 2w-entry one,
    and a d-entry window joins, end to end, those of the powers of two that
    make up d: floor(log2 d) passes, and an op per further set bit of d. Each
    intermediate covers part of one window, so no sum of non-negative
    entries exceeds its window's."""
    n = a.size - (d - 1) * step
    total, start, w = None, 0, 1
    while True:
        if d & w:
            part = a[start * step:start * step + n]
            total = part if total is None else op(total, part)
            start += w
        if 2 * w > d:
            return total
        a = op(a[:-w * step], a[w * step:])
        w *= 2


def convert_column(columns: np.ndarray, min_run: int) -> tuple[np.ndarray, np.ndarray]:
    """Floor and ceiling face indices of every column of a (..., K) stack.

    A free run is kept when it is at least min_run voxels long. floor_k is
    the bottom of the lowest kept run and ceil_k the top (one past the last
    voxel) of the highest; both int64, and -1 where no run is kept.

    A run is kept exactly when some window of min_run voxels inside it is
    all free, so the lowest all-free window starts at the floor and the
    highest ends at the ceiling. `window_reduce` ANDs every window at once
    over one flat bool buffer holding the free mask, column after column,
    and min_run - 1 zeros. A window that starts at k >= K - min_run + 1 runs
    into the next column or the zeros; the (..., K - min_run + 1) view of
    the result drops it.
    """
    check_positive_int(min_run, "min_run")
    shape = columns.shape
    K = shape[-1]
    if min_run > K:
        return np.full(shape[:-1], -1), np.full(shape[:-1], -1)
    free = np.zeros(columns.size + min_run - 1, dtype=bool)
    np.equal(columns, _FREE, free[:columns.size].reshape(shape))
    window = window_reduce(free, min_run, operator.and_).reshape(shape)[..., :K - min_run + 1]
    first = window.argmax(-1)
    found = np.logical_or(window[..., 0], first)  # argmax reads 0 where no window is free
    faces = np.where(found, (first, K - window[..., ::-1].argmax(-1)), -1)
    return faces[0, ...], faces[1, ...]  # arrays, 0-d for one column


@dataclass
class HeightMap:
    """Per-cell floor and ceiling voxel-face indices, int32; -1 marks an
    absent cell, so a cell is present exactly when floor_k >= 0.

    The constructor takes integer 2D planes of one shape, stores them as
    int32, and raises ValueError naming the first cell with a face outside
    [-1, int32 max], with only one of floor and ceiling (unless no cell has
    a ceiling: a floor-only map), or with its ceiling at or below its floor.
    """

    resolution: float
    origin: tuple[float, float, float]
    floor_k: np.ndarray
    ceil_k: np.ndarray

    def __post_init__(self):
        fk, ck = np.asarray(self.floor_k), np.asarray(self.ceil_k)
        if not (fk.dtype.kind in "iu" and ck.dtype.kind in "iu"
                and fk.ndim == 2 and fk.shape == ck.shape):
            raise ValueError(f"floor and ceiling faces must be integer 2D planes of one "
                             f"shape, got {fk.dtype} {fk.shape} and {ck.dtype} {ck.shape}")

        def reject(bad: np.ndarray, what: str) -> None:
            if bad.any():
                m, n = np.argwhere(bad)[0].tolist()
                raise ValueError(f"height cell ({m}, {n}) with floor face {fk[m, n]} "
                                 f"and ceiling face {ck[m, n]}: {what}")

        reject((np.minimum(fk, ck) < -1) | (np.maximum(fk, ck) > np.iinfo(np.int32).max),
               "a face lies outside [-1, int32 max]")
        absent = fk < 0
        if (ck >= 0).any():  # a floor-only map has no ceiling to pair
            reject(absent != (ck < 0), "only one of floor and ceiling is present")
            reject(~absent & (ck <= fk), "the ceiling is at or below the floor")
        self.floor_k, self.ceil_k = (k.astype(np.int32, copy=False) for k in (fk, ck))

    @classmethod
    def empty(cls, resolution: float, origin, extent: tuple[int, int]) -> "HeightMap":
        """A map of the given extent with every cell absent.

        Its all -1 planes are made here, so they skip the constructor's
        checks, which exist for faces from outside.
        """
        height = cls.__new__(cls)
        height.resolution, height.origin = resolution, origin
        height.floor_k, height.ceil_k = np.full((2, *extent), -1, dtype=np.int32)
        height.present_box = None
        return height

    @classmethod
    def from_meters(cls, resolution: float, origin: tuple[float, float, float],
                    floor: np.ndarray, ceiling: np.ndarray) -> "HeightMap":
        """Heights in meters, NaN where absent, snapped to the nearest face.

        Raises ValueError for geometry `check_geometry` rejects and, naming
        the first bad cell, for a non-finite height other than NaN, a face
        below origin_z or beyond int32, or faces the constructor rejects.
        """
        check_geometry(ValueError, resolution, origin)
        planes = np.array((floor, ceiling), dtype=np.float64)
        if planes.ndim != 3:
            raise ValueError(f"floor and ceiling must be 2D planes of one shape, "
                             f"got {np.shape(floor)} and {np.shape(ceiling)}")
        absent = np.isnan(planes)
        with np.errstate(over="ignore", invalid="ignore"):
            k = np.rint((planes - origin[2]) / resolution)

        def reject(bad: np.ndarray, what: str) -> None:
            if bad.any():
                m, n = np.argwhere(bad)[0].tolist()
                f, c = planes[:, m, n].tolist()
                raise ValueError(f"height cell ({m}, {n}) with floor {f} and "
                                 f"ceiling {c}: {what}")

        reject(np.isinf(planes).any(axis=0), "a height is not finite")
        reject((~absent & ((k < 0) | (k > np.iinfo(np.int32).max))).any(axis=0),
               "a face lies below origin_z or beyond int32")
        k = np.where(absent, -1, k).astype(np.int32)
        return cls(resolution, tuple(origin), k[0], k[1])

    @property
    def extent(self) -> tuple[int, int]:
        return self.floor_k.shape

    def meters(self, k: np.ndarray) -> np.ndarray:
        """Heights `origin_z + k*res` of face indices; NaN where k < 0."""
        return np.where(k < 0, np.nan, self.origin[2] + k * self.resolution)

    # Meter views for output and inspection, and the present cells' box,
    # built on first read and dropped by set_faces. Writing to the views
    # changes no stored face.
    @cached_property
    def floor(self) -> np.ndarray:
        return self.meters(self.floor_k)

    @cached_property
    def ceiling(self) -> np.ndarray:
        return self.meters(self.ceil_k)

    @cached_property
    def present_box(self) -> tuple[int, int, int, int] | None:
        """Bounding box (m0, m1, n0, n1) of the present cells, None when no
        cell is present; `build_height_map` sets it from its observed box."""
        return nonzero_box(self.floor_k >= 0)

    def set_faces(self, index, floor_k: np.ndarray, ceil_k: np.ndarray) -> None:
        """Store face indices at `index`; -1 marks an absent cell."""
        self.floor_k[index] = floor_k
        self.ceil_k[index] = ceil_k
        for view in ("floor", "ceiling", "present_box"):
            self.__dict__.pop(view, None)

    def window(self, rows: slice, cols: slice) -> tuple[int, int, int, int]:
        """Bounds (m0, m1, n0, n1) of the cells [rows, cols], clipped to the
        map; a slice step other than 1 raises ValueError."""
        m0, m1, dm = rows.indices(self.extent[0])
        n0, n1, dn = cols.indices(self.extent[1])
        if dm != 1 or dn != 1:
            raise ValueError(f"window slices must have step 1, got {rows} and {cols}")
        return m0, max(m0, m1), n0, max(n0, n1)


def pad_block(m0: int, m1: int, n0: int, n1: int, halo: int,
              *planes: np.ndarray) -> np.ndarray:
    """The cells [m0, m1) x [n0, n1), grown by halo cells on every side, of
    each of the M x N face planes given, as one int32 (planes, h, w) array;
    cells past the edge read -1, as absent faces do."""
    M, N = planes[0].shape
    i0, j0 = m0 - halo, n0 - halo  # the grown block's first row and column
    a0, a1, b0, b1 = max(0, i0), min(M, m1 + halo), max(0, j0), min(N, n1 + halo)
    k = np.full((len(planes), m1 + halo - i0, n1 + halo - j0), -1, dtype=np.int32)
    inside = k[:, a0 - i0:a1 - i0, b0 - j0:b1 - j0]
    for i, plane in enumerate(planes):
        inside[i] = plane[a0:a1, b0:b1]
    return k


def grow(box: tuple[int, int, int, int], halo: int, M: int,
         N: int) -> tuple[slice, slice]:
    """Half-open box (m0, m1, n0, n1) grown by halo, clipped to the extent."""
    m0, m1, n0, n1 = box
    return (slice(max(0, m0 - halo), min(M, m1 + halo)),
            slice(max(0, n0 - halo), min(N, n1 + halo)))


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool: ThreadPoolExecutor


def _new_pool() -> None:
    """Make the band pool, one thread per usable CPU; the executor starts
    them on first use. A forked child makes its own: the parent's threads
    were not forked, so a submit to the inherited pool would wait forever."""
    global _pool
    _pool = ThreadPoolExecutor(_cpus(), thread_name_prefix="voxflat-band")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def run_bands(fn: Callable[[slice, slice], None],
              box: tuple[int, int, int, int] | None, rows: int) -> None:
    """fn(row slice, column slice) for every band of the box (m0, m1, n0, n1):
    blocks of at most `rows` whole rows of the box, top to bottom; none if
    the box is None or empty.

    Bands run concurrently on the shared pool, so each call must write only
    its own band of the outputs. One band runs inline on the caller's
    thread. Returns, or raises the error of the first failing band in
    top-to-bottom order, as the serial loop would, only once no band is
    running; bands not yet started when one fails are dropped.
    """
    if box is None or box[0] >= box[1]:
        return
    m0, m1, n0, n1 = box
    if m1 - m0 <= rows:  # one band, as an update's window is: a direct call
        fn(slice(m0, m1), slice(n0, n1))
        return
    futures = []
    try:
        for b0 in range(m0, m1, rows):
            futures.append(_pool.submit(fn, slice(b0, min(b0 + rows, m1)), slice(n0, n1)))
        for future in futures:
            future.result()
    finally:
        for future in futures:
            future.cancel()  # a no-op on bands already run or running
        wait(futures)


def build_height_map(vmap: VoxelMap, min_run: int) -> HeightMap:
    """convert_column over the observed box, in bands of whole rows.

    Only the bounding box of columns holding any voxel (`nonzero_box`) is
    read; columns outside it have no free run, and their cells stay absent.
    A band holds about _BAND_VOXELS voxels of the box; `run_bands` runs them.
    The map's `present_box` is then found inside the observed box, so the
    slope and UAV builds scan no plane of the whole extent for it.
    """
    M, N, K = vmap.extent
    height = HeightMap.empty(vmap.resolution, vmap.origin, (M, N))
    states = vmap.states
    box = nonzero_box(states)

    def band(r: slice, c: slice) -> None:
        height.floor_k[r, c], height.ceil_k[r, c] = convert_column(states[r, c], min_run)

    if box is not None:
        m0, m1, n0, n1 = box
        run_bands(band, box, max(1, _BAND_VOXELS // ((n1 - n0) * K)))
        present = nonzero_box(height.floor_k[m0:m1, n0:n1] >= 0)
        if present is not None:
            a0, a1, b0, b1 = present
            height.present_box = (m0 + a0, m0 + a1, n0 + b0, n0 + b1)
    return height
