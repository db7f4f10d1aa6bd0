"""Compact on-disk formats for the 2D products.

A G2D grid file has the VXG file layout and shares its reader and writer
(`voxel_store`): ASCII header lines, `G2D 1` first, then the raw row-major
cells of each plane. Occupancy cells are one byte each (255 = unknown,
otherwise round(p * 254)); height and slope cells are little-endian float32
with NaN marking absent cells. `_KINDS` holds all that differs by kind. No
compression: the formats are meant to be raw and composable with external
compressors.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .column_extraction import HeightMap, check_positive_int
from .occupancy_maps import OccupancyGrid
from .slope_map import SlopeMap
from .voxel_store import (check_geometry, fmt_float, header_fields, payload,
                          read_header, write_file)


class GridFormatError(ValueError):
    """Grid file is malformed, truncated, or of the wrong kind."""


@dataclass(frozen=True)
class GridFileHeader:
    kind: str
    extent: tuple[int, int]
    resolution: float
    origin: tuple[float, float, float]
    robot: str | None = None  # occupancy files: which map ("uav"/"ugv")
    window: int | None = None  # slope files: fit neighborhood radius, cells


# kind: (dtype of a cell on disk, planes, tag of the extra header line,
# which names a GridFileHeader field)
_KINDS = {
    "occupancy": (np.dtype(np.uint8), 1, "robot"),
    "height-floor": (np.dtype("<f4"), 1, None),
    "height-floor-ceiling": (np.dtype("<f4"), 2, None),
    "slope": (np.dtype("<f4"), 1, "window"),
}


def _write(path: str | Path, hdr: GridFileHeader, *planes: np.ndarray) -> None:
    """Write a grid file, refusing first (ValueError) a geometry read_grid refuses."""
    check_geometry(ValueError, hdr.resolution, hdr.origin, hdr.extent)
    dtype, _, tag = _KINDS[hdr.kind]
    lines = ["G2D 1", f"kind {hdr.kind}", "extent {} {}".format(*hdr.extent),
             f"res {fmt_float(hdr.resolution)}",
             f"origin {' '.join(map(fmt_float, hdr.origin))}"]
    if tag:
        lines.append(f"{tag} {getattr(hdr, tag)}")
    write_file(path, lines, (p.astype(dtype, copy=False) for p in planes))


# -- occupancy ------------------------------------------------------------


def _occupancy_values(grid: OccupancyGrid) -> np.ndarray:
    """The grid's values, each checked to be -1 (unknown) or in [0, 1]."""
    values = grid.values
    bad = ~((values == -1.0) | ((values >= 0.0) & (values <= 1.0)))
    if bad.any():
        m, n = np.argwhere(bad)[0].tolist()
        raise ValueError(f"occupancy cell ({m}, {n}) holds {values[m, n]}, "
                         "neither -1 (unknown) nor in [0, 1]")
    return values


def write_occupancy(grid: OccupancyGrid, path: str | Path) -> None:
    """One byte per cell: 255 = unknown, else round(p * 254) in [0, 254].

    A value neither -1 nor in [0, 1] raises ValueError naming its cell.
    """
    values = _occupancy_values(grid)
    quantized = np.full(grid.extent, 255, dtype=np.uint8)
    known = values >= 0.0
    quantized[known] = np.rint(values[known] * 254.0).astype(np.uint8)
    _write(path, GridFileHeader("occupancy", grid.extent, grid.resolution,
                                grid.origin, robot=grid.kind), quantized)


def read_occupancy(path: str | Path) -> OccupancyGrid:
    return _read_kind(path, ("occupancy",), lambda hdr, values: OccupancyGrid(
        hdr.robot, hdr.resolution, hdr.origin, values))


# -- height ---------------------------------------------------------------


def write_height(height: HeightMap, include_ceiling: bool, path: str | Path) -> None:
    """Row-major float32 floor plane, then the ceiling plane if included."""
    kind = "height-floor-ceiling" if include_ceiling else "height-floor"
    planes = (height.floor, height.ceiling) if include_ceiling else (height.floor,)
    _write(path, GridFileHeader(kind, height.extent, height.resolution,
                                height.origin), *planes)


def read_height(path: str | Path) -> HeightMap:
    """Read either height kind, snapping heights to the nearest voxel face;
    floor-only files read every ceiling as absent. The cells that
    `HeightMap.from_meters` rejects raise GridFormatError naming the cell."""
    def build(hdr, floor, ceiling=None):
        if ceiling is None:
            ceiling = np.full(hdr.extent, np.nan)
        return HeightMap.from_meters(hdr.resolution, hdr.origin, floor, ceiling)
    return _read_kind(path, ("height-floor", "height-floor-ceiling"), build)


# -- slope ----------------------------------------------------------------


def _slope_cells(values: np.ndarray) -> np.ndarray:
    """The float32 cells of slope magnitudes, each NaN (absent) or finite and
    >= 0; any other raises ValueError naming the first such cell."""
    with np.errstate(over="ignore"):
        cells = values.astype(_KINDS["slope"][0])
    bad = (values < 0.0) | np.isinf(cells)
    if bad.any():
        m, n = np.argwhere(bad)[0].tolist()
        raise ValueError(f"slope cell ({m}, {n}) holds {values[m, n]}, "
                         "neither NaN (absent) nor a finite float32 >= 0")
    return cells


def write_slope(slope: SlopeMap, path: str | Path) -> None:
    """Row-major float32 slope magnitudes; the degeneracy flags stay in memory.
    What read_slope would refuse raises ValueError before the file is opened:
    a window that is not an int >= 1, or a cell `_slope_cells` refuses."""
    check_positive_int(slope.neighborhood_cells, "slope window")
    cells = _slope_cells(slope.values)
    _write(path, GridFileHeader("slope", slope.extent, slope.resolution, slope.origin,
                                window=slope.neighborhood_cells), cells)


def read_slope(path: str | Path) -> SlopeMap:
    """A cell that `_slope_cells` refuses raises GridFormatError naming it."""
    def build(hdr, values):
        _slope_cells(values)
        return SlopeMap(hdr.resolution, hdr.origin, values,
                        np.zeros(hdr.extent, dtype=bool), hdr.window)
    return _read_kind(path, ("slope",), build)


# -- generic --------------------------------------------------------------


def read_grid(path: str | Path) -> tuple[GridFileHeader, list[np.ndarray]]:
    """Read any grid file into float64 planes (occupancy decoded to values)."""
    def bad(message: str) -> GridFormatError:
        return GridFormatError(f"{path}: {message}")

    with open(path, "rb") as f:
        lines = read_header(f, "G2D", 1, 5, bad, bad)
        kind, = header_fields(lines[1], "kind", 1, str, bad)
        if kind not in _KINDS:
            raise bad(f"unknown grid kind {kind!r}")
        dtype, count, tag = _KINDS[kind]
        extent = header_fields(lines[2], "extent", 2, int, bad)
        check_geometry(bad, extent=extent)
        res, = header_fields(lines[3], "res", 1, float, bad)
        check_geometry(bad, resolution=res)
        origin = header_fields(lines[4], "origin", 3, float, bad)
        check_geometry(bad, origin=origin)
        extra = {}
        if tag:
            # A line cut short by the end of the file leaves no payload.
            line = f.readline().decode("ascii", errors="replace").removesuffix("\n")
            value, = header_fields(line, tag, 1, int if tag == "window" else str, bad)
            if tag == "robot" and value not in ("uav", "ugv"):
                raise bad(f"unknown robot tag {value!r}")
            if tag == "window" and value < 1:
                raise bad(f"slope window must be >= 1, got {value}")
            extra[tag] = value
        f = payload(f, count * extent[0] * extent[1] * dtype.itemsize, bad)
        raw = np.empty((count, *extent), dtype)
        if f.readinto(raw) != raw.nbytes:
            raise bad("payload ended early")
    # Occupancy byte q reads as q / 254, 255 as -1 (unknown); a signalling
    # NaN in a float payload reads as an absent cell, quietly.
    with np.errstate(invalid="ignore"):
        planes = (np.where(raw == 255, -1.0, raw / 254.0) if raw.dtype == np.uint8
                  else raw.astype(np.float64))
    return GridFileHeader(kind, extent, res, origin, **extra), list(planes)


def check_same_cells(message: str, *named: tuple[str, object], tags: tuple[str, ...] = ()
                     ) -> None:
    """Raise ValueError(f"{message}: ...") naming each (file name, grid) pair
    and its geometry unless the grids cover the same cells (equal extent,
    resolution and x/y origin) and agree on the header fields named in `tags`."""
    keys = [(*(getattr(grid, t) for t in tags), *grid.extent, grid.resolution,
             *grid.origin[:2]) for _, grid in named]
    if len(set(keys)) > 1:
        raise ValueError(f"{message}: " + " vs ".join(" ".join(
            [name, *(f"{t} {v}" for t, v in zip(tags, key) if v is not None),
             "extent {}x{} res {} origin ({}, {})".format(*key[len(tags):])])
            for (name, _), key in zip(named, keys)))


def _read_kind(path, kinds: tuple[str, ...], build):
    """build(header, *planes) of a grid file of one of `kinds`; a cell that
    build refuses (ValueError) raises GridFormatError naming the path."""
    hdr, planes = read_grid(path)
    if hdr.kind not in kinds:
        raise GridFormatError(
            f"{path}: expected a {' or '.join(kinds)} file, found kind {hdr.kind!r}"
        )
    try:
        return build(hdr, *planes)
    except ValueError as e:
        raise GridFormatError(f"{path}: {e}") from None


# -- PGM export -------------------------------------------------------------


def write_occupancy_pgm(grid: OccupancyGrid, path: str | Path) -> None:
    """Plain ASCII PGM for external viewers: unknown mid-gray 127, free light.

    Rows run from the highest y index down so +y points up in the image.
    Known cells map to 255 - round(p * 255); a known cell that would collide
    with the reserved 127 is nudged to 126. Values are checked as
    `write_occupancy` checks them.
    """
    values = _occupancy_values(grid)
    M, N = values.shape
    gray = 255 - np.rint(values * 255.0).astype(np.int64)
    gray[gray == 127] = 126
    gray[values < 0.0] = 127
    rows = "".join(" ".join(map(str, row)) + "\n" for row in gray.T[::-1].tolist())
    Path(path).write_text(f"P2\n{M} {N}\n255\n" + rows, encoding="ascii")
