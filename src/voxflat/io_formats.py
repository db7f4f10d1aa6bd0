"""Compact on-disk formats for the 2D products, plus size accounting.

Grid files share one layout: a short ASCII header that fully determines the
payload length, then raw row-major cell data. Occupancy cells are one byte
each (255 = unknown, otherwise round(p * 254)); height and slope cells are
little-endian float32 with NaN marking absent cells. No compression: the
formats are meant to be raw and composable with external compressors.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .column_extraction import HeightMap
from .occupancy_maps import OccupancyGrid
from .slope_map import SlopeMap
from .voxel_store import check_geometry, fmt_float, header_fields

_MAGIC = "G2D"
_VERSION = 1
GRID_KINDS = ("occupancy", "height-floor", "height-floor-ceiling", "slope")


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

    def payload_bytes(self) -> int:
        M, N = self.extent
        per_cell = {"occupancy": 1, "height-floor": 4,
                    "height-floor-ceiling": 8, "slope": 4}[self.kind]
        return M * N * per_cell


def _header_bytes(hdr: GridFileHeader) -> bytes:
    M, N = hdr.extent
    ox, oy, oz = hdr.origin
    lines = [
        f"{_MAGIC} {_VERSION}",
        f"kind {hdr.kind}",
        f"extent {M} {N}",
        f"res {fmt_float(hdr.resolution)}",
        f"origin {fmt_float(ox)} {fmt_float(oy)} {fmt_float(oz)}",
    ]
    if hdr.kind == "occupancy":
        lines.append(f"robot {hdr.robot}")
    elif hdr.kind == "slope":
        lines.append(f"window {hdr.window}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse_header(data: bytes, path) -> tuple[GridFileHeader, int]:
    def bad(message: str) -> GridFormatError:
        return GridFormatError(f"{path}: {message}")

    offset = 0
    lines = []
    for _ in range(5):
        nl = data.find(b"\n", offset)
        if nl < 0:
            raise bad("incomplete grid header")
        lines.append(data[offset:nl].decode("ascii", errors="replace"))
        offset = nl + 1
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != _MAGIC:
        raise bad(f"bad magic line {lines[0]!r}")
    if magic[1] != str(_VERSION):
        raise bad(f"unsupported grid format version {magic[1]}")
    kind, = header_fields(lines[1], "kind", 1, str, bad)
    if kind not in GRID_KINDS:
        raise bad(f"unknown grid kind {kind!r}")
    extent = header_fields(lines[2], "extent", 2, int, bad)
    check_geometry(bad, extent=extent)
    res, = header_fields(lines[3], "res", 1, float, bad)
    check_geometry(bad, resolution=res)
    origin = header_fields(lines[4], "origin", 3, float, bad)
    check_geometry(bad, origin=origin)
    robot = None
    window = None
    if kind in ("occupancy", "slope"):
        nl = data.find(b"\n", offset)
        if nl < 0:
            raise bad("incomplete grid header")
        extra = data[offset:nl].decode("ascii", errors="replace")
        offset = nl + 1
        if kind == "occupancy":
            robot, = header_fields(extra, "robot", 1, str, bad)
            if robot not in ("uav", "ugv"):
                raise bad(f"unknown robot tag {robot!r}")
        else:
            window, = header_fields(extra, "window", 1, int, bad)
            if window < 1:
                raise bad(f"slope window must be >= 1, got {window}")
    hdr = GridFileHeader(kind, extent, res, origin, robot, window)
    if len(data) - offset != hdr.payload_bytes():
        raise bad(f"expected {hdr.payload_bytes()} payload bytes, found {len(data) - offset}")
    return hdr, offset


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
    hdr = GridFileHeader("occupancy", grid.extent, grid.resolution,
                         grid.origin, robot=grid.kind)
    quantized = np.full(grid.extent, 255, dtype=np.uint8)
    known = values >= 0.0
    quantized[known] = np.rint(values[known] * 254.0).astype(np.uint8)
    Path(path).write_bytes(_header_bytes(hdr) + quantized.tobytes())


def read_occupancy(path: str | Path) -> OccupancyGrid:
    hdr, (values,) = _read_kind(path, "occupancy")
    return OccupancyGrid(hdr.robot, hdr.resolution, hdr.origin, values)


# -- height ---------------------------------------------------------------


def write_height(height: HeightMap, include_ceiling: bool, path: str | Path) -> None:
    """Row-major float32 floor plane, then the ceiling plane if included."""
    kind = "height-floor-ceiling" if include_ceiling else "height-floor"
    hdr = GridFileHeader(kind, height.extent, height.resolution, height.origin)
    payload = height.floor.astype("<f4").tobytes()
    if include_ceiling:
        payload += height.ceiling.astype("<f4").tobytes()
    Path(path).write_bytes(_header_bytes(hdr) + payload)


def read_height(path: str | Path) -> HeightMap:
    """Read either height kind; floor-only files get an all-NaN ceiling."""
    hdr, planes = _read_kind(path, ("height-floor", "height-floor-ceiling"))
    floor = planes[0]
    ceiling = planes[1] if len(planes) == 2 else np.full(hdr.extent, np.nan)
    return HeightMap(hdr.resolution, hdr.origin, floor, ceiling)


# -- slope ----------------------------------------------------------------


def write_slope(slope: SlopeMap, path: str | Path) -> None:
    """Row-major float32 slope magnitudes; the degeneracy flags stay in memory."""
    hdr = GridFileHeader("slope", slope.extent, slope.resolution, slope.origin,
                         window=slope.neighborhood_cells)
    Path(path).write_bytes(_header_bytes(hdr) + slope.values.astype("<f4").tobytes())


def read_slope(path: str | Path) -> SlopeMap:
    hdr, (values,) = _read_kind(path, "slope")
    return SlopeMap(hdr.resolution, hdr.origin, values,
                    np.zeros(hdr.extent, dtype=bool), hdr.window)


# -- generic --------------------------------------------------------------


def read_grid(path: str | Path) -> tuple[GridFileHeader, list[np.ndarray]]:
    """Read any grid file into float64 planes (occupancy decoded to values)."""
    data = Path(path).read_bytes()
    hdr, offset = _parse_header(data, path)
    payload = data[offset:]
    if hdr.kind == "occupancy":
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(hdr.extent)
        return hdr, [np.where(raw == 255, -1.0, raw / 254.0)]
    # A signalling NaN in the payload reads as an absent cell, quietly.
    with np.errstate(invalid="ignore"):
        planes = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return hdr, list(planes.reshape(-1, *hdr.extent))


def _read_kind(path, kinds) -> tuple[GridFileHeader, list[np.ndarray]]:
    if isinstance(kinds, str):
        kinds = (kinds,)
    hdr, planes = read_grid(path)
    if hdr.kind not in kinds:
        raise GridFormatError(
            f"{path}: expected a {' or '.join(kinds)} file, found kind {hdr.kind!r}"
        )
    return hdr, planes


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


# -- size accounting --------------------------------------------------------


@dataclass(frozen=True)
class SizeReport:
    """Raw byte counts of 2D artifacts relative to the source voxel file."""

    voxel_label: str
    voxel_bytes: int
    entries: tuple[tuple[str, int], ...]

    def percent(self, size: int) -> float:
        return round(size / self.voxel_bytes * 100.0, 1)

    def rows(self) -> list[tuple[str, int, float]]:
        rows = [(self.voxel_label, self.voxel_bytes, 100.0)]
        rows.extend((label, size, self.percent(size)) for label, size in self.entries)
        return rows

    def to_csv(self) -> str:
        out = ["artifact,bytes,percent_of_voxel_map"]
        out.extend(f"{label},{size},{pct:.1f}" for label, size, pct in self.rows())
        return "\n".join(out) + "\n"


def size_report(voxel_path: str | Path, grid_paths: dict | list) -> SizeReport:
    """Compare raw file sizes; an artifact may group several files.

    grid_paths is either a list of paths (labelled by file name) or a mapping
    of label to path or list of paths whose sizes are summed, which covers
    map-plus-height style artifacts.
    """
    voxel_path = Path(voxel_path)
    voxel_bytes = voxel_path.stat().st_size
    if isinstance(grid_paths, dict):
        items = grid_paths.items()
    else:
        items = ((Path(p).name, p) for p in grid_paths)
    entries = []
    for label, paths in items:
        if isinstance(paths, (str, Path)):
            paths = [paths]
        entries.append((label, sum(Path(p).stat().st_size for p in paths)))
    return SizeReport(voxel_path.name, voxel_bytes, tuple(entries))
