"""Synthetic voxel scenes with analytic ground truth for oracle testing.

Each generator builds a voxel map plus a truth grid stating, per 2D cell,
the expected floor/ceiling height, floor slope, and occupancy class wherever
the construction makes those values certain. Cells whose outcome depends on
boundary effects are left unclaimed rather than guessed.

Scenes share a frame: a one-cell Unknown margin ring, a one-cell full-height
wall ring, and the interior. Slope and ground-robot class claims assume the
default conversion parameters (they bake in the fit window and the
traversable-slope threshold); the verifier below checks exactly those
claims against converted grids.

Every interior is y-invariant slice by slice, so a scene is stated as its x
slices: slice m holds one voxel column, used for every y, and that column's
claims (floor and ceiling as voxel face indices, slope, aerial class).
One assembler frames the slices, extrudes them along y, turns faces into
heights with the pipeline's own `HeightMap.set_faces`, and derives the wall
ring and ground-robot claims. Flat-room clutter pillars are the only
columns that break the slice model; the assembler places them and clears
the claims their fit windows reach.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .column_extraction import HeightMap
from .occupancy_maps import OccupancyGrid
from .params import ConversionParams
from .slope_map import SlopeMap
from .voxel_store import VoxelMap, VoxelState

SCENE_KINDS = ("flat-room", "ramp", "step", "overhang", "low-wall",
               "crawl-space", "composite")

# Occupancy class claims.
CLAIM_NONE = -2
CLASS_UNKNOWN = -1
CLASS_FREE = 0
CLASS_OCCUPIED = 1

_CLASS_NAMES = {CLASS_UNKNOWN: "unknown", CLASS_FREE: "free", CLASS_OCCUPIED: "occupied"}
_CLASS_CODES = {v: k for k, v in _CLASS_NAMES.items()}

# Ground-robot claims keep a guard band around the slope threshold so that
# cells landing exactly on it stay unclaimed instead of flapping.
_SLOPE_GUARD = 0.05


@dataclass(frozen=True)
class SceneSpec:
    """Which scene to build and its dimensional parameters (meters)."""

    kind: str
    size_x: float = 6.0
    size_y: float = 4.0
    height: float = 3.0  # flat ceiling height; for ramp/step: headroom above the floor
    resolution: float = 0.1
    seed: int = 0
    slope: float = 0.5           # ramp rise/run; multiples of 0.5
    step_height: float = 1.0     # step scenes
    wall_height: float = 1.2     # low-wall scenes
    wall_thickness: int = 4      # low-wall scenes, cells
    gap: float = 0.5             # crawl-space gap height
    beam_low: float = 1.2        # overhang underside
    beam_high: float = 2.0       # overhang top
    observed_above: bool = True  # low-wall: was the space above the wall mapped?
    clutter: int = 0             # flat-room: random pillars

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if min(self.size_x, self.size_y, self.height) <= 0:
            raise ValueError("scene dimensions must be positive")
        if self.clutter and self.kind != "flat-room":
            raise ValueError("clutter is only supported for flat-room")


@dataclass
class SceneTruth:
    """Per-cell expectations; NaN / CLAIM_NONE means no claim for that cell."""

    kind: str
    resolution: float
    origin: tuple[float, float, float]
    extent: tuple[int, int, int]
    floor: np.ndarray
    ceiling: np.ndarray
    slope: np.ndarray
    uav: np.ndarray
    ugv: np.ndarray
    spec: dict = field(default_factory=dict)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="ascii")

    def to_json(self) -> str:
        def grid(a):
            return [[None if v != v else v for v in row] for row in a.tolist()]

        def classes(a):
            return [[_CLASS_NAMES.get(v) for v in row] for row in a.tolist()]

        doc = {
            "format": "voxflat-scene-truth",
            "version": 1,
            "kind": self.kind,
            "resolution": self.resolution,
            "origin": list(self.origin),
            "extent": list(self.extent),
            "spec": self.spec,
            "floor": grid(self.floor),
            "ceiling": grid(self.ceiling),
            "slope": grid(self.slope),
            "uav": classes(self.uav),
            "ugv": classes(self.ugv),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def read(cls, path: str | Path) -> "SceneTruth":
        """Load a truth file; any malformed document raises ValueError naming
        the path, and every grid must match the extent's (M, N)."""
        def bad(what):
            return ValueError(f"{path}: {what}")

        try:
            doc = json.loads(Path(path).read_text(encoding="ascii"))
        except ValueError as e:  # not ASCII, or not JSON
            raise bad(f"not a scene truth file ({e})") from e
        if (not isinstance(doc, dict) or doc.get("format") != "voxflat-scene-truth"
                or doc.get("version") != 1):
            raise bad("not a scene truth file")
        missing = {"kind", "resolution", "origin", "extent", "floor", "ceiling",
                   "slope", "uav", "ugv"} - doc.keys()
        if missing:
            raise bad(f"missing {', '.join(sorted(missing))}")
        kind, res, origin, extent = (doc[k] for k in ("kind", "resolution", "origin", "extent"))
        if not isinstance(kind, str):
            raise bad(f"kind must be a string, got {kind!r}")
        if not (_is_number(res) and 0 < res < math.inf):
            raise bad(f"resolution must be a positive number, got {res!r}")
        if not (isinstance(origin, list) and len(origin) == 3
                and all(_is_number(c) for c in origin)):
            raise bad(f"origin must be three numbers, got {origin!r}")
        if not (isinstance(extent, list) and len(extent) == 3
                and all(isinstance(e, int) and not isinstance(e, bool) and e >= 1
                        for e in extent)):
            raise bad(f"extent must be three counts >= 1, got {extent!r}")
        spec = doc.get("spec", {})
        if not isinstance(spec, dict):
            raise bad(f"spec must be an object, got {spec!r}")

        def grid(name, cell, dtype):
            rows = doc[name]
            if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
                raise bad(f"{name} must be a list of rows")
            if [len(r) for r in rows] != [extent[1]] * extent[0]:
                raise bad(f"{name} grid does not match the extent {extent[0]}x{extent[1]}")
            try:
                return np.array([[cell(v) for v in row] for row in rows], dtype=dtype)
            except (TypeError, ValueError, OverflowError) as e:
                raise bad(f"{name}: {e}") from None

        def height(v):
            if v is None:
                return np.nan
            if not _is_number(v):
                raise TypeError(f"cell {v!r} is not a number or null")
            return v

        def occupancy(v):
            if v is not None and (not isinstance(v, str) or v not in _CLASS_CODES):
                raise ValueError(f"cell {v!r} is not a class name or null")
            return _CLASS_CODES.get(v, CLAIM_NONE)

        return cls(kind, res, tuple(origin), tuple(extent),
                   grid("floor", height, float), grid("ceiling", height, float),
                   grid("slope", height, float), grid("uav", occupancy, np.int8),
                   grid("ugv", occupancy, np.int8), spec)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def generate(spec: SceneSpec) -> tuple[VoxelMap, SceneTruth]:
    """Build the scene's voxel map and its analytic truth grid."""
    builder = {
        "flat-room": _flat_room,
        "ramp": _ramp,
        "step": _step,
        "overhang": _overhang,
        "low-wall": _low_wall,
        "crawl-space": _crawl_space,
        "composite": _composite,
    }[spec.kind]
    return _assemble(spec, builder(spec))


def verify_against_truth(truth: SceneTruth, height: HeightMap, slope: SlopeMap,
                         uav: OccupancyGrid, ugv: OccupancyGrid,
                         slope_tol: float = 1e-9) -> list[str]:
    """Check converted grids against a truth grid; returns mismatch messages.

    Floors and ceilings must match exactly and slopes within slope_tol (a NaN
    reading fails); occupancy values must fall in the claimed class.
    """
    problems: list[str] = []
    for name, want, got, ok in (
            ("floor", truth.floor, height.floor, height.floor == truth.floor),
            ("ceiling", truth.ceiling, height.ceiling, height.ceiling == truth.ceiling),
            ("slope", truth.slope, slope.values,
             np.abs(slope.values - truth.slope) <= slope_tol)):
        for m, n in np.argwhere(~np.isnan(want) & ~ok):
            problems.append(f"{name} ({m},{n}): expected {want[m, n]}, got {got[m, n]}")
    for name, claim, v in (("uav", truth.uav, uav.values), ("ugv", truth.ugv, ugv.values)):
        ok = (((claim == CLASS_FREE) & (v == 0.0)) | ((claim == CLASS_OCCUPIED) & (v > 0.0))
              | ((claim == CLASS_UNKNOWN) & (v == -1.0)))
        for m, n in np.argwhere((claim != CLAIM_NONE) & ~ok):
            problems.append(f"{name} ({m},{n}): expected "
                            f"{_CLASS_NAMES[int(claim[m, n])]}, got {v[m, n]}")
    return problems


# -- construction helpers ---------------------------------------------------

_BORDER = 2  # margin ring + wall ring
_OCC = int(VoxelState.OCCUPIED)
_FREE = int(VoxelState.FREE)
_PARAMS = ConversionParams()


@dataclass
class _Slices:
    """The interior's x slices; entry m stands for every column of slice m.

    column is the (ix, K) voxel states; floor_k and ceil_k the claimed floor
    and ceiling voxel faces (-1: no claim); slope the claimed slope (NaN: no
    claim); uav the claimed aerial class (CLAIM_NONE: no claim).
    """

    column: np.ndarray
    floor_k: np.ndarray
    ceil_k: np.ndarray
    slope: np.ndarray
    uav: np.ndarray


def _columns(floor_k, K: int, top: int | None = None) -> np.ndarray:
    """Columns solid below floor_k, free up to the solid slab from top
    (default: the one-voxel ceiling slab at K - 1)."""
    k = np.arange(K)
    solid = (k < np.asarray(floor_k)[..., None]) | (k >= (K - 1 if top is None else top))
    return np.where(solid, _OCC, _FREE).astype(np.uint8)


def _profile(profile: np.ndarray, K: int) -> _Slices:
    """Slices solid below profile[m] and free up to the ceiling slab, with
    their floors, ceilings and free aerial class claimed; no slope claims."""
    ix = len(profile)
    return _Slices(_columns(profile, K), np.array(profile), np.full(ix, K - 1),
                   np.full(ix, np.nan), np.full(ix, CLASS_FREE, dtype=np.int8))


def _profile_slopes(floor_k: np.ndarray, res: float) -> np.ndarray:
    """Exact fit result for full windows of y-invariant floor data.

    A full rectangular window makes the y terms drop out, so the 2D fit
    reduces to this 1D weighted sum; y-truncation near the side walls
    keeps the window rectangular and does not disturb it. The sums run on
    the voxel face indices (the offsets sum to zero, so origin_z and res
    cancel), which makes each claim the exactly rounded rise/run. Claims
    stop one window short of interior x edges and of slices without a floor.
    """
    sa = _PARAMS.slope_radius_cells(res)
    offsets = range(-sa, sa + 1)
    n = max(len(floor_k) - 2 * sa, 0)
    window = [floor_k[sa + d:sa + d + n] for d in offsets]
    acc = sum(d * w for d, w in zip(offsets, window))
    full = np.logical_and.reduce([w >= 0 for w in window])
    slope = np.full(len(floor_k), np.nan)
    slope[sa:sa + n][full] = np.abs(acc[full]) / sum(d * d for d in offsets)
    return slope


def _strip(s: _Slices, lo: int, hi: int, column: np.ndarray, uav: int,
           ends: int | None = None) -> None:
    """Slices lo..hi-1 become `column` with no height or slope claim and
    aerial class `uav`; `ends`, if given, is the class of the two end slices."""
    s.column[lo:hi] = column
    s.floor_k[lo:hi] = -1
    s.ceil_k[lo:hi] = -1
    s.slope[lo:hi] = np.nan
    s.uav[lo:hi] = uav
    if ends is not None:
        s.uav[[lo, hi - 1]] = ends


def _assemble(spec: SceneSpec, s: _Slices) -> tuple[VoxelMap, SceneTruth]:
    """Frame the slices with the margin and wall rings, extrude them along
    y, place any clutter pillars, and derive the ring and ground-robot claims."""
    res = spec.resolution
    ix, K = s.column.shape
    iy = _cells(spec.size_y, res)
    M, N = ix + 2 * _BORDER, iy + 2 * _BORDER
    vmap = VoxelMap(res, (0.0, 0.0, 0.0), (M, N, K))
    voxels = vmap._voxels
    inner = (slice(_BORDER, M - _BORDER), slice(_BORDER, N - _BORDER))
    voxels[1:M - 1, 1:N - 1] = _OCC  # full height; the interior then leaves the wall ring
    voxels[inner] = s.column[:, None]

    def extrude(per_slice, fill):
        grid = np.full((M, N), fill, dtype=per_slice.dtype)
        grid[inner] = per_slice[:, None]
        return grid

    heights = HeightMap(res, vmap.origin, np.full((M, N), np.nan), np.full((M, N), np.nan))
    heights.set_faces(inner, s.floor_k[:, None], s.ceil_k[:, None])
    floor, ceiling = heights.floor, heights.ceiling
    slope = extrude(s.slope, np.nan)
    uav = extrude(s.uav, CLAIM_NONE)
    if spec.clutter:
        rng = np.random.default_rng(spec.seed)
        pillar = _columns(1 + _cells(0.5, res), K)
        pad = _PARAMS.slope_radius_cells(res) + 1
        for _ in range(spec.clutter):
            m = _BORDER + int(rng.integers(0, ix))
            n = _BORDER + int(rng.integers(0, iy))
            voxels[m, n] = pillar
            box = (slice(max(0, m - pad), m + pad + 1), slice(max(0, n - pad), n + pad + 1))
            floor[box] = ceiling[box] = slope[box] = np.nan
            uav[box] = CLAIM_NONE
    # Margin ring: nothing was ever written near it, so it stays unknown.
    uav[[0, M - 1], :] = CLASS_UNKNOWN
    uav[:, [0, N - 1]] = CLASS_UNKNOWN
    # Wall ring: full-height walls read as occupied wherever they touch a
    # cell claimed free; elsewhere their class depends on unclaimed cells.
    free = np.pad(uav == CLASS_FREE, 1)
    near_free = np.zeros((M, N), dtype=bool)
    for dm in range(3):
        for dn in range(3):
            near_free |= free[dm:dm + M, dn:dn + N]
    ring = np.zeros((M, N), dtype=bool)
    ring[1:M - 1, 1:N - 1] = True
    ring[inner] = False
    uav[ring & near_free] = CLASS_OCCUPIED
    # Ground-robot claims follow the aerial ones, with steep free cells
    # flipping to occupied and unclaimed or near-threshold slopes unclaimed.
    ugv = uav.copy()
    free = uav == CLASS_FREE
    steep = _PARAMS.max_slope * (1 + _SLOPE_GUARD)
    gentle = _PARAMS.max_slope * (1 - _SLOPE_GUARD)
    ugv[free & (slope > steep)] = CLASS_OCCUPIED
    ugv[free & ~(slope < gentle) & ~(slope > steep)] = CLAIM_NONE
    truth = SceneTruth(spec.kind, res, vmap.origin, vmap.extent, floor, ceiling,
                       slope, uav, ugv, spec=asdict(spec))
    return vmap, truth


def _cells(meters: float, res: float) -> int:
    return max(1, round(meters / res))


def _require_navigable(height_m: float, what: str) -> None:
    if height_m < _PARAMS.min_clearance:
        raise ValueError(
            f"{what} is {height_m:.2f} m tall, below the safety margin "
            f"{_PARAMS.min_clearance} m; the scene's free-space claims "
            f"would not hold"
        )


def _headroom(spec: SceneSpec) -> int:
    """Free voxels above the highest floor of a profile scene, which must
    reach the safety margin for the free-space claims to hold."""
    cells = _cells(spec.height, spec.resolution)
    _require_navigable(cells * spec.resolution, "headroom")
    return cells


# -- scene builders: each returns its interior slices -------------------------


def _flat_room(spec: SceneSpec) -> _Slices:
    K = _cells(spec.height, spec.resolution)
    _require_navigable((K - 2) * spec.resolution, "room")
    s = _profile(np.ones(_cells(spec.size_x, spec.resolution), dtype=int), K)
    # A flat floor fits a zero-slope plane exactly from any sample subset,
    # so the claim extends through truncated windows at the edges.
    s.slope[:] = 0.0
    return s


def _ramp(spec: SceneSpec) -> _Slices:
    # Rises `rise2` voxels every two cells; restricting the grade to
    # multiples of 0.5 keeps the fitted slope exactly on the nominal value.
    rise2 = round(2 * spec.slope)
    if rise2 < 1 or abs(rise2 / 2 - spec.slope) > 1e-12:
        raise ValueError(f"ramp slope must be a positive multiple of 0.5, got {spec.slope}")
    profile = 1 + rise2 * np.arange(_cells(spec.size_x, spec.resolution)) // 2
    s = _profile(profile, int(profile.max()) + _headroom(spec) + 1)
    s.slope = _profile_slopes(s.floor_k, spec.resolution)
    return s


def _step(spec: SceneSpec) -> _Slices:
    ix = _cells(spec.size_x, spec.resolution)
    rise = _cells(spec.step_height, spec.resolution)
    profile = np.where(np.arange(ix) < ix // 2, 1, 1 + rise)
    s = _profile(profile, 1 + rise + _headroom(spec) + 1)
    s.slope = _profile_slopes(s.floor_k, spec.resolution)
    return s


def _overhang(spec: SceneSpec) -> _Slices:
    if not 0 < spec.beam_low < spec.beam_high:
        raise ValueError("overhang needs 0 < beam_low < beam_high")
    ix = _cells(spec.size_x, spec.resolution)
    K = _cells(spec.height, spec.resolution)
    lo = _cells(spec.beam_low, spec.resolution)
    hi = _cells(spec.beam_high, spec.resolution)
    if hi >= K - 1:
        raise ValueError("beam must sit below the ceiling slab")
    _require_navigable((lo - 1) * spec.resolution, "space under the beam")
    if (K - 1 - hi) * spec.resolution >= _PARAMS.min_clearance:
        raise ValueError("space above the beam must stay below the safety "
                         "margin for the ceiling claim to hold")
    s = _profile(np.ones(ix, dtype=int), K)
    s.slope[:] = 0.0
    # Free space above the beam is thinner than the safety margin, so the
    # navigable ceiling under the beam is the beam's underside.
    beam = slice(ix // 3, ix - ix // 3)
    s.column[beam, lo:hi] = _OCC
    s.ceil_k[beam] = lo
    return s


def _low_wall(spec: SceneSpec) -> _Slices:
    ix = _cells(spec.size_x, spec.resolution)
    K = _cells(spec.height, spec.resolution)
    wh = _cells(spec.wall_height, spec.resolution)
    t = int(spec.wall_thickness)
    if t < 1:
        raise ValueError("wall_thickness must be >= 1 cell")
    if t > ix:
        raise ValueError(f"wall_thickness {t} cells exceeds the room's {ix}")
    wx0 = (ix - t) // 2
    profile = np.ones(ix, dtype=int)
    if spec.observed_above:
        _require_navigable((K - 1 - (wh + 1)) * spec.resolution, "space above the wall")
        profile[wx0:wx0 + t] = wh + 1
        s = _profile(profile, K)
        s.slope = _profile_slopes(s.floor_k, spec.resolution)
        return s
    # The space above the wall was never scanned: the wall columns hold only
    # the occupied slab, so they have no navigable free range and read as
    # unknown in both maps (their occupied overlap with the neighboring rooms
    # is far below the reporting threshold).
    if wh / (K - 2) >= _PARAMS.min_occupancy * (1 - _SLOPE_GUARD):
        raise ValueError("unobserved wall too tall to stay invisible")
    s = _profile(profile, K)
    # The remaining flat floor fits a zero plane exactly even with the wall
    # columns missing from the window.
    s.slope[:] = 0.0
    wall = np.zeros(K, dtype=np.uint8)
    wall[:wh + 1] = _OCC
    _strip(s, wx0, wx0 + t, wall, CLASS_UNKNOWN)
    return s


def _crawl_strip(s: _Slices, lo: int, hi: int, gap_k: int) -> None:
    """Crawl columns: the gap is below the safety margin, so none are free.
    Edge slices see the free rooms and report the solid block above the
    gap; inner slices have no free neighbor at all."""
    K = s.column.shape[1]
    _strip(s, lo, hi, _columns(1, K, top=gap_k + 1), CLASS_UNKNOWN, ends=CLASS_OCCUPIED)


def _crawl_space(spec: SceneSpec) -> _Slices:
    ix = _cells(spec.size_x, spec.resolution)
    K = _cells(spec.height, spec.resolution)
    gk = _cells(spec.gap, spec.resolution)
    if gk + 2 >= K:
        raise ValueError("crawl gap must sit below the room ceiling")
    if gk * spec.resolution >= _PARAMS.min_clearance:
        raise ValueError("crawl gap must be below the safety margin "
                         "for its cells to stay non-free")
    _require_navigable((K - 2) * spec.resolution, "room")
    s = _profile(np.ones(ix, dtype=int), K)
    s.slope[:] = 0.0
    _crawl_strip(s, ix // 3, ix - ix // 3, gk)
    return s


def _composite(spec: SceneSpec) -> _Slices:
    """Canonical mixed scene: flat, ramp, plateau, step down, low wall, crawl.

    Segment layout is fixed in cells; size_x is ignored. Fit windows cut by
    the crawl strip keep a zero-slope claim only where every other slice in
    the window sits at the base level, so they still see a perfect plane.
    """
    res = spec.resolution
    flat0, rampw, plateau, flat1, wallw, crawlw, flat2 = 10, 16, 10, 10, 14, 8, 12
    ramp = 1 + np.arange(1, rampw + 1) // 2  # 0.5 grade
    wall = np.ones(wallw, dtype=int)
    wall[(wallw - 4) // 2:(wallw + 4) // 2] = _cells(1.2, res) + 1
    profile = np.concatenate([np.ones(flat0, dtype=int), ramp,
                              np.full(plateau, ramp[-1]),  # then step down to the base
                              np.ones(flat1, dtype=int), wall,
                              np.ones(crawlw + flat2, dtype=int)])
    s = _profile(profile, int(profile.max()) + _headroom(spec) + 1)
    crawl0 = len(profile) - flat2 - crawlw
    _crawl_strip(s, crawl0, crawl0 + crawlw, _cells(0.5, res))
    s.slope = _profile_slopes(s.floor_k, res)
    sa = _PARAMS.slope_radius_cells(res)
    for m in np.flatnonzero(s.floor_k >= 0):
        window = s.floor_k[max(0, m - sa):m + sa + 1]
        if (window < 0).any() and (window[window >= 0] == 1).all():
            s.slope[m] = 0.0
    return s
