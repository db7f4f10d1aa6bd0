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
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .column_extraction import HeightMap
from .occupancy_maps import OccupancyGrid
from .params import ConversionParams
from .slope_map import SlopeMap
from .voxel_store import VoxelMap, VoxelState

SCENE_KINDS = ("flat-room", "corridor", "ramp", "step", "overhang",
               "low-wall", "crawl-space", "composite")

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
    clutter: int = 0             # flat-room/corridor: random pillars

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if min(self.size_x, self.size_y, self.height) <= 0:
            raise ValueError("scene dimensions must be positive")
        if self.clutter and self.kind not in ("flat-room", "corridor"):
            raise ValueError("clutter is only supported for flat-room and corridor")


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
        doc = json.loads(Path(path).read_text(encoding="ascii"))
        if doc.get("format") != "voxflat-scene-truth" or doc.get("version") != 1:
            raise ValueError(f"{path}: not a scene truth file")

        def grid(rows):
            return np.array([[np.nan if v is None else v for v in row] for row in rows])

        def classes(rows):
            return np.array([[_CLASS_CODES.get(v, CLAIM_NONE) for v in row]
                             for row in rows], dtype=np.int8)

        return cls(doc["kind"], doc["resolution"], tuple(doc["origin"]),
                   tuple(doc["extent"]), grid(doc["floor"]), grid(doc["ceiling"]),
                   grid(doc["slope"]), classes(doc["uav"]), classes(doc["ugv"]),
                   doc.get("spec", {}))


def generate(spec: SceneSpec) -> tuple[VoxelMap, SceneTruth]:
    """Build the scene's voxel map and its analytic truth grid."""
    builder = {
        "flat-room": _flat_room,
        "corridor": _flat_room,
        "ramp": _ramp,
        "step": _step,
        "overhang": _overhang,
        "low-wall": _low_wall,
        "crawl-space": _crawl_space,
        "composite": _composite,
    }[spec.kind]
    return builder(spec)


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


class _Builder:
    def __init__(self, spec: SceneSpec, ix: int, iy: int, K: int):
        self.spec = spec
        self.ix = ix
        self.iy = iy
        self.K = K
        self.res = spec.resolution
        M = ix + 2 * _BORDER
        N = iy + 2 * _BORDER
        self.M = M
        self.N = N
        self.vmap = VoxelMap(spec.resolution, (0.0, 0.0, 0.0), (M, N, K))
        self.floor = np.full((M, N), np.nan)
        self.ceiling = np.full((M, N), np.nan)
        self.slope = np.full((M, N), np.nan)
        self.uav = np.full((M, N), CLAIM_NONE, dtype=np.int8)
        self.ugv = np.full((M, N), CLAIM_NONE, dtype=np.int8)
        self.params = ConversionParams()
        self.sa = self.params.slope_radius_cells(spec.resolution)
        self._fill_wall_ring()

    # world z of voxel face k, the exact expression the pipeline uses
    def z(self, k: int) -> float:
        return self.vmap.origin[2] + k * self.res

    def _fill_wall_ring(self):
        M, N, K = self.M, self.N, self.K
        occ = VoxelState.OCCUPIED
        self.vmap.fill_box(1, M - 1, 1, 2, 0, K, occ)
        self.vmap.fill_box(1, M - 1, N - 2, N - 1, 0, K, occ)
        self.vmap.fill_box(1, 2, 2, N - 2, 0, K, occ)
        self.vmap.fill_box(M - 2, M - 1, 2, N - 2, 0, K, occ)

    def column_template(self, floor_idx: int, ceiling_idx: int | None = None) -> np.ndarray:
        """Solid below floor_idx, free up to the ceiling slab at the top."""
        top = self.K - 1 if ceiling_idx is None else ceiling_idx
        col = np.zeros(self.K, dtype=np.uint8)
        col[:floor_idx] = int(VoxelState.OCCUPIED)
        col[floor_idx:top] = int(VoxelState.FREE)
        col[top:] = int(VoxelState.OCCUPIED)
        return col

    def set_interior_column(self, mrel: int, nrel: int, template: np.ndarray):
        self.vmap._voxels[mrel + _BORDER, nrel + _BORDER] = template

    def fill_profile(self, profile: np.ndarray, holes: set[int] | None = None):
        """Solid-below / free-above columns over the whole interior.

        profile[mrel] is the first free voxel index of that x slice; holes
        are x slices skipped entirely (filled by the caller).
        """
        for mrel in range(self.ix):
            if holes and mrel in holes:
                continue
            template = self.column_template(int(profile[mrel]))
            for nrel in range(self.iy):
                self.set_interior_column(mrel, nrel, template)

    def claim_profile_heights(self, profile: np.ndarray, holes: set[int] | None = None):
        top = self.z(self.K - 1)
        for mrel in range(self.ix):
            if holes and mrel in holes:
                continue
            f = self.z(int(profile[mrel]))
            sl = self.interior_slice(mrel)
            self.floor[sl] = f
            self.ceiling[sl] = top
            self.uav[sl] = CLASS_FREE

    def claim_profile_slopes(self, profile: np.ndarray,
                             holes: set[int] | None = None):
        """Exact fit result for full windows of y-invariant floor data.

        A full rectangular window makes the y terms drop out, so the 2D fit
        reduces to this 1D weighted sum; y-truncation near the side walls
        keeps the window rectangular and does not disturb it. The sums run on
        the profile's voxel indices (the offsets sum to zero, so origin_z and
        res cancel), which makes each claim the exactly rounded rise/run.
        Claims stop one window short of interior x edges and holes.
        """
        sa = self.sa
        denom = sum(d * d for d in range(-sa, sa + 1))
        for mrel in range(sa, self.ix - sa):
            window = range(mrel - sa, mrel + sa + 1)
            if holes and any(w in holes for w in window):
                continue
            acc = sum(d * int(profile[mrel + d]) for d in range(-sa, sa + 1))
            self.slope[self.interior_slice(mrel)] = abs(acc) / denom

    def claim_flat_slope_everywhere(self):
        # A flat floor fits a zero-slope plane exactly from any sample subset,
        # so the claim extends through truncated windows at the edges.
        self.slope[_BORDER:self.M - _BORDER, _BORDER:self.N - _BORDER] = 0.0

    def interior_slice(self, mrel: int):
        return (mrel + _BORDER, slice(_BORDER, self.N - _BORDER))

    def unclaim_box(self, m0: int, m1: int, n0: int, n1: int):
        m0 = max(0, m0)
        n0 = max(0, n0)
        m1 = min(self.M, m1)
        n1 = min(self.N, n1)
        self.floor[m0:m1, n0:n1] = np.nan
        self.ceiling[m0:m1, n0:n1] = np.nan
        self.slope[m0:m1, n0:n1] = np.nan
        self.uav[m0:m1, n0:n1] = CLAIM_NONE
        self.ugv[m0:m1, n0:n1] = CLAIM_NONE

    def finish(self) -> tuple[VoxelMap, SceneTruth]:
        M, N = self.M, self.N
        # Margin ring: nothing was ever written near it, so it stays unknown.
        self.uav[0, :] = CLASS_UNKNOWN
        self.uav[M - 1, :] = CLASS_UNKNOWN
        self.uav[:, 0] = CLASS_UNKNOWN
        self.uav[:, N - 1] = CLASS_UNKNOWN
        # Wall ring: full-height walls read as occupied wherever they touch a
        # cell claimed free; elsewhere their class depends on unclaimed cells.
        free = self.uav == CLASS_FREE
        ring = np.zeros((M, N), dtype=bool)
        ring[1, 1:N - 1] = True
        ring[M - 2, 1:N - 1] = True
        ring[1:M - 1, 1] = True
        ring[1:M - 1, N - 2] = True
        for m, n in zip(*np.nonzero(ring)):
            neighborhood = free[max(0, m - 1):m + 2, max(0, n - 1):n + 2]
            if neighborhood.any():
                self.uav[m, n] = CLASS_OCCUPIED
        # Ground-robot claims follow the aerial ones, with steep free cells
        # flipping to occupied and near-threshold slopes left unclaimed.
        self.ugv = self.uav.copy()
        limit = self.params.max_slope
        for m, n in zip(*np.nonzero(self.uav == CLASS_FREE)):
            s = self.slope[m, n]
            if s != s:
                self.ugv[m, n] = CLAIM_NONE
            elif s > limit * (1 + _SLOPE_GUARD):
                self.ugv[m, n] = CLASS_OCCUPIED
            elif s >= limit * (1 - _SLOPE_GUARD):
                self.ugv[m, n] = CLAIM_NONE
        truth = SceneTruth(self.spec.kind, self.res, self.vmap.origin,
                           self.vmap.extent, self.floor, self.ceiling,
                           self.slope, self.uav, self.ugv,
                           spec=asdict(self.spec))
        return self.vmap, truth


def _cells(meters: float, res: float) -> int:
    return max(1, round(meters / res))


def _require_navigable(height_m: float, b: _Builder, what: str) -> None:
    if height_m < b.params.min_clearance:
        raise ValueError(
            f"{what} is {height_m:.2f} m tall, below the safety margin "
            f"{b.params.min_clearance} m; the scene's free-space claims "
            f"would not hold"
        )


# -- scene builders -----------------------------------------------------------


def _flat_room(spec: SceneSpec) -> tuple[VoxelMap, SceneTruth]:
    ix = _cells(spec.size_x, spec.resolution)
    iy = _cells(spec.size_y, spec.resolution)
    K = _cells(spec.height, spec.resolution)
    b = _Builder(spec, ix, iy, K)
    _require_navigable((K - 2) * spec.resolution, b, "room")
    profile = np.ones(ix, dtype=int)
    b.fill_profile(profile)
    b.claim_profile_heights(profile)
    b.claim_flat_slope_everywhere()
    if spec.clutter:
        rng = np.random.default_rng(spec.seed)
        pillar_top = 1 + _cells(0.5, spec.resolution)
        for _ in range(spec.clutter):
            mrel = int(rng.integers(0, ix))
            nrel = int(rng.integers(0, iy))
            col = b.column_template(pillar_top)
            b.set_interior_column(mrel, nrel, col)
            pad = b.sa + 1
            b.unclaim_box(mrel + _BORDER - pad, mrel + _BORDER + pad + 1,
                          nrel + _BORDER - pad, nrel + _BORDER + pad + 1)
    return b.finish()


def _ramp(spec: SceneSpec) -> tuple[VoxelMap, SceneTruth]:
    # Rises `rise2` voxels every two cells; restricting the grade to
    # multiples of 0.5 keeps the fitted slope exactly on the nominal value.
    rise2 = round(2 * spec.slope)
    if rise2 < 1 or abs(rise2 / 2 - spec.slope) > 1e-12:
        raise ValueError(f"ramp slope must be a positive multiple of 0.5, got {spec.slope}")
    ix = _cells(spec.size_x, spec.resolution)
    iy = _cells(spec.size_y, spec.resolution)
    profile = np.array([1 + (rise2 * m) // 2 for m in range(ix)], dtype=int)
    K = int(profile.max()) + _cells(spec.height, spec.resolution) + 1
    b = _Builder(spec, ix, iy, K)
    b.fill_profile(profile)
    b.claim_profile_heights(profile)
    b.claim_profile_slopes(profile)
    return b.finish()


def _step(spec: SceneSpec) -> tuple[VoxelMap, SceneTruth]:
    ix = _cells(spec.size_x, spec.resolution)
    iy = _cells(spec.size_y, spec.resolution)
    rise = _cells(spec.step_height, spec.resolution)
    split = ix // 2
    profile = np.array([1 if m < split else 1 + rise for m in range(ix)], dtype=int)
    K = 1 + rise + _cells(spec.height, spec.resolution) + 1
    b = _Builder(spec, ix, iy, K)
    b.fill_profile(profile)
    b.claim_profile_heights(profile)
    b.claim_profile_slopes(profile)
    return b.finish()


def _overhang(spec: SceneSpec) -> tuple[VoxelMap, SceneTruth]:
    if not 0 < spec.beam_low < spec.beam_high:
        raise ValueError("overhang needs 0 < beam_low < beam_high")
    ix = _cells(spec.size_x, spec.resolution)
    iy = _cells(spec.size_y, spec.resolution)
    K = _cells(spec.height, spec.resolution)
    lo = _cells(spec.beam_low, spec.resolution)
    hi = _cells(spec.beam_high, spec.resolution)
    if hi >= K - 1:
        raise ValueError("beam must sit below the ceiling slab")
    b = _Builder(spec, ix, iy, K)
    _require_navigable((lo - 1) * spec.resolution, b, "space under the beam")
    if (K - 1 - hi) * spec.resolution >= b.params.min_clearance:
        raise ValueError("space above the beam must stay below the safety "
                         "margin for the ceiling claim to hold")
    profile = np.ones(ix, dtype=int)
    b.fill_profile(profile)
    b.claim_profile_heights(profile)
    b.claim_flat_slope_everywhere()
    bx0 = ix // 3
    bx1 = ix - ix // 3
    beam = b.column_template(1)
    beam[lo:hi] = int(VoxelState.OCCUPIED)
    for mrel in range(bx0, bx1):
        for nrel in range(iy):
            b.set_interior_column(mrel, nrel, beam)
        # Free space above the beam is thinner than the safety margin, so the
        # navigable ceiling under the beam is the beam's underside.
        b.ceiling[b.interior_slice(mrel)] = b.z(lo)
    return b.finish()


def _low_wall(spec: SceneSpec) -> tuple[VoxelMap, SceneTruth]:
    ix = _cells(spec.size_x, spec.resolution)
    iy = _cells(spec.size_y, spec.resolution)
    K = _cells(spec.height, spec.resolution)
    wh = _cells(spec.wall_height, spec.resolution)
    t = int(spec.wall_thickness)
    if t < 1:
        raise ValueError("wall_thickness must be >= 1 cell")
    wx0 = (ix - t) // 2
    wx1 = wx0 + t
    b = _Builder(spec, ix, iy, K)
    if spec.observed_above:
        _require_navigable((K - 1 - (wh + 1)) * spec.resolution, b,
                           "space above the wall")
        profile = np.ones(ix, dtype=int)
        profile[wx0:wx1] = wh + 1
        b.fill_profile(profile)
        b.claim_profile_heights(profile)
        b.claim_profile_slopes(profile)
    else:
        # The space above the wall was never scanned: the wall columns hold
        # only the occupied slab, so they have no navigable free range and
        # read as unknown in both maps (their occupied overlap with the
        # neighboring rooms is far below the reporting threshold).
        profile = np.ones(ix, dtype=int)
        holes = set(range(wx0, wx1))
        b.fill_profile(profile, holes=holes)
        wall = np.zeros(K, dtype=np.uint8)
        wall[:wh + 1] = int(VoxelState.OCCUPIED)
        for mrel in holes:
            for nrel in range(iy):
                b.set_interior_column(mrel, nrel, wall)
        b.claim_profile_heights(profile, holes=holes)
        overlap_ratio = wh / (K - 2)
        if overlap_ratio >= b.params.min_occupancy * (1 - _SLOPE_GUARD):
            raise ValueError("unobserved wall too tall to stay invisible")
        for mrel in holes:
            b.uav[b.interior_slice(mrel)] = CLASS_UNKNOWN
        # The remaining flat floor fits a zero plane exactly even with the
        # wall columns missing from the window.
        for mrel in range(ix):
            if mrel not in holes:
                b.slope[b.interior_slice(mrel)] = 0.0
    return b.finish()


def _crawl_space(spec: SceneSpec) -> tuple[VoxelMap, SceneTruth]:
    ix = _cells(spec.size_x, spec.resolution)
    iy = _cells(spec.size_y, spec.resolution)
    K = _cells(spec.height, spec.resolution)
    gk = _cells(spec.gap, spec.resolution)
    if gk + 2 >= K:
        raise ValueError("crawl gap must sit below the room ceiling")
    if gk * spec.resolution >= ConversionParams().min_clearance:
        raise ValueError("crawl gap must be below the safety margin "
                         "for its cells to stay non-free")
    cx0 = ix // 3
    cx1 = ix - ix // 3
    b = _Builder(spec, ix, iy, K)
    profile = np.ones(ix, dtype=int)
    holes = set(range(cx0, cx1))
    b.fill_profile(profile, holes=holes)
    crawl = np.zeros(K, dtype=np.uint8)
    crawl[0] = int(VoxelState.OCCUPIED)
    crawl[1:gk + 1] = int(VoxelState.FREE)
    crawl[gk + 1:] = int(VoxelState.OCCUPIED)
    for mrel in holes:
        for nrel in range(iy):
            b.set_interior_column(mrel, nrel, crawl)
    b.claim_profile_heights(profile, holes=holes)
    for mrel in range(ix):
        if mrel not in holes:
            b.slope[b.interior_slice(mrel)] = 0.0
    # Crawl columns: the gap is below the safety margin, so none are free.
    # Edge slices see the free rooms and report the solid block above the
    # gap; inner slices have no free neighbor at all.
    for mrel in holes:
        edge = mrel in (cx0, cx1 - 1)
        b.uav[b.interior_slice(mrel)] = CLASS_OCCUPIED if edge else CLASS_UNKNOWN
    return b.finish()


def _composite(spec: SceneSpec) -> tuple[VoxelMap, SceneTruth]:
    """Canonical mixed scene: flat, ramp, plateau, step down, low wall, crawl.

    Segment layout is fixed in cells; size_x is ignored. Claims around the
    crawl strip survive because both neighboring segments are flat at the
    same height, so truncated fit windows still see a perfect plane.
    """
    res = spec.resolution
    segments = [10, 16, 10, 10, 14, 8, 12]
    flat0, rampw, plateau, flat1, wallw, crawlw, flat2 = segments
    ix = sum(segments)
    iy = _cells(spec.size_y, res)
    wh = _cells(1.2, res)
    profile = np.ones(ix, dtype=int)
    x = flat0
    for m in range(rampw):
        profile[x + m] = 1 + (m + 1) // 2  # 0.5 grade
    x += rampw
    high = int(profile[x - 1])
    profile[x:x + plateau] = high
    x += plateau  # step down back to the base level
    profile[x:x + flat1] = 1
    x += flat1
    wall0 = x + (wallw - 4) // 2
    profile[x:x + wallw] = 1
    profile[wall0:wall0 + 4] = wh + 1
    x += wallw
    crawl0, crawl1 = x, x + crawlw
    profile[crawl1:] = 1
    holes = set(range(crawl0, crawl1))

    K = int(profile.max()) + _cells(spec.height, res) + 1
    b = _Builder(spec, ix, iy, K)
    b.fill_profile(profile, holes=holes)
    gk = _cells(0.5, res)
    crawl = np.zeros(K, dtype=np.uint8)
    crawl[0] = int(VoxelState.OCCUPIED)
    crawl[1:gk + 1] = int(VoxelState.FREE)
    crawl[gk + 1:] = int(VoxelState.OCCUPIED)
    for mrel in holes:
        for nrel in range(iy):
            b.set_interior_column(mrel, nrel, crawl)
    b.claim_profile_heights(profile, holes=holes)
    b.claim_profile_slopes(profile, holes=holes)
    for mrel in holes:
        edge = mrel in (crawl0, crawl1 - 1)
        b.uav[b.interior_slice(mrel)] = CLASS_OCCUPIED if edge else CLASS_UNKNOWN
    # Flat cells whose windows are truncated by the crawl strip still see a
    # perfect plane; both sides of the strip sit at the base level.
    for mrel in range(crawl0 - b.sa, crawl1 + b.sa):
        if 0 <= mrel < ix and mrel not in holes:
            b.slope[b.interior_slice(mrel)] = 0.0
    return b.finish()
