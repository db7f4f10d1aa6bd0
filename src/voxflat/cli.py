"""Command-line pipeline: convert, lift, synth, bench, diff.

Parameter flags and their defaults come from `ConversionParams` (under the
paper's names r_max_z, o_min, s_a, r_ms), `SceneSpec` and `LiftParams`.

Exit codes: 0 success, 1 usage error, 2 data error. Update traces for the
bench command are text files with one "i j k state" voxel write per line
(state by name or VXG code), '#' comments, and blank lines separating
batches; each batch replays as one incremental update.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import incremental, io_formats
from .incremental import CSV_HEADER
from .params import ConversionParams
from .path_lift import (LiftParams, enforce_clearance, lift_path, plan_2d,
                        read_path_2d, write_path_3d)
from .scenes import SCENE_KINDS, SceneSpec, generate
from .voxel_store import (VoxelState, VxgError, load_voxel_map, read_voxel_map,
                          save_voxel_map)

# (paper flag, ConversionParams field, help); the manifest's parameter names
_CONVERSION_FLAGS = (
    ("r_max_z", "min_clearance", "min free-range height kept as navigable, m"),
    ("o_min", "min_occupancy", "min occupancy ratio reported at boundaries"),
    ("s_a", "slope_window_m", "slope fit neighborhood radius, m (converted to cells)"),
    ("r_ms", "max_slope", "max slope a ground robot traverses"),
)

_STATE_TOKENS = {
    "unknown": VoxelState.UNKNOWN, "0": VoxelState.UNKNOWN,
    "occupied": VoxelState.OCCUPIED, "1": VoxelState.OCCUPIED,
    "free": VoxelState.FREE, "2": VoxelState.FREE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            return args.func(args)
        except (VxgError, io_formats.GridFormatError, ValueError, IndexError,
                OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="voxflat",
                     description="3D voxel map to 2D occupancy map conversion")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("convert", help="convert a VXG voxel map to 2D grids")
    p.add_argument("--in", dest="input", required=True, help="input .vxg file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pgm", action="store_true",
                   help="also export occupancy maps as ASCII PGM")
    _add_conversion_flags(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("lift", help="lift a 2D path to 3D using a height map")
    p.add_argument("--grid", required=True, help="occupancy grid to plan/validate on")
    p.add_argument("--height", required=True, help="height map file (floor+ceiling)")
    p.add_argument("--mode", choices=("uav", "ugv"), required=True)
    p.add_argument("--path-in", help="2D path file (one 'm n' per line)")
    p.add_argument("--start", nargs=2, type=int, metavar=("M", "N"))
    p.add_argument("--goal", nargs=2, type=int, metavar=("M", "N"))
    p.add_argument("--out", required=True, help="output 3D path file")
    for flag, what in (("--r-off", "height above floor"), ("--p-f", "path lookahead"),
                       ("--r-r", "uav clearance sphere radius")):
        p.add_argument(flag, type=float, help=f"{what}, m (default: the mode's LiftParams)")
    p.add_argument("--r-max-z", type=float,
                   help="vertical safety margin bounding --r-r, m (default: "
                        "ConversionParams.min_clearance)")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    for f in dataclasses.fields(SceneSpec):
        if f.name == "kind":
            p.add_argument("--scene", dest="kind", choices=SCENE_KINDS, required=True)
        elif f.name == "observed_above":
            p.add_argument("--unobserved-above", dest=f.name, action="store_false",
                           help="low-wall: leave the space above the wall unmapped")
        else:
            flag = "--res" if f.name == "resolution" else "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default,
                           help="default %(default)s")
    p.add_argument("--out", required=True, help="output .vxg file")
    p.add_argument("--sidecar", help="ground-truth JSON (default: out with .json)")
    p.add_argument("--no-sidecar", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="replay an update trace, print timings CSV")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--in", dest="input", help="starting .vxg map")
    start.add_argument("--scene", choices=SCENE_KINDS,
                       help="or start from a default synthetic scene")
    p.add_argument("--trace", required=True, help="update trace file")
    p.add_argument("--out", required=True, help="output CSV")
    _add_conversion_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("diff", help="compare two grid files cell by cell")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=0.0,
                   help="largest |a - b| read as equal (default %(default)s)")
    p.set_defaults(func=_cmd_diff)
    return parser


def _add_conversion_flags(p) -> None:
    for flag, name, text in _CONVERSION_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), dest=name, metavar=flag.upper(),
                       type=float, default=getattr(ConversionParams, name),
                       help=text + " (default %(default)s)")


def _params(args) -> ConversionParams:
    return ConversionParams(**{name: getattr(args, name) for _, name, _ in _CONVERSION_FLAGS})


def _cmd_convert(args) -> int:
    t0 = time.perf_counter()
    vmap, input_bytes = read_voxel_map(args.input)
    load_time = time.perf_counter() - t0
    params = _params(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    state = incremental.init(vmap, params)
    elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    outputs = {
        "uav_map": "uav_map.g2d",
        "ugv_map": "ugv_map.g2d",
        "height": "height.g2d",
        "slope": "slope.g2d",
    }
    io_formats.write_occupancy(state.uav, out_dir / outputs["uav_map"])
    io_formats.write_occupancy(state.ugv, out_dir / outputs["ugv_map"])
    io_formats.write_height(state.height, True, out_dir / outputs["height"])
    io_formats.write_slope(state.slope, out_dir / outputs["slope"])
    if args.pgm:
        io_formats.write_occupancy_pgm(state.uav, out_dir / "uav_map.pgm")
        io_formats.write_occupancy_pgm(state.ugv, out_dir / "ugv_map.pgm")
        outputs["uav_pgm"] = "uav_map.pgm"
        outputs["ugv_pgm"] = "ugv_map.pgm"
    write_time = time.perf_counter() - t0
    sizes = io_formats.size_report(
        args.input, {label: out_dir / name for label, name in outputs.items()})
    M, N, K = vmap.extent
    manifest = {
        "input": str(args.input),
        "extent": [M, N, K],
        "resolution": vmap.resolution,
        "parameters": {
            **{flag: getattr(params, name) for flag, name, _ in _CONVERSION_FLAGS},
            "s_a_cells": params.slope_radius_cells(vmap.resolution),
        },
        "outputs": outputs,
        "bytes": {"input": input_bytes, **dict(sizes.entries)},
        "wall_time_s": round(elapsed, 6),
        "load_time_s": round(load_time, 6),
        "write_time_s": round(write_time, 6),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="ascii")
    for name in sorted(outputs.values()):
        print(f"wrote {out_dir / name}")
    print(f"converted {M}x{N}x{K} voxels in {elapsed:.3f}s "
          f"(load {load_time:.3f}s, write {write_time:.3f}s)")
    return 0


def _cmd_lift(args) -> int:
    if args.mode == "ugv" and (args.r_r is not None or args.r_max_z is not None):
        raise _UsageError("lift: --r-r and --r-max-z apply to --mode uav only")
    if args.p_f is not None and not math.isfinite(args.p_f):
        raise _UsageError(f"lift: --p-f must be finite, got {args.p_f}")
    grid = io_formats.read_occupancy(args.grid)
    if grid.kind != args.mode:
        raise ValueError(
            f"{args.grid} is a {grid.kind} map but --mode is {args.mode}"
        )
    height = io_formats.read_height(args.height)
    if (height.ceil_k < 0).all() and args.mode == "uav":
        raise ValueError("uav lifting needs a floor+ceiling height file")

    if args.path_in:
        path2d = read_path_2d(args.path_in)
        _validate_path(path2d, grid, args.path_in)
    elif args.start and args.goal:
        path2d = plan_2d(grid, tuple(args.start), tuple(args.goal))
        if path2d is None:
            raise ValueError(
                f"no path from {tuple(args.start)} to {tuple(args.goal)}"
            )
    else:
        raise _UsageError("lift: provide --path-in or both --start and --goal")

    params = _lift_params(args, grid.resolution)
    path3d = lift_path(path2d, height, params)
    if args.mode == "uav":
        lifted = path3d
        path3d = enforce_clearance(lifted, height, params.safety_radius)
        dz = [abs(b[2] - a[2]) for a, b in zip(lifted, path3d)]
        print(f"clearance moved {sum(d > 0 for d in dz)} of {len(dz)} waypoints, "
              f"max |dz| {max(dz, default=0.0):.3f} m")
    write_path_3d(path3d, args.out)
    print(f"wrote {args.out} ({len(path3d)} waypoints)")
    return 0


def _lift_params(args, resolution: float) -> LiftParams:
    """The mode's LiftParams defaults, with the flags given in their place."""
    uav = args.mode == "uav"
    given = {"lookahead": None if args.p_f is None else round(args.p_f / resolution),
             "height_offset": args.r_off, "safety_radius": args.r_r}
    params = dataclasses.replace(
        (LiftParams.uav_defaults if uav else LiftParams.ugv_defaults)(resolution),
        **{k: v for k, v in given.items() if v is not None})
    r_max_z = ConversionParams.min_clearance if args.r_max_z is None else args.r_max_z
    if uav and not params.safety_radius <= r_max_z / 2:
        raise ValueError(f"clearance radius {params.safety_radius} outside "
                         f"(0, r_max_z/2] with r_max_z {r_max_z}")
    return params


def _validate_path(path2d, grid, name) -> None:
    values = grid.values
    M, N = values.shape
    prev = None
    for idx, (m, n) in enumerate(path2d):
        if not (0 <= m < M and 0 <= n < N) or values[m, n] != 0.0:
            raise ValueError(f"{name}: waypoint {idx} at ({m}, {n}) is not free")
        if prev is not None and max(abs(m - prev[0]), abs(n - prev[1])) > 1:
            raise ValueError(
                f"{name}: waypoints {idx - 1} and {idx} are not 8-neighbors"
            )
        prev = (m, n)


def _cmd_synth(args) -> int:
    spec = SceneSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SceneSpec)})
    vmap, truth = generate(spec)
    save_voxel_map(vmap, args.out)
    print(f"wrote {args.out} ({vmap.cell_count()} voxels)")
    if not args.no_sidecar:
        sidecar = args.sidecar or str(Path(args.out).with_suffix(".json"))
        truth.write(sidecar)
        print(f"wrote {sidecar}")
    return 0


def _cmd_bench(args) -> int:
    if args.input:
        vmap = load_voxel_map(args.input)
    else:
        vmap, _ = generate(SceneSpec(kind=args.scene))
    batches = _read_trace(args.trace)
    state = incremental.init(vmap, _params(args))
    rows = [CSV_HEADER]
    for index, batch in enumerate(batches):
        report = incremental.update(state, batch)
        rows.append(report.csv_row(index))
    Path(args.out).write_text("\n".join(rows) + "\n", encoding="ascii")
    print(f"wrote {args.out} ({len(batches)} updates)")
    return 0


def _read_trace(path) -> list[np.ndarray]:
    """The trace's batches, each one int64 (n, 4) array of i, j, k, state."""
    batches: list[np.ndarray] = []
    current: list = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line:
            if current:
                batches.append(np.array(current, np.int64))
                current = []
            continue
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 'i j k state'")
        try:
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unreadable voxel index") from None
        if not -2**63 <= min(i, j, k) <= max(i, j, k) < 2**63:
            raise ValueError(f"{path}:{lineno}: voxel index beyond int64")
        state = _STATE_TOKENS.get(parts[3].lower())
        if state is None:
            raise ValueError(f"{path}:{lineno}: unknown state {parts[3]!r}")
        current.append((i, j, k, state))
    if current:
        batches.append(np.array(current, np.int64))
    return batches


def _cmd_diff(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise _UsageError(f"diff: --tol must be finite and >= 0, got {args.tol}")
    hdr_a, planes_a = io_formats.read_grid(args.a)
    hdr_b, planes_b = io_formats.read_grid(args.b)
    if hdr_a.kind != hdr_b.kind or hdr_a.extent != hdr_b.extent:
        raise ValueError(
            f"grids are not comparable: {hdr_a.kind} {hdr_a.extent} vs "
            f"{hdr_b.kind} {hdr_b.extent}"
        )
    differing = 0
    total = 0
    for a, b in zip(planes_a, planes_b):
        nan_a = np.isnan(a)
        nan_b = np.isnan(b)
        with np.errstate(invalid="ignore"):
            mismatch = (nan_a != nan_b) | (~nan_a & ~nan_b & (np.abs(a - b) > args.tol))
        differing += int(mismatch.sum())
        total += a.size
    print(f"{differing} differing cells of {total}")
    return 0 if differing == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
