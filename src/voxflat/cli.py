"""Command-line pipeline: convert, lift, synth, bench, diff.

Parameter flags and their defaults come from `ConversionParams` (under the
paper's names r_max_z, o_min, s_a, r_ms), `SceneSpec` and `LiftParams`.

Exit codes: 0 success, 1 usage error, 2 data error. Update traces for the
bench command are text files with one "i j k state" voxel write per line
(state by name or VXG code), '#' comments, and blank lines separating
batches; each batch replays as one incremental update. Two grid files that
`io_formats.check_same_cells` refuses are a data error to `lift` and `diff`.
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
from .voxel_store import (VoxelState, VxgError, load_voxel_map, read_records,
                          read_voxel_map, save_voxel_map)

# (paper flag, ConversionParams field, help); the manifest's parameter names
_CONVERSION_FLAGS = (
    ("r_max_z", "min_clearance", "min free-range height kept as navigable, m"),
    ("o_min", "min_occupancy", "min occupancy ratio reported at boundaries"),
    ("s_a", "slope_window_m", "slope fit neighborhood radius, m (converted to cells)"),
    ("r_ms", "max_slope", "max slope a ground robot traverses"),
)

# a trace's state field: a VoxelState name in any case, or its VXG code
_STATE_TOKENS = {token: s for s in VoxelState for token in (s.name.lower(), str(int(s)))}


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


def _given(command: str, flag: str, params, **field):
    """params with the flag's value put in its field; a value that the
    dataclass refuses is a usage error naming the flag."""
    try:
        return dataclasses.replace(params, **field)
    except (TypeError, ValueError) as e:
        raise _UsageError(f"{command}: {flag}: {e}") from None


def _params(args) -> ConversionParams:
    """ConversionParams with each conversion flag put in its field, one at a
    time, so that a refused value names its flag."""
    params = ConversionParams()
    for flag, name, _ in _CONVERSION_FLAGS:
        params = _given(args.command, "--" + flag.replace("_", "-"), params,
                        **{name: getattr(args, name)})
    return params


def _cmd_convert(args) -> int:
    params = _params(args)
    t0 = time.perf_counter()
    vmap, input_bytes = read_voxel_map(args.input)
    load_time = time.perf_counter() - t0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    state = incremental.init(vmap, params)
    elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    outputs = {"uav_map": "uav_map.g2d", "ugv_map": "ugv_map.g2d",
               "height": "height.g2d", "slope": "slope.g2d"}
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
    # The input's size is what the reader read: its path may be a pipe, or
    # gone by now.
    sizes = {"input": input_bytes,
             **{label: (out_dir / name).stat().st_size for label, name in outputs.items()}}
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
        "bytes": sizes,
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
    if args.p_f is not None and not (math.isfinite(args.p_f) and args.p_f >= 0):
        raise _UsageError(f"lift: --p-f must be finite and >= 0, got {args.p_f}")
    grid = io_formats.read_occupancy(args.grid)
    if grid.kind != args.mode:
        raise ValueError(f"{args.grid} is a {grid.kind} map but --mode is {args.mode}")
    params = _lift_params(args, grid.resolution)
    height = io_formats.read_height(args.height)
    io_formats.check_same_cells("grid and height files differ in geometry",
                                (args.grid, grid), (args.height, height))
    if (height.ceil_k < 0).all() and args.mode == "uav":
        raise ValueError("uav lifting needs a floor+ceiling height file")

    if args.path_in:
        path2d = read_path_2d(args.path_in)
        _validate_path(path2d, grid, args.path_in)
    elif args.start and args.goal:
        path2d = plan_2d(grid, tuple(args.start), tuple(args.goal))
        if path2d is None:
            raise ValueError(f"no path from {tuple(args.start)} to {tuple(args.goal)}")
    else:
        raise _UsageError("lift: provide --path-in or both --start and --goal")

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
    """The mode's LiftParams defaults with each given flag put in its field, one
    at a time, and --r-max-z checked as ConversionParams.min_clearance; a
    value that a dataclass refuses, or a --p-f of more cells than a float
    holds, is a usage error naming the flag."""
    try:
        lookahead = None if args.p_f is None else round(args.p_f / resolution)
    except OverflowError:
        raise _UsageError(f"lift: --p-f: {args.p_f} m is more cells than a float "
                          f"holds at resolution {resolution}") from None
    params = getattr(LiftParams, f"{args.mode}_defaults")(resolution)
    for flag, name, value in (
            ("--p-f", "lookahead", lookahead),
            ("--r-off", "height_offset", args.r_off), ("--r-r", "safety_radius", args.r_r)):
        if value is not None:
            params = _given("lift", flag, params, **{name: value})
    r_max_z = ConversionParams.min_clearance if args.r_max_z is None else _given(
        "lift", "--r-max-z", ConversionParams(), min_clearance=args.r_max_z).min_clearance
    if args.mode == "uav" and not params.safety_radius <= r_max_z / 2:
        raise ValueError(f"clearance radius {params.safety_radius} outside "
                         f"(0, r_max_z/2] with r_max_z {r_max_z}")
    return params


def _validate_path(path2d, grid, name) -> None:
    M, N = grid.extent
    for idx, (m, n) in enumerate(path2d):
        if not (0 <= m < M and 0 <= n < N) or grid.values[m, n] != 0.0:
            raise ValueError(f"{name}: waypoint {idx} at ({m}, {n}) is not free")
        if idx and max(abs(m - path2d[idx - 1][0]), abs(n - path2d[idx - 1][1])) > 1:
            raise ValueError(f"{name}: waypoints {idx - 1} and {idx} are not 8-neighbors")


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
    params = _params(args)
    if args.input:
        vmap = load_voxel_map(args.input)
    else:
        vmap, _ = generate(SceneSpec(kind=args.scene))
    batches = _read_trace(args.trace)
    state = incremental.init(vmap, params)
    rows = [CSV_HEADER]
    for index, batch in enumerate(batches):
        report = incremental.update(state, batch)
        rows.append(report.csv_row(index))
    Path(args.out).write_text("\n".join(rows) + "\n", encoding="ascii")
    print(f"wrote {args.out} ({len(batches)} updates)")
    return 0


def _read_trace(path) -> list[np.ndarray]:
    """The trace's batches, each one int64 (n, 4) array of i, j, k, state."""
    return [np.array(batch, np.int64)
            for batch in read_records(path, "i j k state", _trace_write)]


def _trace_write(parts: list[str]) -> tuple[int, int, int, VoxelState]:
    try:
        i, j, k = map(int, parts[:3])
    except ValueError:
        raise ValueError("unreadable voxel index") from None
    if not -2**63 <= min(i, j, k) <= max(i, j, k) < 2**63:
        raise ValueError("voxel index beyond int64")
    state = _STATE_TOKENS.get(parts[3].lower())
    if state is None:
        raise ValueError(f"unknown state {parts[3]!r}")
    return i, j, k, state


def _cmd_diff(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise _UsageError(f"diff: --tol must be finite and >= 0, got {args.tol}")
    hdr_a, planes_a = io_formats.read_grid(args.a)
    hdr_b, planes_b = io_formats.read_grid(args.b)
    io_formats.check_same_cells("grids are not comparable", (args.a, hdr_a),
                                (args.b, hdr_b), tags=("kind", "robot"))
    a, b = np.array(planes_a), np.array(planes_b)
    # |a - b| > tol is False where either cell is NaN (absent), so an absent
    # cell differs only from a present one.
    with np.errstate(invalid="ignore"):
        differing = int(((np.isnan(a) != np.isnan(b)) | (np.abs(a - b) > args.tol)).sum())
    print(f"{differing} differing cells of {a.size}")
    return 0 if differing == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
