"""voxflat benchmark: one command, two seeded workloads, checked outputs.

    python3 benchmark/run.py --workload known-map --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. Inputs are generated from the seed into a scratch
directory under `.bench_scratch/`, which is removed at the end. With
`--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 when every check passed, 1 when a check failed or the run broke off, 2 when
the program could not be found. Failed operations are counted, not fatal.
"""
import os

# One process, one thread: pin the BLAS and OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("known-map", "exploration")
# update_tail_ms: a percentile with at least ten update() calls beyond it
# at this run length (thousands of calls on known-map; at least 160 on
# exploration, four missions of 40 batches). known-map's 99th percentile
# follows short bursts of host load too closely to hold steady.
TAIL_PERCENTILE = {"known-map": 95, "exploration": 90}
END_TO_END_UNITS = {
    "setup_s": "s", "convert_s": "s", "update_ms": "ms", "update_tail_ms": "ms",
    "replan_ms": "ms", "peak_rss_mb": "MB", "map_bytes": "bytes",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "voxflat" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'voxflat'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import voxflat
    if Path(voxflat.__file__).resolve().parent != SRC / "voxflat":
        print(f"error: imported voxflat from {voxflat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    import tracer
    import workloads

    scratch = ROOT / ".bench_scratch" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    trace = tracer.Tracer(args.trace == 1)
    run = workloads.Run(trace, scratch)
    body = {"known-map": workloads.known_map, "exploration": workloads.exploration}
    try:
        if trace.enabled:
            trace.install()
        with run.clock.sampling():
            body[args.workload](run, args.seed, args.seconds)
    finally:
        trace.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    if trace.enabled:
        spans = trace.spans(run.clock.net_seconds)
        metrics = layers.per_layer(run, spans, layers.span_cost_s())
        for name in layers.PER_LAYER:
            if name not in metrics:
                print(f"per-layer metric {name}: missing", file=sys.stderr)
    else:
        metrics = end_to_end(run, args.workload)

    for kind in sorted(run.prepared):
        print(f"{kind}: {run.prepared[kind]} done once before the rounds")
    for kind in sorted(run.attempted):
        print(f"{kind}: {run.attempted[kind]} attempted, {run.failed[kind]} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in run.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    correct = not run.problems
    print("all checks passed" if correct else f"{len(run.problems)} check failures")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted.values()),
        "failed": sum(run.failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def end_to_end(run, workload: str) -> dict[str, tuple[float, str]]:
    """Host-scaled times (see host.py), peak memory and map size."""
    values = {}
    for name, interval, unit_scale in (("setup_s", "setup", 1.0),
                                       ("convert_s", "convert", 1.0),
                                       ("update_ms", "update", 1e3),
                                       ("replan_ms", "replan", 1e3)):
        wall, scaled = run.clock.scaled_seconds(interval)
        if len(scaled):
            print(f"{name}: {len(wall)} intervals, wall median "
                  f"{_median(wall, unit_scale):.6g}, scaled {_median(scaled, unit_scale):.6g}")
            values[name] = _median(scaled, unit_scale)
            if name == "update_ms":
                values["update_tail_ms"] = _percentile(
                    scaled, TAIL_PERCENTILE[workload], unit_scale)
                print(f"update_ms: scaled 99th percentile {_percentile(scaled, 99, 1e3):.6g}")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if run.map_bytes:
        values["map_bytes"] = float(run.map_bytes)
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()
            if name in values}


def _median(values, scale=1.0):
    return statistics.median(values) * scale if len(values) else None


def _percentile(values, q: int, scale=1.0):
    """Nearest-rank percentile."""
    if not len(values):
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] * scale


if __name__ == "__main__":
    sys.exit(main())
