"""swinseg benchmark: one workload per process, BLAS capped at one thread.

    python3 swinbench/run.py --workload train|segment|pipeline --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` every public swinseg function is wrapped and the metrics are
the per-layer ones. Each run also writes ``swinbench/runs/<workload>-s<seed>-t<trace>.json``
with its per-unit times, its checks and, when traced, the per-layer table
of one training step and one segmented volume and the raw spans.
"""

import os
import sys
import time

T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _process_age():
    """Seconds since this process started, from /proc (0 where absent)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


AGE_AT_T0 = _process_age()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

T_IMPORTED = time.perf_counter()

SETUP_GAUGE_SAMPLES = 10

UNITS = {"setup_s": "s", "train_samples_per_s": "patches/s",
         "segment_mvox_per_s": "Mvoxel/s", "round_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "ops_per_step": "count", "windows_per_volume": "count",
               "checkpoint_bytes": "bytes", "bytes_written": "bytes",
               "gflop_per_s": "GFLOP/s", "build_s": "s"}


def layer_unit(name):
    what = name.rsplit(".", 1)[1]
    return LAYER_UNITS.get(what, "ms")


def unit_tables(tracer, clocks, bench):
    """Per-layer self time (ms) per training step and per segmented volume
    of each extent, averaged over the units of the workload's main stage and
    scaled by the gauge like the end-to-end figures. The gauge's own time
    sits in the sliding window's self time and is taken out of it."""
    units = [("step", [(lo, hi) for lo, hi, _ in clocks.steps[bench.table_steps]])]
    vols = clocks.volumes[bench.table_volumes]
    for dims in sorted({v[3] for v in vols}):
        units.append(("volume " + "x".join(map(str, dims)),
                      [(v[0], v[1]) for v in vols if v[3] == dims]))
    gauge = clocks.gauge
    selft = tracer.self_times()
    out = {}
    for key, windows in units:
        if not windows:
            continue
        acc: dict[str, float] = {}
        for lo, hi in windows:
            rows = tracer.rows(lo, hi, selft)
            in_gauge = sum(s for at, s in zip(gauge.at, gauge.secs) if lo <= at <= hi)
            if "training.sliding_window_infer" in rows:
                rows["training.sliding_window_infer"] -= in_gauge
            scale = gauge.scale(lo, hi)
            for layer, secs in rows.items():
                acc[layer] = acc.get(layer, 0.0) + secs * scale
        out[key] = {"units": len(windows),
                    "rows_ms": {k: 1e3 * v / len(windows)
                                for k, v in sorted(acc.items(), key=lambda kv: -kv[1])}}
    return out


def restore(clocks, tracer):
    clocks.restore()
    if tracer is not None:
        tracer.restore()


def main(argv=None):
    ap = argparse.ArgumentParser(description="swinseg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runs = os.path.join(HERE, "runs")
    work = os.path.join(runs, f"work-{os.getpid()}")
    os.makedirs(work)
    tracer = spans.Tracer().install() if args.trace else None
    clocks = spans.UnitClocks(spans.Gauge())
    bench = workloads.Bench(args.seed, work, clocks)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        bench.setup()
        setup_end = time.perf_counter()
        # one cold set-up from process start, without the gauge's own time
        setup_wall = AGE_AT_T0 + setup_end - T0 - clocks.gauge.spent
        bench.round_inputs()
        phases = workloads.WORKLOADS[args.workload](bench, args.seconds, report)
        next(phases)                       # the seed's inputs are built
        report["setup_parts_s"] = {"start": AGE_AT_T0, "imports": T_IMPORTED - T0,
                                   "setup": setup_end - T_IMPORTED,
                                   "inputs (not timed)": time.perf_counter() - setup_end}
        clocks.install()
        metrics = next(phases)             # timed part done
        restore(clocks, tracer)            # the checks are neither timed nor traced
        for _ in phases:
            pass
    finally:
        restore(clocks, tracer)
        shutil.rmtree(work, ignore_errors=True)

    # scaled like the rates, by the gauge samples nearest to the set-up: the
    # first ones of the timed part (samples taken inside the 1-s set-up
    # tracked the core's speed worse)
    report["raw_metrics"]["setup_s"] = setup_wall
    metrics["setup_s"] = setup_wall * spans.Gauge.NOMINAL_S / statistics.median(
        clocks.gauge.secs[:SETUP_GAUGE_SAMPLES])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(metrics=metrics, checks=bench.check.results,
                  units={"steps": clocks.steps, "windows": clocks.windows,
                         "volumes": clocks.volumes, "rounds": bench.round_units,
                         "gauge": list(zip(clocks.gauge.at, clocks.gauge.secs)),
                         "table_steps": clocks.steps[bench.table_steps],
                         "table_volumes": clocks.volumes[bench.table_volumes]})
    if tracer is not None:
        layer = spans.layer_metrics(tracer, rounds=len(bench.round_dirs), setup_end=setup_end)
        report["layer_table"] = unit_tables(tracer, clocks, bench)
        report["layer_metrics"] = layer
        report["spans"] = tracer.dump()
        shown = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        shown = {k: {"value": metrics[k], "unit": u} for k, u in UNITS.items()}
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(runs, name), "w") as f:
        json.dump(report, f)
    failed_checks = [r for r in bench.check.results if not r["ok"]]
    for r in failed_checks:
        print(f"check failed: {r['check']}: {r['detail']}", file=sys.stderr)
    print(json.dumps({"correct": bench.check.ok, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
