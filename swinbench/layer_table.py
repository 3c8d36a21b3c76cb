"""Per-layer table of one training step and one segmented volume.

    python3 swinbench/layer_table.py

Runs the ``train``, ``segment`` and ``pipeline`` workloads twice each, once
untraced and once traced, as separate processes of ``swinbench/run.py``, with
seed SEED and the run length of BENCHMARK.json, and writes
``swinbench/runs/layer_table.md``:

* the self time of every traced layer per training step (``train``) and per
  segmented 64^3 volume (``segment``), from the traced run;
* coverage: the sum of those rows as a share of the untraced step or volume
  time, which is measured by the untraced run, apart from the trace;
* the make-up of one semi-supervised round (``pipeline``): self time by
  stage, beside an estimate for the acceptance pipeline's round;
* tracing overhead: each end-to-end metric of the traced run against the
  untraced one.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join(HERE, "runs")
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

TOP_ROWS = 14
SEED = 0
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SECONDS = json.load(_f)["run_seconds"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} trace={trace}: checks failed\n{out.stderr}")
    with open(os.path.join(RUNS, f"{workload}-s{seed}-t{trace}.json")) as f:
        return json.load(f)


def scaled(report, units):
    """Unit seconds times the run's gauge scale around each unit."""
    gauge = spans.Gauge()
    gauge.at, gauge.secs = (list(x) for x in zip(*report["units"]["gauge"]))
    return [u[2] * gauge.scale(u[0], u[1]) for u in units]


# the acceptance pipeline's round (tests/test_acceptance.py run_pipeline)
# against the benchmark's: the unit count that drives each stage
ACCEPTANCE_ROUND = {"training": ("fine-tune steps", 200, workloads.FINETUNE_STEPS),
                    "inference": ("segmented volumes", 6,
                                  workloads.PIPE_UNLABELED + workloads.PIPE_VAL),
                    "I/O": ("cases", 14, workloads.PIPE_LABELED + workloads.PIPE_UNLABELED
                            + workloads.PIPE_VAL),
                    "evaluate": ("val cases", 2, workloads.PIPE_VAL),
                    "CLI": ("segctl calls", 5, 3 + workloads.PIPE_VAL),
                    "other": ("segctl calls", 5, 3 + workloads.PIPE_VAL)}
IO_LAYERS = ("volio.", "model.save_checkpoint", "model.load_checkpoint")
INFER_LAYERS = {"training.sliding_window_infer", "preprocess.zscore",
                "model.predict_labels", "postprocess.keep_largest_per_label"}


def round_makeup(report):
    """Self time per round by stage, from the traced pipeline run's spans:
    I/O (volio, checkpoint save/load), training (inside run_training),
    inference (z-score, sliding window, argmax, keep-largest), evaluate,
    CLI (the self time of main) and other. The gauge's samples are taken
    out of the span they ran in."""
    dump = report["spans"]
    layers = dump["layers"]
    sp = dump["spans"]
    selft = [t1 - t0 for _, t0, t1, _ in sp]
    for _, t0, t1, parent in sp:
        if parent >= 0:
            selft[parent] -= t1 - t0
    starts = [s[1] for s in sp]
    for at, secs in report["units"]["gauge"]:
        i = bisect.bisect_right(starts, at) - 1
        while i >= 0 and sp[i][2] < at:
            i -= 1
        if i >= 0:
            selft[i] -= secs

    def stage(i):
        layer = layers[sp[i][0]]
        if layer.startswith(IO_LAYERS):
            return "I/O"
        if layer == "cli.main":
            return "CLI"
        while i >= 0:
            layer = layers[sp[i][0]]
            if layer == "training.run_training":
                return "training"
            if layer in INFER_LAYERS:
                return "inference"
            if layer == "lossmetrics.evaluate_pair":
                return "evaluate"
            i = sp[i][3]
        return "other"

    rounds = report["units"]["rounds"]
    out = dict.fromkeys(ACCEPTANCE_ROUND, 0.0)
    for i, (_, t0, t1, _) in enumerate(sp):
        if any(lo <= t0 and t1 <= hi for lo, hi, _ in rounds):
            out[stage(i)] += selft[i] / len(rounds)
    return out


def makeup_table(makeup, round_s):
    """Stage shares of the benchmark's round beside the acceptance round,
    estimated by scaling each stage by the unit count that drives it."""
    acc = {k: v * ACCEPTANCE_ROUND[k][1] / ACCEPTANCE_ROUND[k][2] for k, v in makeup.items()}
    bench_total, acc_total = sum(makeup.values()), sum(acc.values())
    lines = ["### Make-up of a semi-supervised round (`pipeline`)", "",
             f"Untraced round: {round_s:.2f} s (median, gauge-scaled). Traced stage "
             f"self times sum to {bench_total:.2f} s per round (unscaled, gauge samples "
             f"taken out). The acceptance round is estimated from them, each stage scaled "
             f"by the unit count that drives it.", "",
             "| stage | driven by | benchmark round | share | acceptance round (est.) | share |",
             "| --- | --- | ---: | ---: | ---: | ---: |"]
    for k, v in makeup.items():
        what, n_acc, n_bench = ACCEPTANCE_ROUND[k]
        lines.append(f"| {k} | {what}: {n_bench} vs {n_acc} | {v:.3f} s | "
                     f"{100 * v / bench_total:.2f}% | {acc[k]:.3f} s | "
                     f"{100 * acc[k] / acc_total:.2f}% |")
    lines += [f"| **total** | | {bench_total:.3f} s | 100% | {acc_total:.3f} s | 100% |", ""]
    return lines


def table(title, unit_ms, traced):
    rows = traced["rows_ms"]
    covered = sum(rows.values())
    lines = [f"### {title}", "",
             f"Untraced time per unit: {unit_ms:.1f} ms (median). Traced rows "
             f"sum to {covered:.1f} ms over {traced['units']} units: coverage "
             f"{100 * covered / unit_ms:.1f}% of the untraced time.", "",
             "| layer | self ms per unit | share of untraced |", "| --- | ---: | ---: |"]
    shown = list(rows.items())[:TOP_ROWS]
    for name, ms in shown:
        lines.append(f"| `{name}` | {ms:.2f} | {100 * ms / unit_ms:.1f}% |")
    rest = covered - sum(ms for _, ms in shown)
    lines += [f"| {len(rows) - len(shown)} other rows | {rest:.2f} | {100 * rest / unit_ms:.1f}% |",
              f"| **sum of rows** | {covered:.2f} | {100 * covered / unit_ms:.1f}% |", ""]
    return lines


def main():
    plain = {w: run(w, SEED, SECONDS, 0) for w in ("train", "segment", "pipeline")}
    traced = {w: run(w, SEED, SECONDS, 1) for w in ("train", "segment", "pipeline")}

    # untraced time per unit, gauge-scaled like the traced rows, so that the
    # two runs compare at the same machine speed
    step_ms = 1e3 * statistics.median(scaled(plain["train"], plain["train"]["units"]["table_steps"]))
    cube = [v for v in plain["segment"]["units"]["table_volumes"] if v[3] == [64, 64, 64]]
    vol_ms = 1e3 * statistics.median(scaled(plain["segment"], cube))
    lines = [f"# Per-layer table (seed {SEED}, {SECONDS:g} s runs)", ""]
    lines += table("One training step (`train`)", step_ms, traced["train"]["layer_table"]["step"])
    lines += table("One segmented 64x64x64 volume (`segment`)", vol_ms,
                   traced["segment"]["layer_table"]["volume 64x64x64"])
    lines += makeup_table(round_makeup(traced["pipeline"]), plain["pipeline"]["metrics"]["round_s"])
    lines += ["### Tracing overhead", "",
              "Traced end-to-end figure against the untraced one (time ratio - 1), both gauge-scaled.",
              "",
              "| workload | train_samples_per_s | segment_mvox_per_s | round_s |",
              "| --- | ---: | ---: | ---: |"]
    for w in plain:
        p, t = plain[w]["metrics"], traced[w]["metrics"]
        lines.append(f"| {w} | {100 * (p['train_samples_per_s'] / t['train_samples_per_s'] - 1):+.1f}% "
                     f"| {100 * (p['segment_mvox_per_s'] / t['segment_mvox_per_s'] - 1):+.1f}% "
                     f"| {100 * (t['round_s'] / p['round_s'] - 1):+.1f}% |")
    lines += ["", "### Per-layer metrics", "", "| metric | " + " | ".join(traced) + " |",
              "| --- |" + " ---: |" * len(traced)]
    for name in traced["train"]["layer_metrics"]:
        vals = " | ".join(f"{traced[w]['layer_metrics'][name]:.4g}" for w in traced)
        lines.append(f"| `{name}` | {vals} |")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(RUNS, "layer_table.md"), "w") as f:
        f.write(text)
    print(text)


if __name__ == "__main__":
    main()
