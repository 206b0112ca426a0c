"""obflow benchmark: time to solution of three solver workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1] [--steps N]

Closed loop, one client: samples run one after another, each in a fresh
process with BLAS and OpenMP pinned to one thread (numpy's FFT is single
threaded), until ``--seconds`` are spent.  A sample sets up and runs one
workload to its ``t_end`` and passes the correctness gate or counts as
failed.  ``--trace 0`` reports the end-to-end metrics over the samples.
``--trace 1`` alternates untraced and traced samples and reports per-layer
metrics from the traced ones (medians), with the tracing overhead.
``--steps N`` shortens every sample to N steps, for the self-test.

Host speed.  On a shared machine the same code runs up to twice as fast in
one minute as in the next.  Every sample therefore times a fixed numpy-only
kernel just before and just after its run (``sample.host_speed_s``).
``setup_s``, ``run_s``, ``cpu_s`` and ``steps_per_s`` are scaled to the host
speed at which that kernel takes ``host_ref_s`` seconds (``reference.json``:
the median on the machine the references were taken on), so they read as
seconds on that host.  The unscaled medians are printed beside them and kept
in the result file.  ``peak_rss_mb`` is the median, unscaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the machine, the computed sizes and every sample, goes to
``perfbench/out/result-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = workloads.HERE
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1"}
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
              "steps_per_s": "1/s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "spectral.fft_inv_comps_per_step": "count",
    "spectral.fft_fwd_comps_per_step": "count",
    "spectral.fft_inv_comps_per_record": "count",
    "spectral.fft_fwd_comps_per_record": "count",
    "spectral.fft_inv_comps_per_rhs": "count",
    "spectral.fft_fwd_comps_per_rhs": "count",
    "spectral.fft_s": "s",
    "spectral.fft_share": "ratio",
    "spectral.fft_bytes_per_step": "B_computed",
    "spectral.project_calls_per_step": "count",
    "spectral.project_s": "s",
    "model.rhs_calls_per_step": "count",
    "model.rhs_calls_per_record": "count",
    "model.rhs_self_s": "s",
    "model.budget_s": "s",
    "stepping.step_ms_p50": "ms",
    "stepping.step_ms_ptail": "ms",
    "stepping.step_ms_ptail_pct": "percentile",
    "stepping.step_samples": "count",
    "stepping.step_self_s": "s",
    "stepping.cfl_calls": "count",
    "stepping.cfl_s": "s",
    "diagnostics.observe_calls": "count",
    "diagnostics.observe_ms_p50": "ms",
    "diagnostics.observe_share": "ratio",
    "diagnostics.observe_over_step": "ratio",
    "snapshots.write_calls": "count",
    "snapshots.write_bytes": "B",
    "snapshots.write_s": "s",
    "experiments.post_s": "s",
    "experiments.artifact_bytes": "B",
    "config.validate_s": "s",
    "trace.overhead_frac": "ratio",
}
# exact counts: they repeat across runs and are compared with reference.json
COUNTS = [k for k, unit in PER_LAYER.items()
          if unit == "count" and k != "stepping.step_samples"]


def tail_percentile(values):
    """(p, value, n): the highest of p99.9/99/95/90/75 with at least ten
    samples beyond it, or the median when there is none."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, ordered[math.ceil(p / 100.0 * n) - 1], n
    return 50.0, statistics.median(ordered), n


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def _size_bytes(text: str):
    """Bytes of a cache size as sysfs writes it ("2048K"), or None."""
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:])
    return int(text[:-1]) * scale if scale and text[:-1].isdigit() else None


def machine(env: dict) -> dict:
    """nproc, CPU model, cache sizes, versions and the pinned thread variables."""
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    return dict(env, nproc=len(os.sched_getaffinity(0)), cpu=cpu,
                caches_per_instance=caches, threads=THREAD_VARS)


def child(args, timeout: float):
    """Run sample.py in a fresh process; (its last stdout line parsed, error)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_VARS)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), "--out", str(OUT), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip() or f"exit code {proc.returncode}"
    return json.loads(lines[-1]), ""


def failed(sample) -> bool:
    return sample is None or "error" in sample or not sample["gate"]["ok"]


def timed(samples):
    return [s for s in samples if s is not None and "run_s" in s]


def end_to_end(samples, host_ref_s: float) -> dict:
    """Means over the samples, times scaled to the reference host speed.

    The scale is host_ref_s over the mean host-speed kernel time of all the
    samples.  A per-sample scale would carry the noise of each short kernel
    run; the mean over the samples averages it out.  Peak RSS is the median.
    """
    mean = statistics.fmean
    rows = timed(samples)
    scale = host_ref_s / mean(mean(s["host_speed_s"]) for s in rows)
    run_s = mean(s["run_s"] for s in rows) * scale
    return {
        "setup_s": mean(s["setup_s"] for s in rows) * scale,
        "run_s": run_s,
        "cpu_s": mean(s["cpu_s"] for s in rows) * scale,
        "steps_per_s": mean(s["steps"] for s in rows) / run_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in rows),
    }


def wall_clock(samples) -> dict:
    """Unscaled medians, printed beside the scaled metrics."""
    rows = timed(samples)
    return {key: statistics.median(
                statistics.fmean(s[key]) if key == "host_speed_s" else s[key]
                for s in rows)
            for key in ("setup_s", "run_s", "cpu_s", "host_speed_s")}


def per_layer(plain, traced, host_ref_s: float) -> dict:
    """Times are medians over traced samples; step and observe percentiles
    pool the calls of every traced sample."""
    layers = [s["layers"] for s in timed(traced)]
    out = {key: statistics.median(lay[key] for lay in layers)
           for key in PER_LAYER if key in layers[0]}
    step_ms = [v for lay in layers for v in lay["_step_ms"]]
    observe_ms = [v for lay in layers for v in lay["_observe_ms"]]
    pct, tail, n = tail_percentile(step_ms)
    out["stepping.step_ms_p50"] = statistics.median(step_ms)
    out["stepping.step_ms_ptail"] = tail
    out["stepping.step_ms_ptail_pct"] = pct
    out["stepping.step_samples"] = n
    out["diagnostics.observe_ms_p50"] = statistics.median(observe_ms)
    out["diagnostics.observe_over_step"] = (
        out["diagnostics.observe_ms_p50"] / out["stepping.step_ms_p50"])
    out["trace.overhead_frac"] = (end_to_end(traced, host_ref_s)["run_s"]
                                  / end_to_end(plain, host_ref_s)["run_s"] - 1.0)
    return {key: out[key] for key in PER_LAYER}


def count_report(traced, reference) -> dict:
    """Whether the exact counts repeat across traced samples, and those that
    differ from the stored baseline (None when no baseline applies)."""
    layers = [s["layers"] for s in timed(traced)]
    repeat = all(lay[k] == layers[0][k] for lay in layers for k in COUNTS)
    moved = None
    if reference is not None:
        moved = {k: [reference[k], layers[0][k]] for k in COUNTS
                 if layers[0][k] != reference[k]}
    return {"repeat": repeat, "moved_from_baseline": moved}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)

    # also compiles obflow's bytecode, so no timed sample pays for that
    env, err = child(["--warmup"], DEADLINE_S)
    if env is None:
        print(f"cannot import obflow from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    stored = workloads.load_reference()["workloads"][args.workload]
    full_default = args.seed == workloads.DEFAULT_SEED and args.steps == 0

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--steps", str(args.steps)]
    modes = (0, 1) if args.trace else (0,)
    samples = {0: [], 1: []}
    errors = []
    loop_start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            remaining = DEADLINE_S - (time.perf_counter() - start)
            sample, err = child(base + ["--trace", str(mode), "--run",
                                        str(rounds)], max(remaining, 1.0))
            samples[mode].append(sample)
            if failed(sample):
                errors.append(err or (sample or {}).get("error")
                              or "; ".join(sample["gate"]["problems"]))
        rounds += 1
        elapsed = time.perf_counter() - loop_start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    every = samples[0] + samples[1]
    attempted = len(every)
    n_failed = sum(failed(s) for s in every)
    if not all(timed(samples[mode]) for mode in modes):
        print("no sample completed:\n" + "\n".join(errors), file=sys.stderr)
        return 1
    devs = [s["gate"]["worst_rel_dev"] for s in timed(every)
            if s["gate"]["worst_rel_dev"] is not None]
    worst = max(devs) if devs else None
    host_ref_s = stored["host_ref_s"]
    e2e = end_to_end(samples[0], host_ref_s)
    wall = wall_clock(samples[0])
    counts = None
    if args.trace:
        metrics, units = per_layer(samples[0], samples[1], host_ref_s), PER_LAYER
        counts = count_report(samples[1],
                              stored["counts"] if full_default else None)
    else:
        metrics, units = e2e, END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "steps_override": args.steps, "trace": args.trace,
        "machine": machine(env), "sizes": workloads.sizes(args.workload),
        "host_ref_s": host_ref_s, "end_to_end": e2e, "wall_clock": wall,
        "failed_frac": n_failed / attempted, "worst_rel_dev": worst,
        "errors": errors, "counts": counts, "metrics": metrics,
        "samples": every,
    }
    (OUT / f"result-{args.workload}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    mach, size = record["machine"], record["sizes"]
    print(f"machine: {mach['cpu']}, nproc {mach['nproc']}, caches "
          f"{mach['caches_per_instance']}, python {mach['python']}, numpy "
          f"{mach['numpy']}, {mach['fft_backend']}, threads pinned to 1")
    l2 = _size_bytes(mach["caches_per_instance"].get("L2", ""))
    beside_l2 = "" if l2 is None else (
        f" ({size['largest_stack_bytes'] / l2:.2f} x L2, inverse per rhs "
        f"{size['rhs_inverse_bytes'] / l2:.2f} x L2)")
    print(f"sizes ({args.workload}, computed): state {size['state_bytes']} B, "
          f"largest stack {size['largest_stack_bytes']} B, inverse per rhs "
          f"{size['rhs_inverse_bytes']} B{beside_l2}")
    print(f"host speed: kernel median {wall['host_speed_s']:.4f} s against "
          f"{host_ref_s} s reference; unscaled medians over "
          f"{len(timed(samples[0]))} samples: setup_s {wall['setup_s']:.4f} s, "
          f"run_s {wall['run_s']:.4f} s, cpu_s {wall['cpu_s']:.4f} s")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"failed_frac = {n_failed}/{attempted} = {n_failed / attempted:.6g} ratio")
    if counts is not None:
        moved = counts["moved_from_baseline"]
        print(f"counts repeat across traced samples: {counts['repeat']}; "
              + ("no baseline for this seed and length" if moved is None
                 else f"moved from baseline: {moved or 'none'}"))
    reference = ("not compared (seed or length differs from the reference)"
                 if worst is None else f"worst relative deviation {worst:.3e}")
    print(f"correctness: {'PASS' if n_failed == 0 else 'FAIL'}; {reference}")
    for err in errors:
        print(f"failed sample: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
