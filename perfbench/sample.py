"""One benchmark sample: set up and run one workload in this process.

    python3 perfbench/sample.py --workload NAME --seed N [--trace 1]
        [--run K] [--steps N] --out DIR
    python3 perfbench/sample.py --warmup --out DIR

``run.py`` starts a fresh process with one thread for each sample and reads
the JSON object this prints as its last line.  Set-up time runs from
``import obflow`` through ``validate_config`` and ``make_initial_data``, so
nothing from obflow or numpy may be imported above ``run_sample``'s timer.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

SRC = workloads.HERE.parent / "src"


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def host_speed_s(name: str) -> float:
    """Seconds of a fixed kernel that stands in for the host's speed.

    It runs just before and just after every sample, so that run.py can
    divide out the speed of the host, which on a shared machine drifts by up
    to a factor of two over minutes.  The host's slow spells slow transform
    code more than interpreter-bound code, so the kernel has both kinds of
    work: forward and inverse transforms of an array shaped like the
    workload's state (d + d(d+1)/2 components, about 4e6 grid points in
    all), many numpy calls on tiny arrays, and a pure-Python loop.  obflow's
    code does not take part, so a change to obflow cannot move it.
    """
    import numpy as np
    grid = workloads.WORKLOADS[name]["config"]["grid"]
    d, n = grid["d"], grid["n"]
    shape = (d + d * (d + 1) // 2,) + (n,) * d
    axes = tuple(range(-d, 0))
    a = np.random.default_rng(0).standard_normal(shape)
    tiny, ones = np.ones(16), np.ones(16)
    counts = {}
    start = time.perf_counter()
    for _ in range(-(-4_000_000 // a.size)):
        a = np.fft.ifftn(np.fft.fftn(a, axes=axes), axes=axes).real
    for _ in range(40_000):
        tiny = (tiny * ones + tiny) - ones
    for i in range(400_000):
        counts[i & 63] = counts.get(i & 63, 0.0) + 0.5 * i
    return time.perf_counter() - start


def run_sample(name: str, seed: int, out: Path, trace: bool = False,
               run_id: int = 0, steps: int = 0, reference=None) -> dict:
    """Set up and run one workload; returns timings, gate verdict and values.

    ``reference`` defaults to the stored values on the default seed at full
    length; shortened or other-seed runs pass the seed-independent gates only.
    """
    raw = workloads.raw_config(name, seed, steps)
    t0 = time.perf_counter()
    import obflow
    from obflow.config import validate_config
    from obflow.experiments import run_single
    from obflow.model import make_initial_data
    v0 = time.perf_counter()
    cfg, _ = validate_config(raw)
    validate_s = time.perf_counter() - v0
    ini = cfg.initial_data
    make_initial_data(cfg.grid, recipe=ini.recipe, epsilon=ini.epsilon,
                      s=cfg.diagnostics.resolve_s(cfg.grid), seed=ini.seed,
                      mode=ini.mode, band=ini.band)
    setup_s = time.perf_counter() - t0
    if not Path(obflow.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"obflow imported from {obflow.__file__}, not {SRC}")

    if reference is None and seed == workloads.DEFAULT_SEED and steps == 0:
        reference = workloads.load_reference()["workloads"][name]["values"]
    out.mkdir(parents=True, exist_ok=True)
    speed_before = host_speed_s(name)
    outdir = (Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
              if workloads.WORKLOADS[name]["writes"] else None)
    tracer = None
    runner = run_single
    if trace:
        import spans
        tracer = spans.Tracer(run_id)
        tracer.install()
        runner = tracer.span(spans.RUN, run_single)
    try:
        c0, w0 = time.process_time(), time.perf_counter()
        result = runner(cfg, outdir)
        run_s = time.perf_counter() - w0
        cpu_s = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.remove()
        write_bytes = artifact_bytes = 0
        if outdir is not None:
            write_bytes = _tree_bytes(outdir / "snapshots")
            artifact_bytes = _tree_bytes(outdir)
            shutil.rmtree(outdir)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed_after = host_speed_s(name)
    summary = result.summary
    sample = {
        "workload": name, "seed": seed, "run": run_id, "trace": bool(trace),
        "setup_s": setup_s, "validate_s": validate_s,
        "run_s": run_s, "cpu_s": cpu_s, "steps": summary["steps"],
        "host_speed_s": [speed_before, speed_after],
        "peak_rss_mb": peak_rss_mb,
        "gate": workloads.check(summary, raw, reference),
        "values": workloads.reference_values(summary),
    }
    if tracer is not None:
        tracer.write(out / f"spans-{name}-run{run_id}.jsonl")
        layers = spans.layer_metrics(tracer.spans, cfg.grid.n ** cfg.grid.d,
                                     run_s)
        layers["snapshots.write_bytes"] = write_bytes
        layers["experiments.artifact_bytes"] = artifact_bytes
        layers["config.validate_s"] = validate_s
        sample["layers"] = layers
        sample["self_times_ok"] = all(
            0.0 <= own <= dur for dur, own in spans.self_times(tracer.spans).values())
    return sample


def environment() -> dict:
    """Interpreter, numpy and FFT backend of this process."""
    import numpy
    import obflow
    backend = "numpy.fft (pocketfft)"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "fft_backend": backend, "obflow": str(Path(obflow.__file__).parent)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--run", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)
    if args.warmup:
        env = environment()
        if not Path(env["obflow"]).resolve().is_relative_to(SRC):
            print(f"obflow imported from {env['obflow']}, not {SRC}",
                  file=sys.stderr)
            return 1
        print(json.dumps(env))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        sample = run_sample(args.workload, args.seed, args.out,
                            bool(args.trace), args.run, args.steps)
    except Exception:
        # a run that raises is a failed run, reported like a failed gate
        sample = {"workload": args.workload, "seed": args.seed,
                  "run": args.run, "error": traceback.format_exc()}
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
