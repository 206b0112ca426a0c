"""Self-test of the benchmark: python3 -m pytest -q perfbench

Short runs of every workload check that each metric of BENCHMARK.json
prints by name with its unit, that span self times are consistent, that
counts repeat, and that the correctness gate is live.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = workloads.HERE
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import sample  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_prints_with_unit(name, trace):
    proc = bench("--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--steps", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.startswith(f"{m['name']} = ") and
                   line.endswith(f" {m['unit']}") for line in lines[:-1]), m
    assert any(line.startswith("failed_frac = ") for line in lines)
    assert any(line.startswith("correctness: PASS") for line in lines)
    if trace:
        assert "trace.overhead_frac" in result["metrics"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_span_self_times_and_counts_repeat(tmp_path):
    runs = [sample.run_sample("bootstrap-2d64", 7, tmp_path, trace=True,
                              run_id=k, steps=3) for k in range(2)]
    for run in runs:
        assert run["gate"]["ok"], run["gate"]
        assert run["self_times_ok"]
        spans = [json.loads(line) for line in
                 (tmp_path / f"spans-bootstrap-2d64-run{run['run']}.jsonl")
                 .read_text().splitlines()]
        names = {s["name"] for s in spans}
        assert {"stepping.step", "stepping.cfl_dt", "fft.inv", "fft.fwd",
                "diagnostics.observe"} <= names
    counts = [k for k in runs[0]["layers"]
              if "_comps_" in k or "_calls" in k]
    assert counts
    assert all(runs[0]["layers"][k] == runs[1]["layers"][k] for k in counts)
    assert runs[0]["layers"]["model.rhs_calls_per_step"] == 4


@pytest.mark.parametrize("name, inv, fwd", [("bootstrap-2d64", 15, 8),
                                            ("wave-3d32", 36, 15)])
def test_components_per_rhs_match_the_baseline(tmp_path, name, inv, fwd):
    stored = workloads.load_reference()["workloads"][name]["counts"]
    layers = sample.run_sample(name, 7, tmp_path, trace=True, steps=1)["layers"]
    assert layers["spectral.fft_inv_comps_per_rhs"] == inv
    assert layers["spectral.fft_fwd_comps_per_rhs"] == fwd
    for key in ("spectral.fft_inv_comps_per_step",
                "spectral.fft_fwd_comps_per_step",
                "spectral.fft_inv_comps_per_record",
                "spectral.fft_fwd_comps_per_record",
                "spectral.project_calls_per_step",
                "model.rhs_calls_per_step", "model.rhs_calls_per_record"):
        assert layers[key] == stored[key], key


def test_gate_fails_a_perturbed_reference(tmp_path):
    stored = workloads.load_reference()["workloads"]["bootstrap-2d64"]["values"]
    good = sample.run_sample("bootstrap-2d64", workloads.DEFAULT_SEED, tmp_path)
    assert good["gate"]["ok"], good["gate"]
    assert good["gate"]["worst_rel_dev"] <= workloads.RTOL
    perturbed = dict(stored)
    perturbed["bootstrap.c_star"] *= 1.0 + 1e-6
    bad = sample.run_sample("bootstrap-2d64", workloads.DEFAULT_SEED,
                            tmp_path, reference=perturbed)
    assert not bad["gate"]["ok"]
    assert bad["gate"]["worst_rel_dev"] == pytest.approx(1e-6, rel=1e-3)


def test_other_seed_runs_seed_independent_gates_only(tmp_path):
    run = sample.run_sample("wave-3d32", 8, tmp_path, steps=1)
    assert run["gate"]["ok"], run["gate"]
    assert run["gate"]["worst_rel_dev"] is None


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
