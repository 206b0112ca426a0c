"""Workload definitions, the correctness gate and the stored references.

The three workloads are fixed by name, grid, physics and cadence; later
changes refer to them by name.  Each runs through
``obflow.experiments.run_single``, the path ``obflow run`` takes.  Only the
seed varies between runs; it feeds ``initial_data.seed``.

``reference.json`` beside this file holds, for the default seed and the run
length below, the summary values the gate compares against, and the exact
per-step and per-record transform, ``explicit_rhs`` and projection counts of
the traced run.  Its values were taken from the ``values`` and ``counts``
fields that ``sample.py`` prints for seed 7.  ``host_ref_s`` is the median
time of ``sample.host_speed_s`` on the machine the references were taken on
(Intel Xeon, 2 vCPUs, 2 MiB L2 per core), the host speed that the scaled run
times of ``run.py`` refer to.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 7

# Summary values compared with the reference on the default seed.  A
# reordering of floating-point operations moved them by at most 3e-14
# (numpy against scipy transforms); a wrong term (b = 0.4 for 0.5, Q or
# u.grad u dropped) moved them by 5.6e-9 or more at these run lengths.
REFERENCE_KEYS = ("steps", "t_final", "sup_u_hs", "sup_tau_hs",
                  "bootstrap.c_star", "bootstrap.sup_e",
                  "max_identity_residual")
RTOL = 1e-10

_PHYSICS = {"eta": 1.0, "b": 0.5}

WORKLOADS = {
    # Prefix of the acceptance criterion-5 member: small arrays, so per-call
    # overhead in model and stepping dominates; cfl_dt runs every step and
    # diagnostics are about 1% of the run.
    "bootstrap-2d64": {
        "config": {
            "grid": {"d": 2, "n": 64},
            "model": dict(_PHYSICS, beta=0.5),
            "stepper": {"dt": "auto"},
            "diagnostics": {"cadence_steps": 50},
            "initial_data": {"recipe": "random-band", "epsilon": 1e-2},
        },
        "t_end": 2.0,
        "writes": False,
    },
    # How a user verifies the energy identity: dense records, so observe,
    # energy_budget, snapshots and post-processing are a large share.
    "identity-2d128": {
        "config": {
            "grid": {"d": 2, "n": 128},
            "model": dict(_PHYSICS, beta=0.5),
            "stepper": {"dt": 5e-3},
            "diagnostics": {"cadence_steps": 1},
            "initial_data": {"recipe": "random-band", "epsilon": 0.1},
            "output": {"snapshot_cadence_steps": 10},
        },
        "t_end": 0.15,
        "writes": True,
    },
    # Transform-bound: 36-component inverse stacks larger than L2, and the
    # only workload with 3x3 tensor algebra.
    "wave-3d32": {
        "config": {
            "grid": {"d": 3, "n": 32},
            "model": dict(_PHYSICS, beta=1.0),
            "stepper": {"dt": 1e-2},
            "diagnostics": {"cadence_steps": 20},
            "initial_data": {"recipe": "random-band", "epsilon": 1e-2},
        },
        "t_end": 0.08,
        "writes": False,
    },
}


def raw_config(name: str, seed: int, steps: int = 0) -> dict:
    """The raw config dict of a workload; ``steps`` > 0 shortens the run.

    A shortened run lasts ``steps`` steps of the fixed dt, or of the dt cap
    when dt is auto.
    """
    spec = WORKLOADS[name]
    raw = json.loads(json.dumps(spec["config"]))
    raw["initial_data"]["seed"] = int(seed)
    dt = raw["stepper"]["dt"]
    t_end = spec["t_end"]
    if steps > 0:
        t_end = steps * (1e-2 if dt == "auto" else dt)
    raw["stepper"]["t_end"] = t_end
    return raw


def expected_steps(raw: dict):
    """Step count implied by t_end / dt for a fixed dt, None for auto dt."""
    dt = raw["stepper"]["dt"]
    if dt == "auto":
        return None
    t_end = raw["stepper"]["t_end"]
    n_full = math.floor(t_end / dt + 1e-9)
    remainder = t_end - n_full * dt
    return n_full + (1 if remainder >= 1e-12 * max(dt, 1.0) else 0)


def sizes(name: str) -> dict:
    """Computed bytes of the state and of the stacked transforms.

    Coefficients are complex128.  The largest single stack is the stress
    gradient (m * d components, m = d(d+1)/2); one explicit_rhs call
    inverts d + d^2 + m d + m components in all.
    """
    grid = WORKLOADS[name]["config"]["grid"]
    d, n = grid["d"], grid["n"]
    m = d * (d + 1) // 2
    comp = 16 * n ** d
    return {"component_bytes": comp,
            "state_bytes": (d + m) * comp,
            "largest_stack_bytes": m * d * comp,
            "rhs_inverse_bytes": (d + d * d + m * d + m) * comp}


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _lookup(summary: dict, key: str):
    node = summary
    for part in key.split("."):
        node = node[part]
    return node


def reference_values(summary: dict) -> dict:
    """The summary values that the reference stores."""
    return {key: _lookup(summary, key) for key in REFERENCE_KEYS}


def check(summary: dict, raw: dict, reference=None) -> dict:
    """Correctness gate of one run.

    Seed-independent gates: no blow-up, every built-in check true, bounded
    norms, no Lyapunov violation and, for a fixed dt, the implied step
    count.  With ``reference`` (the stored values for this workload, used on
    the default seed and full length only) every reference key must also
    match within RTOL.  Returns the verdict, the failed gates and the worst
    relative deviation from the reference.
    """
    problems = []
    if summary["blow_up"] is not None:
        problems.append(f"blow-up at {summary['blow_up']}")
    for key, ok in summary["checks"].items():
        if not ok:
            problems.append(f"check {key} failed")
    if not summary["bootstrap"]["bounded_norms"]:
        problems.append("bounded_norms failed")
    if summary["lyapunov_violations"] != 0:
        problems.append(f"{summary['lyapunov_violations']} Lyapunov violations")
    want = expected_steps(raw)
    if want is not None and summary["steps"] != want:
        problems.append(f"steps {summary['steps']} != {want} from t_end/dt")
    worst = None
    if reference is not None:
        worst = 0.0
        for key in REFERENCE_KEYS:
            got, ref = _lookup(summary, key), reference[key]
            if ref is None or got is None:
                dev = 0.0 if got is ref else math.inf
            elif ref == 0:
                dev = abs(got)
            else:
                dev = abs(got - ref) / abs(ref)
            worst = max(worst, dev)
            if not dev <= RTOL:
                problems.append(f"{key} = {got!r}, reference {ref!r} "
                                f"(relative deviation {dev:.3e})")
    return {"ok": not problems, "problems": problems, "worst_rel_dev": worst}
