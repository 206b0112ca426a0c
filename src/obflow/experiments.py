"""Experiment drivers: single runs, linear-wave verification, nu-sweeps.

Every driver is deterministic for a fixed config: initial data is seeded,
step counts and record/snapshot times are derived from the config alone,
and all file output goes through atomic writes.  run_members runs
independent members in separate processes; each member's outputs are
identical whether the pool has one worker or many.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import ConfigError, RunConfig, validate_config
from .diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    bootstrap_monitor,
    diagnostics_csv,
    max_relative_identity_residual,
    trajectory_distance,
)
from .linear import linear_mode_solution, mode_coefficients
from .model import FlowState, make_initial_data, single_mode
from .snapshots import (atomic_write_text, csv_text, json_text, read_snapshot,
                        write_snapshot)
from .spectral import divergence, leray_project
from .stepping import BlowUpError, integrate

# Gate on the deviation of a linear-toggles run from the exact mode solution.
ORACLE_TOL = 1e-10


def _state_components(state: FlowState) -> np.ndarray:
    """Physical snapshot payload: velocity components, then stress triangle."""
    return np.concatenate([state.u.to_physical(), state.tau.to_physical()])


@dataclass
class RunResult:
    config: RunConfig
    records: List[DiagnosticsRecord]
    summary: dict
    final_state: FlowState
    outdir: Optional[Path]
    blew_up: bool


def run_single(cfg: RunConfig, outdir: Optional[Path] = None) -> RunResult:
    """Integrate one configuration and (optionally) write its artifacts.

    Writes diagnostics.csv, summary.json, config.json and OBSF snapshots
    under outdir when given; the directory is made when its first file
    lands, so a run that fails before its first snapshot leaves none.  A
    blow-up is not raised here: the partial record stream and a marker in
    the summary are produced instead.
    """
    grid = cfg.grid
    params = cfg.model
    collector = DiagnosticsCollector(params, cfg.diagnostics, grid)

    manifest: List[dict] = []
    # a record returns its Tendency, which integrate hands to the next step
    callbacks: List[Tuple[int, object]] = [
        (cfg.diagnostics.cadence_steps, collector.observe)]
    if outdir is not None:
        outdir = Path(outdir)

        def save_snapshot(s: FlowState, i: int) -> None:
            name = f"snapshots/snap_{i:08d}.obsf"
            write_snapshot(outdir / name, grid.d, grid.n, _state_components(s))
            manifest.append({"step": i, "t": s.t, "file": name})

        callbacks.append((cfg.output.snapshot_cadence_steps, save_snapshot))

    blow_up = None
    try:
        # the initial state is built in the call, so that no reference to
        # it outlives the first step
        result = integrate(make_initial_data(
            grid, s=cfg.diagnostics.resolve_s(grid),
            **dataclasses.asdict(cfg.initial_data)), params, cfg.stepper,
            callbacks)
        final_state, steps = result.state, result.steps
    except BlowUpError as exc:
        final_state, steps = exc.state, exc.step
        blow_up = {"t": exc.state.t, "step": exc.step, "field": exc.field}

    records = collector.records
    report = bootstrap_monitor(records)
    # the centered-difference residual needs a uniform record cadence; a
    # trailing partial step breaks that, so retry without the last record
    identity_max = None
    for tail in (None, -1):
        try:
            identity_max = max_relative_identity_residual(
                records[:tail], params)
            break
        except ValueError:
            continue
    checks = {"lyapunov_equivalence": collector.lyapunov_violations == 0}
    summary = {
        "config": cfg.to_dict(),
        "warnings": cfg.warnings(),
        "t_final": final_state.t,
        "steps": steps,
        "record_count": len(records),
        "sup_u_hs": max(r.u_hs for r in records),
        "sup_tau_hs": max(r.tau_hs for r in records),
        "bootstrap": dataclasses.asdict(report),
        "lyapunov_violations": collector.lyapunov_violations,
        "min_eig_sigma_min": min(r.min_eig_sigma for r in records),
        "max_identity_residual": identity_max,
        "blow_up": blow_up,
        "checks": checks,
        "snapshots": manifest,
    }
    if outdir is not None:
        atomic_write_text(outdir / "diagnostics.csv", diagnostics_csv(records))
        atomic_write_text(outdir / "summary.json", json_text(summary))
        atomic_write_text(outdir / "config.json", json_text(cfg.to_dict()))
    return RunResult(cfg, records, summary, final_state, outdir, blow_up is not None)


def load_snapshot_series(outdir: Path) -> List[Tuple[float, np.ndarray]]:
    """Read back the (t, components) series a run wrote under outdir."""
    outdir = Path(outdir)
    summary = json.loads((outdir / "summary.json").read_text())
    series = []
    for entry in summary["snapshots"]:
        _, _, comps = read_snapshot(outdir / entry["file"])
        series.append((entry["t"], comps))
    if not series:
        raise ValueError(f"{outdir} contains no snapshots")
    return series


@dataclass
class LinearVerifyReport:
    mode: Tuple[int, ...]
    k_mag: float
    epsilon: float
    max_deviation: float
    deviation_over_eps: float
    deviation_over_eps_sq: float
    linear_toggles: bool
    times: List[float]
    deviations: List[float]
    checks: Dict[str, bool]


def linear_verify(cfg: RunConfig,
                  outdir: Optional[Path] = None) -> LinearVerifyReport:
    """Compare the solver against the exact two-component mode solution.

    Requires the single-mode recipe.  The excited mode pair (uhat, shat),
    with shat the projected stress divergence, is tracked at the record
    cadence and compared with the closed-form solution propagated from the
    initial amplitudes.  The closed form uses nu, a and the effective
    stress dissipation (linear.mode_coefficients), so it describes the
    toggled system; both coupling toggles must be on.  With
    the nonlinear terms toggled off the deviation
    is pure integrator error and is gated at ORACLE_TOL; with full physics
    at small amplitude the deviation is quadratic in epsilon, which the
    reported ratios expose.
    """
    if cfg.initial_data.recipe != "single-mode":
        raise ConfigError(["linear-verify requires initial_data.recipe "
                           "= 'single-mode'"])
    grid = cfg.grid
    params = cfg.model
    coefficients = mode_coefficients(params)
    mode = single_mode(grid, cfg.initial_data.mode)
    idx, conjugated = grid.mode_index(mode)
    k_mag = math.sqrt(sum(m * m for m in mode))
    state = make_initial_data(grid, s=cfg.diagnostics.resolve_s(grid),
                              **dataclasses.asdict(cfg.initial_data))

    samples: List[Tuple[float, np.ndarray, np.ndarray]] = []

    def at_mode(comps: np.ndarray) -> np.ndarray:
        amplitude = comps[(slice(None),) + idx]
        return amplitude.conj() if conjugated else amplitude.copy()

    def capture(s: FlowState, i: int) -> None:
        shat = leray_project(divergence(s.tau))
        samples.append((s.t, at_mode(s.u.comps), at_mode(shat.comps)))

    integrate(state, params, cfg.stepper, [(cfg.diagnostics.cadence_steps, capture)])

    t0, u0, s0 = samples[0]
    times, devs = [], []
    for t, u_num, s_num in samples:
        u_ref, s_ref = linear_mode_solution(u0, s0, k_mag, t=t - t0,
                                            **coefficients)
        dev = max(float(np.max(np.abs(u_num - u_ref))),
                  float(np.max(np.abs(s_num - s_ref))))
        times.append(t)
        devs.append(dev)
    max_dev = max(devs)
    eps = cfg.initial_data.epsilon
    tg = params.toggles
    linear_toggles = not (tg.advection_u or tg.advection_tau or tg.q_term)
    checks: Dict[str, bool] = {}
    if linear_toggles:
        checks["oracle_agreement"] = max_dev < ORACLE_TOL
    report = LinearVerifyReport(
        mode=tuple(mode), k_mag=k_mag, epsilon=eps, max_deviation=max_dev,
        deviation_over_eps=max_dev / eps if eps > 0 else 0.0,
        deviation_over_eps_sq=max_dev / eps ** 2 if eps > 0 else 0.0,
        linear_toggles=linear_toggles, times=times, deviations=devs,
        checks=checks)
    if outdir is not None:
        outdir = Path(outdir)
        payload = dataclasses.asdict(report)
        payload["mode"] = list(report.mode)
        atomic_write_text(outdir / "linear_verify.json", json_text(payload))
        atomic_write_text(outdir / "linear_verify.csv",
                          csv_text(["t", "deviation"], zip(times, devs)))
    return report


@dataclass
class SweepResult:
    nus: Tuple[float, ...]
    distances: Tuple[float, ...]
    slope: float
    intercept: float
    sup_u_hs: Dict[str, float]      # keyed by repr(nu), "0.0" = baseline
    sup_tau_hs: Dict[str, float]
    member_dirs: Dict[str, str]
    checks: Dict[str, bool]
    blew_up: bool
    warnings: List[str]


def _member_dir(outdir: Path, nu: float) -> Path:
    return Path(outdir) / (f"nu_{nu:.3e}" if nu > 0 else "nu_0")


def _run_member(cfg_dict: dict, outdir: Optional[Path]) -> dict:
    """Run one member from its serialized config (process-pool safe)."""
    cfg, _ = validate_config(cfg_dict)
    return run_single(cfg, outdir).summary


def run_members(members: Sequence[Tuple[RunConfig, Optional[Path]]],
                threads: int = 1) -> List[dict]:
    """Run independent (config, output directory or None) pairs and return
    run_single's summary of each, in order.  Two or more members run in a
    pool of min(threads, len(members)) processes when threads > 1.  Each
    member is rebuilt from its serialized config, so summaries and files do
    not depend on the worker count.  Fewer than one thread is a ConfigError
    raised before any member runs or any directory is made."""
    if threads < 1:
        raise ConfigError([f"threads must be >= 1, got {threads!r}"])
    jobs = [(cfg.to_dict(), outdir) for cfg, outdir in members]
    workers = min(threads, len(jobs))  # a forked pool starts them all at once
    if workers <= 1:
        return [_run_member(*job) for job in jobs]
    # imported here, so a single run does not import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_member, *zip(*jobs)))


def sweep_viscosity(cfg: RunConfig, nus: Sequence[float], outdir: Path,
                    threads: int = 1,
                    slope_band: Tuple[float, float] = (0.9, 1.1)) -> SweepResult:
    """Vanishing-viscosity study against the nu = 0 baseline.

    Runs the baseline and one member per nu (all other parameters shared,
    fixed dt required so snapshot times match), computes the sup-in-time L2
    distance of each member to the baseline from the snapshot files, and
    fits the log-log slope of distance against nu.  The members go through
    run_members, so results do not depend on the worker count.  When a run
    blows up, blew_up is set and the slope is NaN, and so is the distance
    of each member whose snapshot series is not as long as the baseline's.
    A slope band that is not finite with lo <= hi, or fewer than one
    thread, is a ConfigError raised before any member runs.
    """
    lo, hi = slope_band
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ConfigError([f"slope_band must hold two finite bounds with "
                           f"lo <= hi, got [{lo!r}, {hi!r}]"])
    nus = sorted((float(v) for v in nus), reverse=True)
    if len(nus) < 3:
        raise ConfigError(["sweep needs at least three viscosity values"])
    if not all(math.isfinite(nu) and nu > 0 for nu in nus):
        raise ConfigError(["sweep viscosities must be positive and finite; "
                           "the nu = 0 baseline is run implicitly"])
    # members are stored under nu_{nu:.3e}, so they must differ there
    names: Dict[str, float] = {}
    for nu in nus:
        name = _member_dir(Path(), nu).name
        if name in names:
            raise ConfigError([f"sweep viscosities must be distinct in four "
                               f"significant digits: {names[name]!r} and "
                               f"{nu!r} both map to member directory {name}"])
        names[name] = nu
    if max(nus) / min(nus) < 100.0 * (1.0 - 1e-12):
        raise ConfigError(["sweep viscosities must span at least two decades"])
    if cfg.stepper.dt == "auto":
        raise ConfigError(["sweep requires a fixed stepper.dt so snapshot "
                           "times match across members"])
    # shared template: members only differ in nu, baseline included below
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, nu=0.0))

    outdir = Path(outdir)
    runs = [0.0] + nus
    summaries = dict(zip(runs, run_members(
        [(dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, nu=nu)),
          _member_dir(outdir, nu)) for nu in runs], threads)))

    # the members' own warnings (nu > 0 ones included), each once in run order
    warnings = list(dict.fromkeys(
        w for nu in runs for w in summaries[nu]["warnings"]))
    s_floor = 2.0 * cfg.model.alpha + 2.0 * cfg.model.beta - 1.0
    if cfg.diagnostics.resolve_s(cfg.grid) < s_floor:
        warnings.append(
            f"s={cfg.diagnostics.resolve_s(cfg.grid):g} is below "
            f"2 alpha + 2 beta - 1 = {s_floor:g}; the O(nu) rate is not "
            "guaranteed at this regularity")

    blew_up = any(s["blow_up"] is not None for s in summaries.values())
    baseline = load_snapshot_series(_member_dir(outdir, 0.0))
    distances = []
    for nu in nus:
        series = load_snapshot_series(_member_dir(outdir, nu))
        # a member that blew up at another step than the baseline has no
        # distance to it
        distances.append(trajectory_distance(baseline, series)[2]
                         if len(series) == len(baseline) else float("nan"))
    if not blew_up and min(distances) > 0.0:
        slope, intercept = np.polyfit(np.log(nus), np.log(distances), 1)
    else:
        slope, intercept = float("nan"), float("nan")
    checks = {"slope_in_band": bool(lo <= slope <= hi)}
    result = SweepResult(
        nus=tuple(nus), distances=tuple(distances),
        slope=float(slope), intercept=float(intercept),
        sup_u_hs={repr(nu): summaries[nu]["sup_u_hs"] for nu in runs},
        sup_tau_hs={repr(nu): summaries[nu]["sup_tau_hs"] for nu in runs},
        member_dirs={repr(nu): str(_member_dir(outdir, nu)) for nu in runs},
        checks=checks, blew_up=blew_up, warnings=warnings)

    atomic_write_text(outdir / "sweep.csv", csv_text(
        ["nu", "distance", "sup_u_hs", "sup_tau_hs"],
        ([nu, dist, summaries[nu]["sup_u_hs"], summaries[nu]["sup_tau_hs"]]
         for nu, dist in zip(nus, distances))))
    atomic_write_text(outdir / "sweep_summary.json",
                      json_text(dataclasses.asdict(result)))
    return result
