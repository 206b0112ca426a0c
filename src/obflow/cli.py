"""Command line entry point.

Subcommands:
    run           integrate one configuration, write diagnostics + snapshots
    linear-verify compare a single-mode run against the exact mode solution
    sweep-nu      vanishing-viscosity sweep with log-log slope fit
    dispersion    tabulate the per-mode decay rates for the configured model
    check-config  validate a config file and echo the resolved settings

Exit codes: 0 success, 2 configuration error, 3 blow-up, 4 a built-in
check failed (oracle disagreement, slope outside the requested band, or a
violated energy inequality).  All file output is deterministic: rerunning
a command with the same config produces byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .config import ConfigError, RunConfig, load_config
from .experiments import linear_verify, run_single, sweep_viscosity
from .linear import decay_envelope, dispersion_csv, mode_coefficients
from .snapshots import atomic_write_text, json_text
from .stepping import BlowUpError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_CHECK = 4


def _add_common(parser: argparse.ArgumentParser,
                output_help: str = "output directory (default: config "
                "output.directory, else $OBFLOW_OUTPUT_ROOT/<config "
                "stem>-<command>, else ./runs/<config stem>-<command>)",
                ) -> None:
    parser.add_argument("--config", required=True, type=Path,
                        help="path to a JSON config file")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config entry, dotted path, JSON value "
                             "(repeatable), e.g. --override model.eta=0.5")
    parser.add_argument("--output", type=Path, default=None,
                        help=output_help)


def _resolve_outdir(args: argparse.Namespace, cfg: RunConfig) -> Path:
    if args.output is not None:
        return args.output
    if cfg.output.directory is not None:
        return Path(cfg.output.directory)
    root = Path(os.environ.get("OBFLOW_OUTPUT_ROOT", "runs"))
    return root / f"{args.config.stem}-{args.command}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obflow",
        description="Pseudo-spectral solver for incompressible Oldroyd-B "
                    "flow with fractional stress dissipation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    _add_common(p_run)

    p_lin = sub.add_parser("linear-verify",
                           help="check a single-mode run against the exact "
                                "damped-wave solution")
    _add_common(p_lin)

    p_sweep = sub.add_parser("sweep-nu", help="vanishing-viscosity sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--nu", action="append", type=float, default=[],
                         help="viscosity value (repeat at least three times, "
                              "spanning two decades)")
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="process-pool size for sweep members")
    p_sweep.add_argument("--slope-band", nargs=2, type=float,
                         default=[0.9, 1.1], metavar=("LO", "HI"),
                         help="acceptance band for the fitted slope")

    p_disp = sub.add_parser("dispersion",
                            help="tabulate per-mode decay rates up to the "
                                 "grid Nyquist wavenumber")
    _add_common(p_disp)

    p_chk = sub.add_parser("check-config", help="validate a config file")
    _add_common(p_chk, output_help="also write the resolved config to "
                "resolved_config.json in this directory (without it, "
                "nothing is written)")
    return parser


def _blow_up_text(t: float, step: int, field: str) -> str:
    return f"blow-up at t={t:g} (step {step}, {field} non-finite)"


def _report(warnings: List[str], wrote: List[Path], blow_up: str = "",
            result: str = "", failed: Sequence[str] = ()) -> int:
    """Print what a command did and return its exit code: each warning
    once, the files written, then a blow-up (3), or the result line and
    then a failed check (4)."""
    for w in dict.fromkeys(warnings):
        print(f"warning: {w}")
    for path in wrote:
        print(f"wrote {path}")
    if blow_up:
        print(blow_up, file=sys.stderr)
        return EXIT_BLOWUP
    if result:
        print(result)
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _failed(checks: dict) -> List[str]:
    return [name for name, ok in checks.items() if not ok]


def _cmd_run(args: argparse.Namespace, cfg: RunConfig,
             warnings: List[str]) -> int:
    outdir = _resolve_outdir(args, cfg)
    summary = run_single(cfg, outdir).summary
    info = summary["blow_up"]
    return _report(
        warnings, [outdir / "snapshots"] * bool(summary["snapshots"])
        + [outdir / name for name in ("diagnostics.csv", "summary.json",
                                      "config.json")],
        blow_up=_blow_up_text(**info) if info else "",
        result=f"t_final={summary['t_final']:g} steps={summary['steps']} "
               f"sup_u_hs={summary['sup_u_hs']:.6e} "
               f"c_star={summary['bootstrap']['c_star']:.6e}",
        failed=_failed(summary["checks"]))


def _cmd_linear_verify(args: argparse.Namespace, cfg: RunConfig,
                       warnings: List[str]) -> int:
    outdir = _resolve_outdir(args, cfg)
    report = linear_verify(cfg, outdir)
    return _report(
        warnings, [outdir / name for name in ("linear_verify.json",
                                              "linear_verify.csv")],
        result=f"mode={report.mode} max_deviation={report.max_deviation:.6e} "
               f"dev/eps={report.deviation_over_eps:.6e} "
               f"dev/eps^2={report.deviation_over_eps_sq:.6e}",
        failed=_failed(report.checks))


def _cmd_sweep(args: argparse.Namespace, cfg: RunConfig,
               warnings: List[str]) -> int:
    outdir = _resolve_outdir(args, cfg)
    lo, hi = args.slope_band
    result = sweep_viscosity(cfg, args.nu, outdir, threads=args.threads,
                             slope_band=(lo, hi))
    return _report(
        warnings + result.warnings,
        [outdir / "sweep.csv", outdir / "sweep_summary.json"],
        blow_up="a sweep member blew up" if result.blew_up else "",
        result=f"slope={result.slope:.4f} "
               f"distances={[f'{d:.3e}' for d in result.distances]}",
        failed=[f"slope {result.slope:.4f} outside [{lo:g}, {hi:g}]"]
        if _failed(result.checks) else [])


def _cmd_dispersion(args: argparse.Namespace, cfg: RunConfig,
                    warnings: List[str]) -> int:
    path = _resolve_outdir(args, cfg) / "dispersion.csv"
    atomic_write_text(path, dispersion_csv(decay_envelope(
        k_max=cfg.grid.n // 2, **mode_coefficients(cfg.model))))
    return _report(warnings, [path])


def _cmd_check_config(args: argparse.Namespace, cfg: RunConfig,
                      warnings: List[str]) -> int:
    text = json_text(cfg.to_dict())
    print(text, end="")
    if args.output is not None:
        atomic_write_text(args.output / "resolved_config.json", text)
    return _report(warnings, [], result="config ok")


_COMMANDS = {
    "run": _cmd_run,
    "linear-verify": _cmd_linear_verify,
    "sweep-nu": _cmd_sweep,
    "dispersion": _cmd_dispersion,
    "check-config": _cmd_check_config,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, warnings = load_config(args.config, args.override)
        return _COMMANDS[args.command](args, cfg, warnings)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        return _report([], [], blow_up=_blow_up_text(exc.state.t, exc.step,
                                                     exc.field))


if __name__ == "__main__":
    sys.exit(main())
