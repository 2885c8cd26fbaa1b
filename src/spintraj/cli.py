"""Command-line surface: simulate, optimize, analyze, compare, basis.

Exit codes: 0 success, 2 usage error (argparse), 3 missing file,
4 malformed file, 5 invalid physical/spec input, 6 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .engine import propagate
from .errors import DomainError, FormatError, NumericError
from .expressions import parse_state
from .fileio import (
    parse_config,
    parse_system,
    read_trajectory,
    read_waveform,
    write_trajectory,
    write_waveform,
)
from .grape import ControlProblem, ControlSet, Ensemble, optimize
from .tensors import product_basis

EXIT_MISSING_FILE = 3
EXIT_FORMAT = 4
EXIT_DOMAIN = 5
EXIT_NUMERIC = 6


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """One header line, then the columns side by side with 12 significant digits."""
    with path.open("w", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.12g", delimiter=",",
                   header=",".join(header), comments="")


def _write_populations(out: Path, traj, spec: str) -> Path:
    """`<spec>.csv` in `out`: time and the population of every member of the family."""
    names, series = analysis.family_populations(traj, spec)
    path = out / f"{spec.replace('-', '_')}.csv"
    _write_csv(path, ["time"] + names, [traj.times] + series)
    return path


def _cmd_simulate(args) -> int:
    system = parse_system(_read(args.system))
    controls = read_waveform(_read(args.waveform))
    basis = product_basis(system)
    rho0 = parse_state(basis, args.initial)
    traj = propagate(system, controls, rho0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.txt").write_text(write_trajectory(traj), encoding="utf-8")
    print(f"wrote {out / 'trajectory.txt'}")
    return 0


def _cmd_optimize(args) -> int:
    cfg_path = Path(args.config)

    def loader(rel: str) -> str:
        return (cfg_path.parent / rel).read_text(encoding="utf-8")

    cfg = parse_config(_read(args.config), system_loader=loader)
    basis = product_basis(cfg.system)
    rho0 = parse_state(basis, cfg.initial_expr)
    target = parse_state(basis, cfg.target_expr)
    controls = ControlSet(
        dt=cfg.dt,
        power_hz=cfg.power_hz,
        channels=cfg.channels,
        amplitudes=np.zeros((len(cfg.channels), cfg.n_steps)),
    )
    problem = ControlProblem(
        system=cfg.system,
        rho0=rho0,
        target=target,
        controls=controls,
        parametrization=cfg.parametrization,
        ensemble=Ensemble(cfg.offsets, cfg.power_scales, cfg.ensemble_isotope),
        power_penalty=cfg.power_penalty,
        max_iterations=cfg.max_iterations,
        tolerance=cfg.tolerance,
        seed=cfg.seed,
        fidelity_stop=cfg.fidelity_stop,
    )
    report = optimize(problem)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "waveform.txt").write_text(write_waveform(report.controls), encoding="utf-8")
    traj = propagate(cfg.system, report.controls, rho0)
    (out / "trajectory.txt").write_text(write_trajectory(traj), encoding="utf-8")
    for spec in cfg.analysis_specs:
        _write_populations(out, traj, spec)
    summary = {
        "final_fidelity": report.final_fidelity,
        "per_member_fidelities": report.per_member_fidelities,
        "iterations": report.iterations,
        "evaluations": report.evaluations,
        "status": report.status,
        "message": report.message,
        "gradient_norm_history": report.gradient_norm_history,
        "fidelity_history": report.fidelity_history,
        "seed": cfg.seed,
    }
    (out / "report.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    print(f"final fidelity {report.final_fidelity:.6f} ({report.status}, "
          f"{report.iterations} iterations)")
    return 0


def _cmd_analyze(args) -> int:
    traj = read_trajectory(_read(args.trajectory))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"wrote {_write_populations(out, traj, args.spec)}")
    return 0


def _cmd_compare(args) -> int:
    traj_a = read_trajectory(_read(args.traj_a))
    traj_b = read_trajectory(_read(args.traj_b), expected_basis=traj_a.basis)
    score = analysis.rsp if args.score == "rsp" else analysis.rdn
    report = score(traj_a, traj_b, grouping=args.grouping)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prefix = "" if args.grouping == "none" else f"{args.grouping}_"
    header = ["time"]
    columns = [report.times]
    if args.score == "rsp" and args.grouping == "none":
        header += ["rsp_re", "rsp_abs"]
        columns += [report.real, report.magnitude]
    else:
        header.append(f"{prefix}{args.score}")
        columns.append(report.real)
    path = out / f"{prefix}{args.score}.csv"
    _write_csv(path, header, columns)
    print(f"wrote {path}")
    return 0


def _cmd_basis(args) -> int:
    system = parse_system(_read(args.system))
    basis = product_basis(system)
    print("index  label" + " " * max(1, 8 * system.n_spins - 4) + "corr  coh")
    for i, lab in enumerate(basis.labels):
        print(f"{i:5d}  {str(lab):<{8 * system.n_spins + 1}} "
              f"{lab.correlation_order():4d} {lab.coherence_order():4d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintraj",
        description="Spin dynamics under optimized control pulses: simulation, "
        "pulse optimization, and trajectory analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="propagate a state under a waveform")
    p.add_argument("--system", required=True)
    p.add_argument("--waveform", required=True)
    p.add_argument("--initial", required=True, help="state expression, e.g. Lz(0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimize", help="run a pulse optimization from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("analyze", help="subspace population time series to CSV")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--spec", required=True,
                   choices=list(analysis.FAMILIES))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="similarity scores of two trajectories")
    p.add_argument("--traj-a", required=True)
    p.add_argument("--traj-b", required=True)
    p.add_argument("--score", required=True, choices=["rsp", "rdn"])
    p.add_argument("--grouping", default="none", choices=["none", "sg", "bsg"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("basis", help="print basis labels with their orders")
    p.add_argument("--system", required=True)
    p.set_defaults(func=_cmd_basis)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
