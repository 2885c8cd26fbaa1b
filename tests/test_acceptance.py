"""End-to-end acceptance gate.

Each test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to see
them) and pins the advertised tolerance for its scenario:

1. spin-1 double-quantum climb against the 1/sqrt(2) unitary transfer bound
2. broadband excitation over an offset x power-scale robustness ensemble
3. two-step magnetization relay through a three-spin backbone fragment
4. trajectory-similarity scoring of two independently seeded relay pulses
5. analytic gradients against central finite differences
6. invariant test suite runtime budget

The heavy optimizations (2-4) take minutes on one core; everything is seeded,
so reruns are bit-for-bit reproducible.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spintraj import (
    ControlProblem,
    ControlSet,
    Coupling,
    Ensemble,
    Spin,
    SpinSystem,
    grape_gradient,
    optimize,
    product_basis,
    propagate,
    rdn,
    rsp,
    spin_operator,
)
from spintraj.cli import main as cli_main
from spintraj.expressions import parse_state
from spintraj.fileio import parse_config, read_trajectory
from test_grape import normalized_operator_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _verdict(name: str, checks: dict[str, bool]):
    ok = all(checks.values())
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"{name}: failed checks {[k for k, v in checks.items() if not v]}"


def _read_csv(path: Path):
    rows = path.read_text().strip().splitlines()
    header = rows[0].split(",")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    return header, data


def _run_cli(argv):
    assert cli_main(argv) == 0, f"cli {argv[0]} failed"


# ---------------------------------------------------------------------------
# shared optimization runs (module scope: each heavy pulse is computed once)

@pytest.fixture(scope="module")
def dq_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dq")
    start = time.perf_counter()
    _run_cli(["optimize", "--config", str(CONFIGS / "quadrupolar_dq.yaml"),
              "--out", str(out)])
    elapsed = time.perf_counter() - start
    _run_cli(["analyze", "--trajectory", str(out / "trajectory.txt"),
              "--spec", "coh-orders", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return out, report, elapsed


@pytest.fixture(scope="module")
def broadband_report():
    cfg = parse_config(
        (CONFIGS / "broadband_excitation.yaml").read_text(),
        system_loader=lambda p: (CONFIGS / p).read_text(),
    )
    basis = product_basis(cfg.system)
    problem = ControlProblem(
        system=cfg.system,
        rho0=parse_state(basis, cfg.initial_expr),
        target=parse_state(basis, cfg.target_expr),
        controls=ControlSet(
            dt=cfg.dt, power_hz=cfg.power_hz, channels=cfg.channels,
            amplitudes=np.zeros((len(cfg.channels), cfg.n_steps)),
        ),
        parametrization=cfg.parametrization,
        ensemble=Ensemble(cfg.offsets, cfg.power_scales, cfg.ensemble_isotope),
        max_iterations=cfg.max_iterations,
        tolerance=cfg.tolerance,
        seed=cfg.seed,
        fidelity_stop=cfg.fidelity_stop,
    )
    return optimize(problem)


@pytest.fixture(scope="module")
def relay_runs(tmp_path_factory):
    base = (CONFIGS / "backbone_relay.yaml").read_text()
    assert "seed: 11" in base
    runs = {}
    for seed in (11, 12):
        out = tmp_path_factory.mktemp(f"relay{seed}")
        cfg_dir = tmp_path_factory.mktemp(f"relaycfg{seed}")
        (cfg_dir / "backbone.yaml").write_text((CONFIGS / "backbone.yaml").read_text())
        (cfg_dir / "config.yaml").write_text(base.replace("seed: 11", f"seed: {seed}"))
        _run_cli(["optimize", "--config", str(cfg_dir / "config.yaml"),
                  "--out", str(out)])
        for spec in ("local", "corr-orders"):
            _run_cli(["analyze", "--trajectory", str(out / "trajectory.txt"),
                      "--spec", spec, "--out", str(out)])
        runs[seed] = {
            "out": out,
            "report": json.loads((out / "report.json").read_text()),
            "trajectory": read_trajectory((out / "trajectory.txt").read_text()),
        }
    return runs


# ---------------------------------------------------------------------------
# 1. double-quantum climb on a rhombic spin-1

def test_criterion_1_transfer_bound_climb(dq_run):
    out, report, elapsed = dq_run
    bound = 1.0 / math.sqrt(2.0)
    header, data = _read_csv(out / "coh_orders.csv")
    coh0 = data[:, header.index("coh_order_0")]
    coh2 = data[:, header.index("coh_order_2")]
    fid = report["final_fidelity"]
    _verdict("criterion 1: spin-1 transfer reaches the 1/sqrt(2) bound", {
        "fidelity >= 0.70": fid >= 0.70,
        "fidelity <= bound + 0.01": fid <= bound + 0.01,
        "CohOrder(0) starts at 1": abs(coh0[0] - 1.0) < 1e-9,
        "CohOrder(2) ends >= 0.70": coh2[-1] >= 0.70,
        "runtime under one minute": elapsed < 60.0,
    })


# ---------------------------------------------------------------------------
# 2. broadband excitation over offset x power-scale ensemble

def test_criterion_2_broadband_excitation(broadband_report):
    fids = np.array(broadband_report.per_member_fidelities)
    _verdict("criterion 2: broadband excitation robustness", {
        "125 ensemble members": fids.size == 125,
        "mean fidelity >= 0.98": float(fids.mean()) >= 0.98,
        "min member fidelity >= 0.95": float(fids.min()) >= 0.95,
        "<= 1000 iterations": broadband_report.iterations <= 1000,
    })


# ---------------------------------------------------------------------------
# 3. two-step relay through the three-spin backbone fragment

def test_criterion_3_backbone_relay(relay_runs):
    run = relay_runs[11]
    header, local = _read_csv(run["out"] / "local.csv")
    times = local[:, 0]
    peak = {k: times[int(np.argmax(local[:, header.index(f"local_spin_{k}")]))]
            for k in range(3)}
    _, corr = _read_csv(run["out"] / "corr_orders.csv")
    partition = np.abs((corr[:, 1:] ** 2).sum(axis=1) - 1.0)
    _verdict("criterion 3: backbone magnetization relay", {
        "fidelity >= 0.95": run["report"]["final_fidelity"] >= 0.95,
        "final local population on the destination >= 0.95":
            local[-1, header.index("local_spin_2")] >= 0.95,
        "middle spin peaks strictly between source and destination":
            peak[0] < peak[1] < peak[2],
        "correlation-order partition identity to 1e-9": partition.max() < 1e-9,
    })


# ---------------------------------------------------------------------------
# 4. similarity scores for two independently seeded relay pulses

def test_criterion_4_similarity_experiment(relay_runs):
    fa = relay_runs[11]["report"]["final_fidelity"]
    fb = relay_runs[12]["report"]["final_fidelity"]
    ta, tb = relay_runs[11]["trajectory"], relay_runs[12]["trajectory"]
    scores = {
        "rsp/none": rsp(ta, tb, "none").real,
        "rsp/sg": rsp(ta, tb, "sg").real,
        "rsp/bsg": rsp(ta, tb, "bsg").real,
        "rdn/none": rdn(ta, tb, "none").real,
        "rdn/sg": rdn(ta, tb, "sg").real,
        "rdn/bsg": rdn(ta, tb, "bsg").real,
    }
    # the final states coincide only up to the fidelity each run reached, so
    # the t=T endpoint check is against a distance bound derived from the
    # fidelities while t=0 (identical initial states) is held to 1e-6
    delta = math.sqrt(max(2 - 2 * fa, 0.0)) + math.sqrt(max(2 - 2 * fb, 0.0))
    _verdict("criterion 4: grouped scores read through seed-level differences", {
        "seeds reached the same fidelity within 0.01": abs(fa - fb) <= 0.01,
        "mean BSG-RSP >= mean ungrouped Re-RSP":
            scores["rsp/bsg"].mean() >= scores["rsp/none"].mean(),
        "mean BSG-RDN >= mean ungrouped RDN":
            scores["rdn/bsg"].mean() >= scores["rdn/none"].mean(),
        "all scores start at 1 +/- 1e-6":
            all(abs(s[0] - 1.0) <= 1e-6 for s in scores.values()),
        "all scores end at 1 within the fidelity-derived bound":
            all(s[-1] >= 1.0 - 2 * delta for s in scores.values()),
    })


# ---------------------------------------------------------------------------
# 5. analytic gradient vs central finite differences

def _random_gradient_problem(seed):
    rng = np.random.default_rng(seed)
    n_spins = int(rng.integers(1, 3))
    spins = tuple(
        Spin(("1H", "13C")[k], 2, float(rng.uniform(-400, 400)))
        for k in range(n_spins)
    )
    couplings = (
        (Coupling(0, 1, float(rng.uniform(10, 60))),) if n_spins == 2 else ()
    )
    system = SpinSystem(spins, couplings)
    basis = product_basis(system)
    channels = tuple(
        (s.isotope, ax) for s in {s.isotope: s for s in spins}.values()
        for ax in ("x", "y")
    )
    n_steps = int(rng.integers(2, 9))
    controls = ControlSet(
        dt=2e-4, power_hz=6000.0, channels=channels,
        amplitudes=rng.uniform(-1, 1, (len(channels), n_steps)),
    )
    z0 = spin_operator(system, 0, "z")
    rho0 = normalized_operator_state(basis, z0)
    tgt = spin_operator(system, 0, "x")
    if n_spins == 2:
        tgt = tgt + spin_operator(system, 1, "y")
    target = normalized_operator_state(basis, tgt)
    return ControlProblem(system=system, rho0=rho0, target=target,
                          controls=controls), controls


def _fd_gradient(problem, controls, step=1e-6):
    from spintraj.grape import ensemble_fidelity

    def value(amps):
        cs = ControlSet(controls.dt, controls.power_hz, controls.channels, amps)
        return ensemble_fidelity(problem, cs)["mean"]

    grad = np.zeros_like(controls.amplitudes)
    for k in range(controls.n_channels):
        for n in range(controls.n_steps):
            shifted = controls.amplitudes.copy()
            shifted[k, n] += step
            up = value(shifted)
            shifted[k, n] -= 2 * step
            grad[k, n] = (up - value(shifted)) / (2 * step)
    return grad


def test_criterion_5_gradient_oracle():
    worst = 0.0
    for seed in range(20):
        problem, controls = _random_gradient_problem(seed)
        exact = grape_gradient(problem, controls)
        fd = _fd_gradient(problem, controls)
        rel = np.max(np.abs(exact - fd)) / np.max(np.abs(exact))
        worst = max(worst, rel)
    _verdict("criterion 5: gradients match finite differences", {
        "max relative error < 1e-6 over 20 seeded problems": worst < 1e-6,
    })


# ---------------------------------------------------------------------------
# 6. invariant suite runtime budget

def test_criterion_6_invariant_suite_runtime():
    files = ["tests/test_tensors.py", "tests/test_engine.py",
             "tests/test_analysis.py"]
    root = Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
        cwd=root, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    _verdict("criterion 6: invariant suite inside the time budget", {
        "invariant tests pass": proc.returncode == 0,
        "runtime under one minute": elapsed < 60.0,
    })
