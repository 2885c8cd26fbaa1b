"""The benchmark's workloads: inputs made from a seed, the CLI commands of one
round, and the checks of each command's outputs.

relay      optimize on the 3-spin backbone (D = 64, T = 500, one member), then
           analyze with the config's specs.
broadband  optimize on one spin-1/2 (D = 4, T = 625, 125 ensemble members,
           phase controls).
survey     no optimization: seeded noisy waveforms on the backbone go through
           simulate, analyze with all four specs, and compare between pairs.

The optimizations start from the config's own seed and stop after a fixed
number of iterations (fidelity_stop removed), so every run does the same
work. --seed picks the survey waveforms and the gradient-check entries.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import checks
import reference

RELAY_ITERATIONS = 5
BROADBAND_ITERATIONS = 10
SURVEY_WAVEFORMS = 4
SURVEY_STEPS = 500
SURVEY_SPECS = ("corr-orders", "coh-orders", "local", "involvement")
GRADIENT_ENTRIES = 4


@dataclass
class Op:
    """One CLI command and the check of its outputs (a list of problems)."""

    command: str
    argv: list[str]
    check: Callable[[], list[str]]


class OptimizeWorkload:
    """optimize from a shipped config, then analyze its trajectory with the
    config's own analysis specs."""

    def __init__(self, root: Path, seed: int, config: str, iterations: int,
                 gradient_check: bool):
        self.root, self.seed = root, seed
        self.config, self.iterations = config, iterations
        self.gradient_check = gradient_check
        self._refs: dict[str, tuple] = {}

    def prepare(self, inputs: Path):
        doc = yaml.safe_load((self.root / "configs" / self.config).read_text(encoding="utf-8"))
        if isinstance(doc["system"], str):
            system_text = (self.root / "configs" / doc["system"]).read_text(encoding="utf-8")
            doc["system"] = yaml.safe_load(system_text)
        problem = doc["problem"]
        problem.pop("fidelity_stop", None)
        problem["max_iterations"] = self.iterations
        self.config_path = inputs / self.config
        self.config_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        self.model = reference.SpinModel(doc["system"])
        ens = problem.get("ensemble") or {}
        self.members = [(float(o), float(s), ens.get("isotope"))
                        for o in ens.get("offsets", [0.0]) for s in ens.get("power_scales", [1.0])]
        self.rho0 = self.model.state(problem["initial"])
        self.target = self.model.state(problem["target"])
        self.specs = list((doc.get("analysis") or {}).get("specs", []))

    def _reference(self, out: Path):
        """Member fidelities and the nominal trajectory of the written waveform."""
        text = (out / "waveform.txt").read_text(encoding="utf-8")
        if text not in self._refs:
            wave = checks.read_waveform(out / "waveform.txt")
            per_member = reference.fidelities(self.model, wave, self.members, self.rho0, self.target)
            u = reference.unitaries(self.model, wave, [(0.0, 1.0, None)])[0]
            self._refs = {text: (wave, per_member, reference.evolve(u, self.rho0))}
        return self._refs[text]

    def _check_optimize(self, out: Path) -> list[str]:
        try:
            wave, per_member, rho = self._reference(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"waveform.txt: unreadable ({exc})"]
        errors = checks.check_report(out / "report.json", per_member)
        errors += checks.check_trajectory(out / "trajectory.txt", rho, self.model.dims, wave["dt"])
        if self.gradient_check:
            errors += self._check_gradient(out, wave)
        return errors

    def _check_gradient(self, out: Path, wave: dict) -> list[str]:
        """grape_gradient at the optimized pulse against central differences of
        the reference fidelity at seeded entries."""
        from spintraj import expressions, fileio, grape, tensors

        cfg = fileio.parse_config(self.config_path.read_text(encoding="utf-8"))
        basis = tensors.product_basis(cfg.system)
        controls = fileio.read_waveform((out / "waveform.txt").read_text(encoding="utf-8"))
        problem = grape.ControlProblem(
            system=cfg.system,
            rho0=expressions.parse_state(basis, cfg.initial_expr),
            target=expressions.parse_state(basis, cfg.target_expr),
            controls=controls,
            ensemble=grape.Ensemble(cfg.offsets, cfg.power_scales, cfg.ensemble_isotope),
        )
        grad = grape.grape_gradient(problem, controls)
        rng = np.random.default_rng(self.seed)
        n_ch, n_steps = wave["amplitudes"].shape
        entries = [(int(rng.integers(n_ch)), int(rng.integers(n_steps)))
                   for _ in range(GRADIENT_ENTRIES)]
        fd = reference.fidelity_gradient_fd(self.model, wave, self.members, self.rho0,
                                            self.target, entries)
        got = np.array([grad[k, n] for k, n in entries])
        tol = 1e-7 + 1e-6 * float(np.max(np.abs(grad)))
        err = float(np.max(np.abs(got - fd)))
        return [] if err <= tol else [f"grape_gradient deviates from central differences by {err:.3g}"]

    def _check_analyze(self, out: Path, spec: str) -> list[str]:
        try:
            _, _, rho = self._reference(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"waveform.txt: unreadable ({exc})"]
        return checks.check_populations(out / f"{spec.replace('-', '_')}.csv", spec, rho,
                                        self.model.dims)

    def operations(self, out: Path) -> list[Op]:
        run = out / "opt"
        ops = [Op("optimize", ["optimize", "--config", str(self.config_path), "--out", str(run)],
                  lambda: self._check_optimize(run))]
        for spec in self.specs:
            ops.append(Op("analyze", ["analyze", "--trajectory", str(run / "trajectory.txt"),
                                      "--spec", spec, "--out", str(run)],
                          lambda spec=spec: self._check_analyze(run, spec)))
        return ops


def noisy_waveform(rng: np.random.Generator, n_channels: int, n_steps: int) -> np.ndarray:
    """A smooth random pulse (a few Fourier components) with white noise on top,
    clipped to the unit amplitude range."""
    t = np.linspace(0.0, 1.0, n_steps)
    smooth = np.zeros((n_channels, n_steps))
    for freq in range(1, 5):
        amp = rng.normal(0.0, 0.25, (n_channels, 1))
        phase = rng.uniform(0.0, 2.0 * np.pi, (n_channels, 1))
        smooth += amp * np.sin(2.0 * np.pi * freq * t + phase)
    return np.clip(smooth + rng.normal(0.0, 0.2, (n_channels, n_steps)), -1.0, 1.0)


class SurveyWorkload:
    """The paper's analysis use: simulate seeded noisy pulses on the backbone,
    analyze every trajectory with every spec, compare neighbouring pairs and
    one trajectory with itself under both scores and every grouping."""

    DT = 4e-5
    POWER_HZ = 10000.0
    CHANNELS = [("1H", "x"), ("1H", "y"), ("13C", "x"), ("13C", "y")]
    INITIAL = "Lz(0)"

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self._rho: dict[int, np.ndarray] = {}

    def prepare(self, inputs: Path):
        self.system_path = inputs / "backbone.yaml"
        shutil.copyfile(self.root / "configs" / "backbone.yaml", self.system_path)
        self.model = reference.SpinModel(yaml.safe_load(self.system_path.read_text(encoding="utf-8")))
        rng = np.random.default_rng(self.seed)
        self.waves = []
        for i in range(SURVEY_WAVEFORMS):
            amps = noisy_waveform(rng, len(self.CHANNELS), SURVEY_STEPS)
            path = inputs / f"pulse{i}.txt"
            lines = [f"# dt={self.DT!r}", f"# power_hz={self.POWER_HZ!r}",
                     "# channels=" + ",".join(f"{iso}:{ax}" for iso, ax in self.CHANNELS)]
            lines += [" ".join("%.17g" % v for v in row) for row in amps.T]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.waves.append((path, {"dt": self.DT, "power_hz": self.POWER_HZ,
                                      "channels": self.CHANNELS, "amplitudes": amps}))
        n = SURVEY_WAVEFORMS
        self.pairs = [(i, (i + 1) % n) for i in range(n)] + [(0, 0)]

    def rho(self, i: int) -> np.ndarray:
        if i not in self._rho:
            u = reference.unitaries(self.model, self.waves[i][1], [(0.0, 1.0, None)])[0]
            self._rho[i] = reference.evolve(u, self.model.state(self.INITIAL))
        return self._rho[i]

    def operations(self, out: Path) -> list[Op]:
        dims = self.model.dims
        ops = []
        for i, (path, _) in enumerate(self.waves):
            run = out / f"run{i}"
            ops.append(Op("simulate", ["simulate", "--system", str(self.system_path),
                                       "--waveform", str(path), "--initial", self.INITIAL,
                                       "--out", str(run)],
                          lambda i=i, run=run: checks.check_trajectory(
                              run / "trajectory.txt", self.rho(i), dims, self.DT)))
        for i in range(len(self.waves)):
            run = out / f"run{i}"
            for spec in SURVEY_SPECS:
                ops.append(Op("analyze", ["analyze", "--trajectory", str(run / "trajectory.txt"),
                                          "--spec", spec, "--out", str(run)],
                              lambda i=i, run=run, spec=spec: checks.check_populations(
                                  run / f"{spec.replace('-', '_')}.csv", spec, self.rho(i), dims)))
        for a, b in self.pairs:
            cmp_dir = out / f"cmp{a}{b}"
            for score in ("rsp", "rdn"):
                for grouping in ("none", "sg", "bsg"):
                    name = ("" if grouping == "none" else f"{grouping}_") + f"{score}.csv"
                    ops.append(Op("compare", [
                        "compare", "--traj-a", str(out / f"run{a}" / "trajectory.txt"),
                        "--traj-b", str(out / f"run{b}" / "trajectory.txt"),
                        "--score", score, "--grouping", grouping, "--out", str(cmp_dir)],
                        lambda a=a, b=b, score=score, grouping=grouping, path=cmp_dir / name:
                            checks.check_compare(path, score, grouping, self.rho(a),
                                                 self.rho(b), dims, a == b)))
        return ops


def make(name: str, root: Path, seed: int, trace: bool):
    if name == "relay":
        return OptimizeWorkload(root, seed, "backbone_relay.yaml", RELAY_ITERATIONS, trace)
    if name == "broadband":
        return OptimizeWorkload(root, seed, "broadband_excitation.yaml", BROADBAND_ITERATIONS, trace)
    if name == "survey":
        return SurveyWorkload(root, seed)
    raise ValueError(f"unknown workload {name!r}")
