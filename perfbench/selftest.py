"""Self-test of the benchmark.

Shows that the Hilbert-space reference agrees with spintraj on random small
systems, that every output check accepts the program's real outputs, and
that each check rejects a corrupted one. Run from the root of a spintraj
checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
import warnings
from pathlib import Path

import numpy as np
import yaml

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spintraj import analysis, cli, engine, grape  # noqa: E402
from spintraj.expressions import parse_state  # noqa: E402
from spintraj.system import Coupling, Spin, SpinSystem  # noqa: E402
from spintraj.tensors import product_basis  # noqa: E402

warnings.filterwarnings("ignore", message="state expression")


def random_system_doc(rng: np.random.Generator) -> dict:
    """A spin-1/2 1H, a spin-1/2 13C and a spin-1 1H at random offsets, with
    random couplings: one weak, one strong by the same-isotope rule, one
    strong by choice."""
    spins = [{"isotope": iso, "multiplicity": mult, "offset": float(rng.uniform(-2000.0, 2000.0))}
             for iso, mult in (("1H", 2), ("13C", 2), ("1H", 3))]
    couplings = [{"i": i, "j": j, "j_hz": float(rng.uniform(-200.0, 200.0)), "model": model}
                 for (i, j), model in (((0, 1), "weak"), ((0, 2), None), ((1, 2), "strong"))]
    return {"spins": spins, "couplings": couplings}


def program_system(doc: dict) -> SpinSystem:
    return SpinSystem(
        tuple(Spin(s["isotope"], s["multiplicity"], s["offset"]) for s in doc["spins"]),
        tuple(Coupling(c["i"], c["j"], c["j_hz"], c["model"]) for c in doc["couplings"]),
    )


def random_wave(rng: np.random.Generator, n_steps: int = 30) -> dict:
    channels = [("1H", "x"), ("1H", "y"), ("13C", "x"), ("13C", "y")]
    return {"dt": 2e-5, "power_hz": 5000.0, "channels": channels,
            "amplitudes": rng.uniform(-1.0, 1.0, (len(channels), n_steps))}


class ReferenceAgreesWithProgram(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(20121216)
        self.doc = random_system_doc(self.rng)
        self.model = reference.SpinModel(self.doc)
        self.system = program_system(self.doc)
        self.basis = product_basis(self.system)

    def controls(self, wave):
        return engine.ControlSet(wave["dt"], wave["power_hz"], tuple(wave["channels"]),
                                 wave["amplitudes"])

    def test_trajectory_populations_and_overlaps(self):
        rhos, trajs = [], []
        for _ in range(2):
            wave = random_wave(self.rng)
            traj = engine.propagate(self.system, self.controls(wave),
                                    parse_state(self.basis, "Lz(0)"))
            u = reference.unitaries(self.model, wave, [(0.0, 1.0, None)])[0]
            rhos.append(reference.evolve(u, self.model.state("Lz(0)")))
            trajs.append(traj)
            labels, weights = reference.label_weights(rhos[-1], self.model.dims)
            index = {lab: i for i, lab in enumerate(labels)}
            order = [index[lab.components] for lab in self.basis.labels]
            np.testing.assert_allclose(np.abs(traj.states) ** 2, weights[:, order], atol=1e-12)
            for k in range(self.system.n_spins):
                np.testing.assert_allclose(
                    analysis.population_series(
                        analysis.build_projector(self.basis, analysis.LocalSpin(k)), traj),
                    reference.populations(labels, weights)["local"][k], atol=1e-11)
        scores = analysis.rsp(trajs[0], trajs[1]).scores
        np.testing.assert_allclose(scores, reference.overlap(rhos[0], rhos[1]), atol=1e-11)
        sg = [reference.sg_values(*reference.label_weights(r, self.model.dims)) for r in rhos]
        np.testing.assert_allclose(analysis.rsp(trajs[0], trajs[1], grouping="sg").scores,
                                   (sg[0] * sg[1]).sum(axis=-1), atol=1e-11)

    def test_member_fidelities_and_gradient(self):
        wave = random_wave(self.rng)
        members = [(o, s, "1H") for o in (-500.0, 0.0, 700.0) for s in (0.9, 1.1)]
        controls = self.controls(wave)
        problem = grape.ControlProblem(
            system=self.system, rho0=parse_state(self.basis, "Lz(0)"),
            target=parse_state(self.basis, "Lx(1)"), controls=controls,
            ensemble=grape.Ensemble((-500.0, 0.0, 700.0), (0.9, 1.1), "1H"))
        rho0, target = self.model.state("Lz(0)"), self.model.state("Lx(1)")
        per = grape.ensemble_fidelity(problem, controls)["per_member"]
        np.testing.assert_allclose(
            per, reference.fidelities(self.model, wave, members, rho0, target), atol=1e-12)
        grad = grape.grape_gradient(problem, controls)
        entries = [(0, 3), (1, 17), (2, 0), (3, 29)]
        fd = reference.fidelity_gradient_fd(self.model, wave, members, rho0, target, entries)
        np.testing.assert_allclose([grad[k, n] for k, n in entries], fd, atol=1e-8)


TINY_CONFIG = {
    "system": {"spins": [{"isotope": "1H", "multiplicity": 2, "offset": 300.0},
                         {"isotope": "13C", "multiplicity": 2, "offset": -800.0}],
               "couplings": [{"i": 0, "j": 1, "j_hz": 140.0}]},
    "seed": 3,
    "problem": {"initial": "Lz(0)", "target": "Lz(1)", "duration": 0.004, "n_steps": 40,
                "power_hz": 5000.0, "channels": ["1H:x", "1H:y", "13C:x", "13C:y"],
                "max_iterations": 1000, "fidelity_stop": 0.5},
    "analysis": {"specs": ["corr-orders", "coh-orders", "local", "involvement"]},
}


class ChecksRejectCorruptOutputs(unittest.TestCase):
    """Runs small workloads through the real CLI, then corrupts one output at a time."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
        configs = cls.tmp / "configs"
        configs.mkdir()
        (configs / "tiny.yaml").write_text(yaml.safe_dump(TINY_CONFIG), encoding="utf-8")
        shutil.copyfile(ROOT / "configs" / "backbone.yaml", configs / "backbone.yaml")
        cls.opt = workloads.OptimizeWorkload(cls.tmp, 5, "tiny.yaml", 3, gradient_check=True)
        cls.opt_ops = cls.run_workload(cls.opt, "opt")
        steps = workloads.SURVEY_STEPS
        workloads.SURVEY_STEPS = 40
        try:
            cls.survey = workloads.SurveyWorkload(cls.tmp, 5)
            cls.survey_ops = cls.run_workload(cls.survey, "survey")
        finally:
            workloads.SURVEY_STEPS = steps

    @classmethod
    def run_workload(cls, workload, name):
        inputs, out = cls.tmp / name / "inputs", cls.tmp / name / "out"
        inputs.mkdir(parents=True)
        out.mkdir()
        workload.prepare(inputs)
        ops = workload.operations(out)
        for op in ops:
            assert run.run_command(cli, op.argv) is None, op.argv
        return ops

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def op(self, ops, command, flag=None, value=None):
        for op in ops:
            if op.command == command and (flag is None or op.argv[op.argv.index(flag) + 1] == value):
                return op
        raise LookupError(command)

    def assert_rejects(self, op, path: Path, corrupt):
        self.assertEqual(op.check(), [])
        original = path.read_text(encoding="utf-8")
        try:
            path.write_text(corrupt(original), encoding="utf-8")
            self.assertNotEqual(op.check(), [])
        finally:
            path.write_text(original, encoding="utf-8")
        self.assertEqual(op.check(), [])

    def test_all_outputs_pass(self):
        for op in self.opt_ops + self.survey_ops:
            self.assertEqual(op.check(), [], op.argv)

    def test_perturbed_trajectory_row(self):
        def corrupt(text):
            lines = text.splitlines()
            data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
            fields = lines[data[20]].split()
            fields[3] = repr(float(fields[3]) + 1e-6)
            lines[data[20]] = " ".join(fields)
            return "\n".join(lines) + "\n"

        op = self.op(self.opt_ops, "optimize")
        self.assert_rejects(op, Path(op.argv[-1]) / "trajectory.txt", corrupt)
        sim = self.op(self.survey_ops, "simulate")
        self.assert_rejects(sim, Path(sim.argv[-1]) / "trajectory.txt", corrupt)

    def test_wrong_reported_fidelity(self):
        def corrupt(text):
            rep = json.loads(text)
            rep["per_member_fidelities"][0] += 1e-8
            return json.dumps(rep)

        op = self.op(self.opt_ops, "optimize")
        self.assert_rejects(op, Path(op.argv[-1]) / "report.json", corrupt)

    def test_fidelity_history_that_falls(self):
        def corrupt(text):
            rep = json.loads(text)
            rep["fidelity_history"][1] = rep["fidelity_history"][-1] + 0.1
            return json.dumps(rep)

        op = self.op(self.opt_ops, "optimize")
        self.assert_rejects(op, Path(op.argv[-1]) / "report.json", corrupt)

    def test_truncated_and_altered_csv(self):
        for spec in TINY_CONFIG["analysis"]["specs"]:
            op = self.op(self.opt_ops, "analyze", "--spec", spec)
            path = Path(op.argv[-1]) / f"{spec.replace('-', '_')}.csv"
            self.assert_rejects(op, path, lambda t: "\n".join(t.splitlines()[:-3]) + "\n")
            self.assert_rejects(op, path, lambda t: _bump_cell(t, row=7, col=1, by=1e-6))

    def test_compare_scores(self):
        for op in self.survey_ops:
            if op.command != "compare":
                continue
            grouping = op.argv[op.argv.index("--grouping") + 1]
            score = op.argv[op.argv.index("--score") + 1]
            name = ("" if grouping == "none" else f"{grouping}_") + f"{score}.csv"
            path = Path(op.argv[-1]) / name
            self.assert_rejects(op, path, lambda t: _bump_cell(t, row=1, col=1, by=-1e-3))
            self.assert_rejects(op, path, lambda t: _bump_cell(t, row=9, col=1, by=-1e-3))

    def test_wrong_gradient(self):
        op = self.op(self.opt_ops, "optimize")
        original = grape.grape_gradient
        grape.grape_gradient = lambda problem, controls: 1.001 * original(problem, controls)
        try:
            self.assertNotEqual(op.check(), [])
        finally:
            grape.grape_gradient = original
        self.assertEqual(op.check(), [])


def _bump_cell(text: str, row: int, col: int, by: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + by)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TracerRestoresAndCounts(unittest.TestCase):
    def test_spans_of_one_command(self):
        import numpy

        eigh = numpy.linalg.eigh
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(numpy.linalg.eigh, eigh)
            tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
            try:
                doc = dict(TINY_CONFIG, problem=dict(TINY_CONFIG["problem"], max_iterations=2))
                del doc["problem"]["fidelity_stop"]
                (tmp / "c.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
                tracer.active = True
                with tracer.span("cli.optimize"):
                    self.assertIsNone(run.run_command(
                        cli, ["optimize", "--config", str(tmp / "c.yaml"), "--out", str(tmp)]))
                tracer.active = False
            finally:
                shutil.rmtree(tmp)
        finally:
            tracer.uninstall()
        self.assertIs(numpy.linalg.eigh, eigh)
        m = tracing.round_metrics(tracer.spans, 1.0)
        self.assertEqual(m["grape.iterations"], 2)
        self.assertEqual(m["cli.commands"], 1)
        self.assertEqual(m["engine.propagate_calls"], 1)
        self.assertEqual(m["engine.steps"], 40)
        # One eigh per objective call, one for the final re-evaluation, one in propagate.
        self.assertEqual(m["kernel.eigh_calls"], m["grape.objective_calls"] + 2)
        self.assertEqual(m["kernel.eigh_matrices"], 40 * m["kernel.eigh_calls"])


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_a_checkout(self):
        tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
        try:
            shutil.copytree(HERE, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "relay", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
