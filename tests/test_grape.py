import numpy as np
import pytest

from spintraj import (
    ControlProblem,
    ControlSet,
    Coupling,
    Ensemble,
    Spin,
    SpinSystem,
    StateVector,
    ensemble_fidelity,
    fidelity,
    grape_gradient,
    optimize,
    phase_chain_rule,
    product_basis,
    spin_operator,
)
from spintraj import grape
from spintraj.errors import DomainError


def normalized_operator_state(basis, op):
    """The unit-norm state of a Hilbert-space operator."""
    c = basis.coefficients_of(op)
    return StateVector(c / np.linalg.norm(c), basis)


def random_problem(seed, n_steps=5):
    """A small seeded two-spin problem for gradient checks."""
    rng = np.random.default_rng(seed)
    system = SpinSystem(
        (
            Spin("1H", 2, float(rng.uniform(-400, 400))),
            Spin("13C", 2, float(rng.uniform(-400, 400))),
        ),
        (Coupling(0, 1, float(rng.uniform(10, 60))),),
    )
    basis = product_basis(system)
    controls = ControlSet(
        dt=2e-4,
        power_hz=6000.0,
        channels=(("1H", "x"), ("1H", "y"), ("13C", "x"), ("13C", "y")),
        amplitudes=rng.uniform(-0.7, 0.7, (4, n_steps)),
    )
    rho0 = normalized_operator_state(basis, spin_operator(system, 0, "z"))
    target = normalized_operator_state(
        basis, spin_operator(system, 0, "x") + spin_operator(system, 1, "y")
    )
    return ControlProblem(system, rho0, target, controls), controls


def finite_difference_gradient(problem, controls, step=1e-6):
    amps = controls.amplitudes
    grad = np.zeros_like(amps)
    for k in range(amps.shape[0]):
        for n in range(amps.shape[1]):
            for sign in (1, -1):
                shifted = amps.copy()
                shifted[k, n] += sign * step
                cs = ControlSet(controls.dt, controls.power_hz, controls.channels, shifted)
                grad[k, n] += sign * ensemble_fidelity(problem, cs)["mean"]
    return grad / (2 * step)


class TestFidelity:
    def test_identical_unit_vectors(self):
        basis = product_basis(SpinSystem((Spin("1H", 2),)))
        c = np.zeros(4, dtype=complex)
        c[2] = 1.0
        sv = StateVector(c, basis)
        assert fidelity(sv, sv) == 1.0

    def test_orthogonal_raising_lowering(self):
        basis = product_basis(SpinSystem((Spin("1H", 2),)))
        plus = np.zeros(4, dtype=complex)
        minus = np.zeros(4, dtype=complex)
        plus[basis.index[((1, 1),)]] = 1.0
        minus[basis.index[((1, -1),)]] = 1.0
        assert fidelity(StateVector(plus, basis), StateVector(minus, basis)) == 0.0

    def test_imaginary_overlap(self):
        basis = product_basis(SpinSystem((Spin("1H", 2),)))
        c = np.zeros(4, dtype=complex)
        c[1] = 1.0
        sv = StateVector(c, basis)
        assert fidelity(StateVector(1j * c, basis), sv) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        b1 = product_basis(SpinSystem((Spin("1H", 2),)))
        b2 = product_basis(SpinSystem((Spin("14N", 3),)))
        with pytest.raises(DomainError):
            fidelity(StateVector(np.zeros(4), b1), StateVector(np.zeros(9), b2))


class TestGradient:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        problem, controls = random_problem(seed)
        grad = grape_gradient(problem, controls)
        fd = finite_difference_gradient(problem, controls)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_matches_augmented_exponential(self):
        problem, controls = random_problem(123, n_steps=4)
        exact = grape_gradient(problem, controls, method="exact")
        augmented = grape_gradient(problem, controls, method="augmented")
        assert np.max(np.abs(exact - augmented)) < 1e-12

    def test_stationary_at_maximum(self):
        system = SpinSystem((Spin("1H", 2, 0.0),))
        basis = product_basis(system)
        rho = normalized_operator_state(basis, spin_operator(system, 0, "z"))
        controls = ControlSet(
            dt=1e-4, power_hz=1000.0, channels=(("1H", "x"), ("1H", "y")),
            amplitudes=np.zeros((2, 4)),
        )
        problem = ControlProblem(system, rho, rho, controls)
        grad = grape_gradient(problem, controls)
        assert np.max(np.abs(grad)) < 1e-12

    def test_zero_step_hamiltonians(self):
        # on resonance without drive every step Hamiltonian is 0, which the
        # spin-1/2 path meets with no eigenbasis and no division
        system = SpinSystem((Spin("1H", 2, 0.0),))
        basis = product_basis(system)
        controls = ControlSet(
            dt=1e-4, power_hz=1000.0, channels=(("1H", "x"), ("1H", "y")),
            amplitudes=np.zeros((2, 4)),
        )
        problem = ControlProblem(
            system, normalized_operator_state(basis, spin_operator(system, 0, "z")),
            normalized_operator_state(basis, spin_operator(system, 0, "y")), controls,
        )
        exact = grape_gradient(problem, controls)
        oracle = grape_gradient(problem, controls, method="augmented")
        assert np.max(np.abs(oracle)) > 0.1
        assert np.max(np.abs(exact - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_ensemble_gradient_checks_out(self):
        problem, controls = random_problem(17, n_steps=3)
        problem.ensemble = Ensemble(
            offsets=(-150.0, 0.0, 150.0), power_scales=(0.9, 1.1), isotope="1H"
        )
        grad = grape_gradient(problem, controls)
        fd = finite_difference_gradient(problem, controls)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-6


class TestPhaseChainRule:
    def make_controls(self, phases):
        amps = np.vstack([np.cos(phases), np.sin(phases)])
        return ControlSet(
            dt=1e-4, power_hz=1000.0,
            channels=(("1H", "x"), ("1H", "y")), amplitudes=amps,
        )

    def test_zero_phase(self):
        controls = self.make_controls(np.zeros(3))
        grad_xy = np.array([[2.0, 3.0, 4.0], [5.0, 6.0, 7.0]])
        out = phase_chain_rule(grad_xy, controls)
        assert np.allclose(out, grad_xy[1], atol=1e-12)

    def test_quarter_turn(self):
        controls = self.make_controls(np.full(3, np.pi / 2))
        grad_xy = np.array([[2.0, 3.0, 4.0], [5.0, 6.0, 7.0]])
        out = phase_chain_rule(grad_xy, controls)
        assert np.allclose(out, -grad_xy[0], atol=1e-12)

    def test_matches_finite_differences_in_phase(self):
        rng = np.random.default_rng(31)
        system = SpinSystem((Spin("1H", 2, 200.0),))
        basis = product_basis(system)
        rho0 = normalized_operator_state(basis, spin_operator(system, 0, "z"))
        target = normalized_operator_state(basis, spin_operator(system, 0, "x"))
        phases = rng.uniform(0, 2 * np.pi, 6)
        controls = self.make_controls(phases)
        problem = ControlProblem(system, rho0, target, controls)
        grad_phi = phase_chain_rule(grape_gradient(problem, controls), controls)[0]
        step = 1e-6
        fd = np.zeros_like(phases)
        for n in range(len(phases)):
            for sign in (1, -1):
                shifted = phases.copy()
                shifted[n] += sign * step
                cs = self.make_controls(shifted)
                fd[n] += sign * ensemble_fidelity(problem, cs)["mean"]
        fd /= 2 * step
        assert np.max(np.abs(grad_phi - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_unpaired_channels_rejected(self):
        controls = ControlSet(
            dt=1e-4, power_hz=1000.0, channels=(("1H", "x"),),
            amplitudes=np.ones((1, 3)),
        )
        with pytest.raises(DomainError):
            phase_chain_rule(np.ones((1, 3)), controls)


class TestEnsembleFidelity:
    def test_singleton_matches_plain(self):
        problem, controls = random_problem(2)
        from spintraj.engine import propagate

        result = ensemble_fidelity(problem, controls)
        traj = propagate(problem.system, controls, problem.rho0)
        assert result["mean"] == pytest.approx(
            fidelity(StateVector(traj.states[-1], traj.basis), problem.target), abs=1e-12
        )
        assert len(result["per_member"]) == 1

    def test_orthogonal_zero_controls(self):
        system = SpinSystem((Spin("1H", 2, 0.0),))
        basis = product_basis(system)
        rho0 = normalized_operator_state(basis, spin_operator(system, 0, "z"))
        target = normalized_operator_state(basis, spin_operator(system, 0, "x"))
        controls = ControlSet(
            dt=1e-4, power_hz=1000.0, channels=(("1H", "x"), ("1H", "y")),
            amplitudes=np.zeros((2, 8)),
        )
        problem = ControlProblem(system, rho0, target, controls)
        assert ensemble_fidelity(problem, controls)["mean"] == pytest.approx(0.0, abs=1e-12)

    def test_member_count(self):
        problem, controls = random_problem(4, n_steps=3)
        problem.ensemble = Ensemble((-100.0, 0.0, 100.0), (0.8, 1.0), "1H")
        result = ensemble_fidelity(problem, controls)
        assert len(result["per_member"]) == 6
        assert result["mean"] == pytest.approx(np.mean(result["per_member"]), abs=1e-14)


class TestOptimize:
    def make_simple_problem(self, seed=3, **kwargs):
        system = SpinSystem((Spin("1H", 2, 0.0),))
        basis = product_basis(system)
        rho0 = normalized_operator_state(basis, spin_operator(system, 0, "z"))
        target = normalized_operator_state(basis, spin_operator(system, 0, "x"))
        controls = ControlSet(
            dt=1e-4, power_hz=10000.0, channels=(("1H", "x"), ("1H", "y")),
            amplitudes=np.zeros((2, 1)),
        )
        return ControlProblem(system, rho0, target, controls, seed=seed, **kwargs)

    def test_single_step_quarter_rotation(self):
        report = optimize(self.make_simple_problem())
        assert report.final_fidelity >= 0.999

    def test_never_worse_than_initial_guess(self):
        problem = self.make_simple_problem(max_iterations=2)
        initial, _ = __import__("spintraj.grape", fromlist=["x"])._initial_controls(problem)
        f0 = ensemble_fidelity(problem, initial)["mean"]
        report = optimize(problem)
        assert report.final_fidelity >= f0

    def test_monotone_fidelity_history(self):
        report = optimize(self.make_simple_problem())
        history = np.array(report.fidelity_history)
        assert np.all(np.diff(history) >= -1e-12)

    def test_fidelity_bounded(self):
        report = optimize(self.make_simple_problem())
        assert all(abs(f) <= 1.0 + 1e-9 for f in report.per_member_fidelities)

    def test_reproducible_path(self):
        r1 = optimize(self.make_simple_problem(seed=9))
        r2 = optimize(self.make_simple_problem(seed=9))
        assert r1.fidelity_history == r2.fidelity_history
        assert np.array_equal(r1.controls.amplitudes, r2.controls.amplitudes)

    def test_phase_parametrization_stays_on_unit_circle(self):
        system = SpinSystem((Spin("1H", 2, 120.0),))
        basis = product_basis(system)
        rho0 = normalized_operator_state(basis, spin_operator(system, 0, "z"))
        target = normalized_operator_state(basis, spin_operator(system, 0, "x"))
        controls = ControlSet(
            dt=2e-5, power_hz=10000.0, channels=(("1H", "x"), ("1H", "y")),
            amplitudes=np.zeros((2, 25)),
        )
        problem = ControlProblem(
            system, rho0, target, controls, parametrization="phases", seed=2
        )
        report = optimize(problem)
        cx, cy = report.controls.amplitudes
        assert np.array_equal(np.hypot(cx, cy), np.ones_like(cx))
        assert report.final_fidelity >= 0.99

    @pytest.mark.parametrize("parametrization", ["amplitudes", "phases"])
    def test_report_matches_fresh_evaluation(self, parametrization):
        problem = self.make_simple_problem(
            seed=4, max_iterations=3, parametrization=parametrization,
            ensemble=Ensemble((-300.0, 0.0, 300.0), (0.9, 1.1)),
        )
        report = optimize(problem)
        fresh = ensemble_fidelity(problem, report.controls)
        assert report.final_fidelity == fresh["mean"]
        assert report.per_member_fidelities == fresh["per_member"]

    def test_report_counts_computed_evaluations(self, monkeypatch):
        computed = []
        evaluate = grape._EnsembleWorkspace.mean_fidelity_and_gradient

        def counting(ws, amplitudes):
            computed.append(amplitudes)
            return evaluate(ws, amplitudes)

        monkeypatch.setattr(grape._EnsembleWorkspace, "mean_fidelity_and_gradient", counting)
        report = optimize(self.make_simple_problem(
            seed=4, max_iterations=5, ensemble=Ensemble((-300.0, 300.0), (0.9, 1.1)),
        ))
        # the starting point is evaluated before the optimizer asks for it again;
        # that second request is a cache hit and not counted
        assert report.evaluations == len(computed) >= report.iterations + 1

    def test_fidelity_stop(self):
        problem = self.make_simple_problem(fidelity_stop=0.9)
        report = optimize(problem)
        assert report.status == "fidelity_stop"
        assert report.final_fidelity >= 0.9

    def test_power_penalty_shrinks_amplitudes(self):
        free = optimize(self.make_simple_problem(seed=6))
        penalized = optimize(self.make_simple_problem(seed=6, power_penalty=0.5))
        assert np.sum(penalized.controls.amplitudes**2) <= np.sum(
            free.controls.amplitudes**2
        ) + 1e-12

    def test_power_penalty_with_phases_rejected(self):
        # a phase-only pulse has fixed power, so the penalty would be ignored
        with pytest.raises(DomainError, match="power_penalty"):
            self.make_simple_problem(parametrization="phases", power_penalty=0.5)

    def test_non_unit_state_rejected(self):
        system = SpinSystem((Spin("1H", 2),))
        basis = product_basis(system)
        controls = ControlSet(
            dt=1e-4, power_hz=1000.0, channels=(("1H", "x"),),
            amplitudes=np.zeros((1, 2)),
        )
        bad = StateVector(np.full(4, 0.9), basis)
        good = StateVector(np.array([1.0, 0, 0, 0]), basis)
        with pytest.raises(DomainError):
            ControlProblem(system, bad, good, controls)
