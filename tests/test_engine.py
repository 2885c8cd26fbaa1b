from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from spintraj import (
    CohOrder,
    ControlSet,
    Coupling,
    Quadrupole,
    Spin,
    SpinSystem,
    StateVector,
    build_projector,
    commutation_superoperator,
    control_operators,
    drift_hamiltonian,
    ist_operator,
    population_series,
    product_basis,
    propagate,
    spin_operator,
)
from spintraj.engine import _EighPrefix, prefix_products
from spintraj.errors import DomainError, NumericError
from spintraj.expressions import parse_state
from spintraj.fileio import parse_system

TWO_PI = 2 * np.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def one_spin():
    return SpinSystem((Spin("1H", 2, 100.0),))


@pytest.fixture
def one_spin_basis(one_spin):
    return product_basis(one_spin)


def basis_state(basis, components):
    c = np.zeros(basis.dim, dtype=complex)
    c[basis.index[components]] = 1.0
    return StateVector(c, basis)


class TestDriftHamiltonian:
    def test_single_zeeman_term(self, one_spin):
        h = drift_hamiltonian(one_spin)
        assert np.allclose(h, TWO_PI * 100.0 * np.diag([0.5, -0.5]), atol=1e-12)

    def test_weak_coupling_eigenvalues(self):
        system = SpinSystem(
            (Spin("1H", 2), Spin("13C", 2)), (Coupling(0, 1, 10.0, "weak"),)
        )
        h = drift_hamiltonian(system)
        expected = TWO_PI * 10.0 * np.diag([0.25, -0.25, -0.25, 0.25])
        assert np.allclose(h, expected, atol=1e-12)

    def test_strong_coupling_is_isotropic(self):
        system = SpinSystem(
            (Spin("13C", 2), Spin("13C", 2)), (Coupling(0, 1, 55.0),)
        )
        h = drift_hamiltonian(system)
        dot = sum(
            spin_operator(system, 0, ax) @ spin_operator(system, 1, ax)
            for ax in "xyz"
        )
        assert np.allclose(h, TWO_PI * 55.0 * dot, atol=1e-12)

    def test_default_model_weak_for_heteronuclear(self):
        system = SpinSystem(
            (Spin("1H", 2), Spin("13C", 2)), (Coupling(0, 1, 140.0),)
        )
        assert system.coupling_model(system.couplings[0]) == "weak"

    def test_axial_quadrupole_pattern(self):
        omega_q = 12000.0
        system = SpinSystem(
            (Spin("14N", 3),), quadrupolar=(Quadrupole(0, omega_q, 0.0),)
        )
        h = drift_hamiltonian(system)
        # 3 Sz^2 - S^2 = diag(1, -2, 1) for spin 1
        expected = (TWO_PI * omega_q / 3.0) * np.diag([1.0, -2.0, 1.0])
        assert np.allclose(h, expected, atol=1e-9)
        assert abs(np.trace(h)) < 1e-9

    def test_hermitian_with_eta(self):
        system = SpinSystem(
            (Spin("14N", 3, 300.0),), quadrupolar=(Quadrupole(0, 5000.0, 0.7),)
        )
        h = drift_hamiltonian(system)
        assert np.allclose(h, h.conj().T, atol=1e-12)


class TestControlOperators:
    def test_single_spin_x(self):
        system = SpinSystem((Spin("1H", 2),))
        (cx,) = control_operators(system, (("1H", "x"),))
        assert np.allclose(cx, np.array([[0, 0.5], [0.5, 0]]), atol=1e-14)

    def test_isotope_wide_channel(self):
        system = SpinSystem((Spin("1H", 2), Spin("1H", 2)))
        (cx,) = control_operators(system, (("1H", "x"),))
        expected = spin_operator(system, 0, "x") + spin_operator(system, 1, "x")
        assert np.allclose(cx, expected, atol=1e-14)

    def test_isotope_selectivity(self):
        system = SpinSystem((Spin("1H", 2), Spin("13C", 2)))
        (cy,) = control_operators(system, (("13C", "y"),))
        assert np.allclose(cy, spin_operator(system, 1, "y"), atol=1e-14)

    def test_unknown_isotope(self):
        system = SpinSystem((Spin("1H", 2),))
        with pytest.raises(DomainError):
            control_operators(system, (("19F", "x"),))


class TestCommutationSuperoperator:
    def test_ladder_eigenvalue(self, one_spin, one_spin_basis):
        omega = 3.7
        h = omega * spin_operator(one_spin, 0, "z")
        l_super = commutation_superoperator(h, one_spin_basis)
        e11 = basis_state(one_spin_basis, ((1, 1),)).coefficients
        assert np.allclose(l_super @ e11, omega * e11, atol=1e-12)

    def test_zero_hamiltonian(self, one_spin, one_spin_basis):
        l_super = commutation_superoperator(np.zeros((2, 2)), one_spin_basis)
        assert np.max(np.abs(l_super)) == 0.0

    def test_identity_commutes(self, one_spin, one_spin_basis):
        l_super = commutation_superoperator(np.eye(2), one_spin_basis)
        assert np.max(np.abs(l_super)) < 1e-14

    def test_linearity_exact(self, one_spin, one_spin_basis):
        rng = np.random.default_rng(1)
        h1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a, b = 1.25, -0.5
        left = commutation_superoperator(a * h1 + b * h2, one_spin_basis)
        right = a * commutation_superoperator(
            h1, one_spin_basis
        ) + b * commutation_superoperator(h2, one_spin_basis)
        assert np.array_equal(left, right) or np.max(np.abs(left - right)) < 1e-15

    def test_dimension_mismatch(self, one_spin_basis):
        with pytest.raises(DomainError):
            commutation_superoperator(np.eye(3), one_spin_basis)


def step_propagator(l_super: np.ndarray, dt: float) -> np.ndarray:
    """Liouville-space oracle exp(-i L dt) by scaling-and-squaring Pade approximation."""
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if not np.all(np.isfinite(l_super)):
        raise NumericError("superoperator contains non-finite entries")
    return scipy.linalg.expm(-1j * dt * l_super)


class TestStepPropagator:
    def test_zero_generator(self):
        u = step_propagator(np.zeros((4, 4)), 1.0)
        assert np.allclose(u, np.eye(4), atol=1e-14)

    def test_pi_rotation_inverts_z(self, one_spin_basis):
        system = one_spin_basis.system
        cx = commutation_superoperator(
            spin_operator(system, 0, "x"), one_spin_basis
        )
        u = step_propagator(np.pi * cx, 1.0)
        t10 = basis_state(one_spin_basis, ((1, 0),)).coefficients
        assert np.allclose(u @ t10, -t10, atol=1e-10)

    def test_half_pi_rotation_into_transverse(self, one_spin_basis):
        system = one_spin_basis.system
        cy = commutation_superoperator(
            spin_operator(system, 0, "y"), one_spin_basis
        )
        u = step_propagator((np.pi / 2) * cy, 1.0)
        t10 = basis_state(one_spin_basis, ((1, 0),)).coefficients
        final = u @ t10
        idx = [one_spin_basis.index[((1, -1),)], one_spin_basis.index[((1, 1),)]]
        assert abs(np.linalg.norm(final[idx]) - 1.0) < 1e-10

    def test_composition(self, one_spin, one_spin_basis):
        l_super = commutation_superoperator(
            drift_hamiltonian(one_spin), one_spin_basis
        )
        u1 = step_propagator(l_super, 1e-3)
        u2 = step_propagator(l_super, 2e-3)
        assert np.max(np.abs(u1 @ u1 - u2)) < 1e-10

    def test_unitary(self, one_spin, one_spin_basis):
        l_super = commutation_superoperator(
            drift_hamiltonian(one_spin), one_spin_basis
        )
        u = step_propagator(l_super, 1e-3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def random_hermitian(rng, shape, d, scale=1.0):
    a = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    return scale * (a + a.conj().swapaxes(-1, -2)) / 2.0


def traceless(h):
    return h - np.trace(h, axis1=-2, axis2=-1)[..., None, None] / h.shape[-1] * np.eye(h.shape[-1])


def su2_expm(hams, dt):
    """exp(-i dt H) of the traceless part of each 2 x 2 H, by scipy."""
    return np.array([scipy.linalg.expm(-1j * dt * h) for h in traceless(hams).reshape(-1, 2, 2)]
                    ).reshape(hams.shape)


class TestTwoByTwoKernels:
    """The SU(2) path of prefix_products for one spin-1/2, against expm and
    against the eigh path that every larger d takes."""

    @pytest.mark.parametrize("scale, dt", [(1.0, 0.7), (TWO_PI * 2.0e4, 1e-5)])
    def test_products_match_expm(self, scale, dt):
        rng = np.random.default_rng(3)
        drift, ops = random_hermitian(rng, (7,), 2, scale), random_hermitian(rng, (2,), 2)
        w, amplitudes = rng.uniform(0.5, 1.5, 7) * scale, rng.uniform(-1, 1, (2, 50))
        p = prefix_products(drift, ops, w, amplitudes, dt).matrices()
        hams = drift[:, None] + np.einsum("m,kn,kij->mnij", w, amplitudes, ops)
        expected = np.empty_like(p)
        expected[:, 0] = np.eye(2)
        for n, u in enumerate(su2_expm(hams, dt).swapaxes(0, 1)):
            expected[:, n + 1] = u @ expected[:, n]
        assert np.max(np.abs(p - expected)) <= 1e-13

    @pytest.mark.parametrize("ham", [
        [[3.0, 0.0], [0.0, -1.0]],   # q = 0, h00 > h11
        [[-2.0, 0.0], [0.0, 5.0]],   # q = 0, h00 < h11
        [[0.0, 0.0], [0.0, 0.0]],    # H = 0
        [[1.0, 2.0j], [-2.0j, -1.0]],  # purely imaginary q
    ], ids=["q0-descending", "q0-ascending", "zero", "imaginary-q"])
    def test_edge_cases(self, ham):
        # zero amplitudes, so each step Hamiltonian is `ham` itself
        hams = np.array([[ham, ham]], dtype=complex)
        ops = random_hermitian(np.random.default_rng(5), (2,), 2)
        args = (hams[:, 0], ops, np.ones(1), np.zeros((2, 2)), 0.3)
        su2 = prefix_products(*args)
        u = su2_expm(hams, 0.3)[0, 0]
        assert np.max(np.abs(su2.matrices()[0] - [np.eye(2), u, u @ u])) <= 1e-14
        k0 = traceless(random_hermitian(np.random.default_rng(6), (1,), 2))
        expected = _EighPrefix(*args).control_gradient(k0)
        assert np.max(np.abs(su2.control_gradient(k0) - expected)) <= 1e-14

    def test_gradient_matches_eigh_path(self):
        rng = np.random.default_rng(4)
        drift, ops = random_hermitian(rng, (6,), 2, 3.0), random_hermitian(rng, (3,), 2)
        args = (drift, ops, rng.uniform(0.5, 1.5, 6), rng.uniform(-1, 1, (3, 40)), 0.2)
        k0 = traceless(random_hermitian(rng, (6,), 2))
        expected = _EighPrefix(*args).control_gradient(k0)
        got = prefix_products(*args).control_gradient(k0)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestPropagate:
    def test_constant_without_drive(self):
        system = SpinSystem((Spin("1H", 2, 0.0),))
        basis = product_basis(system)
        controls = ControlSet(
            dt=1e-4, power_hz=1000.0, channels=(("1H", "x"),),
            amplitudes=np.zeros((1, 10)),
        )
        rho0 = basis_state(basis, ((1, 0),))
        traj = propagate(system, controls, rho0)
        assert np.allclose(traj.states, traj.states[0], atol=1e-12)

    def test_pi_pulse_duration(self):
        a = 2500.0
        system = SpinSystem((Spin("1H", 2, 0.0),))
        basis = product_basis(system)
        controls = ControlSet(
            dt=1.0 / (2 * a) / 8, power_hz=a, channels=(("1H", "x"),),
            amplitudes=np.ones((1, 8)),
        )
        rho0 = basis_state(basis, ((1, 0),))
        traj = propagate(system, controls, rho0)
        assert np.allclose(
            traj.states[-1], -rho0.coefficients, atol=1e-9
        )

    def test_norm_conservation(self):
        rng = np.random.default_rng(5)
        system = SpinSystem(
            (Spin("1H", 2, 170.0), Spin("13C", 2, -320.0)),
            (Coupling(0, 1, 35.0),),
        )
        basis = product_basis(system)
        controls = ControlSet(
            dt=5e-5, power_hz=8000.0,
            channels=(("1H", "x"), ("1H", "y"), ("13C", "x"), ("13C", "y")),
            amplitudes=rng.uniform(-1, 1, (4, 50)),
        )
        c0 = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        rho0 = StateVector(c0 / np.linalg.norm(c0), basis)
        traj = propagate(system, controls, rho0)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_coherence_order_conservation_under_z_drift(self):
        # offsets plus weak couplings commute with total Sz: every coherence
        # order population stays constant without transverse drive
        system = SpinSystem(
            (Spin("1H", 2, 430.0), Spin("13C", 2, -2100.0)),
            (Coupling(0, 1, 90.0, "weak"),),
        )
        basis = product_basis(system)
        controls = ControlSet(
            dt=1e-4, power_hz=1000.0, channels=(("1H", "x"),),
            amplitudes=np.zeros((1, 40)),
        )
        rng = np.random.default_rng(8)
        c0 = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        rho0 = StateVector(c0 / np.linalg.norm(c0), basis)
        traj = propagate(system, controls, rho0)
        for m in range(-2, 3):
            series = population_series(build_projector(basis, CohOrder(m)), traj)
            assert np.max(np.abs(series - series[0])) < 1e-9

    def test_first_row_is_rho0_exactly(self):
        # row 0 is the initial state as given, not its round trip through a
        # Hilbert-space operator
        system = parse_system((CONFIGS / "backbone.yaml").read_text(encoding="utf-8"))
        rho0 = parse_state(product_basis(system), "Lz(0)")
        controls = ControlSet(
            dt=4e-5, power_hz=10000.0, channels=(("1H", "x"), ("13C", "y")),
            amplitudes=np.random.default_rng(2).uniform(-1, 1, (2, 5)),
        )
        traj = propagate(system, controls, rho0)
        assert np.array_equal(traj.states[0], rho0.coefficients)

    def test_basis_mismatch(self):
        system = SpinSystem((Spin("1H", 2),))
        other = product_basis(SpinSystem((Spin("14N", 3),)))
        controls = ControlSet(
            dt=1e-4, power_hz=1000.0, channels=(("1H", "x"),),
            amplitudes=np.zeros((1, 2)),
        )
        rho0 = StateVector(np.zeros(9), other)
        with pytest.raises(DomainError):
            propagate(system, controls, rho0)


class TestControlSet:
    def test_validation(self):
        with pytest.raises(DomainError):
            ControlSet(dt=0.0, power_hz=1.0, channels=(("1H", "x"),),
                       amplitudes=np.zeros((1, 4)))
        with pytest.raises(DomainError):
            ControlSet(dt=1e-4, power_hz=1.0, channels=(("1H", "q"),),
                       amplitudes=np.zeros((1, 4)))
        with pytest.raises(DomainError):
            ControlSet(dt=1e-4, power_hz=1.0, channels=(("1H", "x"), ("1H", "y")),
                       amplitudes=np.zeros((1, 4)))

    def test_single_step_is_legal(self):
        cs = ControlSet(dt=1e-3, power_hz=1.0, channels=(("1H", "x"),),
                        amplitudes=np.zeros((1, 1)))
        assert cs.n_steps == 1
