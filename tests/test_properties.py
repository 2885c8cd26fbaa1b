"""Property tests over random closed spin systems.

Spin-1/2 and spin-1 nuclei with offsets, weak, strong and default-model
couplings, rhombic quadrupoles, random complex (non-Hermitian) initial and
target states, and robustness ensembles of 2-4 members. The Hilbert-space
propagation and gradient core is checked against Liouville-space oracles that
share none of its code: a product of exp(-i L dt) superoperator exponentials
for propagation, and the augmented block exponential for the gradient.
Examples are derandomized, so every run checks the same systems. Two long
pulses, the broadband grid (one spin-1/2, 625 steps, four members) and a
50-step slice on the three-spin backbone, check the error accumulated over a
real pulse, which the short random pulses cannot show.

State expressions are checked over spin-1/2, spin-1 and spin-3/2 systems
against operators built by Kronecker products with identities, and the
factored basis map (coefficients_of, operator_of) against the dense D x D
vectorization matrix on the same kinds of systems up to D = 1,024.
"""

import math
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spintraj import (
    ControlProblem,
    ControlSet,
    Coupling,
    Ensemble,
    Quadrupole,
    Spin,
    SpinSystem,
    StateVector,
    commutation_superoperator,
    control_operators,
    drift_hamiltonian,
    grape_gradient,
    ist_operator,
    product_basis,
    propagate,
)
from spintraj.expressions import parse_state
from spintraj.fileio import parse_system
from spintraj.tensors import angular_momentum
from test_engine import step_propagator
from test_tensors import vectorization_matrix

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ISOTOPES = ("1H", "13C", "14N")


@st.composite
def control_problems(draw):
    """A random closed system, a short random pulse, random complex rho0 and
    target, and an ensemble of 2-4 members."""
    mults = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3)
                 .filter(lambda m: math.prod(m) <= 9))
    spins = tuple(
        Spin(draw(st.sampled_from(ISOTOPES)), m, draw(st.floats(-3000.0, 3000.0)))
        for m in mults
    )
    couplings = tuple(
        Coupling(i, j, draw(st.floats(-250.0, 250.0)),
                 draw(st.sampled_from([None, "weak", "strong"])))
        for i in range(len(spins)) for j in range(i + 1, len(spins))
        if draw(st.booleans())
    )
    quads = tuple(
        Quadrupole(k, draw(st.floats(-20000.0, 20000.0)), draw(st.floats(0.0, 1.0)))
        for k, m in enumerate(mults) if m == 3 and draw(st.booleans())
    )
    system = SpinSystem(spins, couplings, quads)
    isotopes = tuple(dict.fromkeys(s.isotope for s in spins))
    all_channels = [(iso, ax) for iso in isotopes for ax in ("x", "y")]
    channels = draw(st.lists(st.sampled_from(all_channels), min_size=1,
                             max_size=len(all_channels), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_steps = draw(st.integers(1, 5))
    controls = ControlSet(
        dt=draw(st.floats(5e-6, 5e-5)), power_hz=draw(st.floats(1000.0, 20000.0)),
        channels=tuple(channels),
        amplitudes=rng.uniform(-1.0, 1.0, (len(channels), n_steps)),
    )
    basis = product_basis(system)

    def random_state():
        c = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        return StateVector(c / np.linalg.norm(c), basis)

    n_members = draw(st.sampled_from([(2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (4, 1)]))
    ensemble = Ensemble(
        offsets=tuple(draw(st.floats(-500.0, 500.0)) for _ in range(n_members[0])),
        power_scales=tuple(draw(st.floats(0.7, 1.3)) for _ in range(n_members[1])),
        isotope=draw(st.sampled_from((None,) + isotopes)),
    )
    return ControlProblem(system, random_state(), random_state(), controls,
                          ensemble=ensemble)


def liouville_trajectory(system, controls, rho0):
    """States from a product of exp(-i L_n dt) over the IST basis."""
    basis = rho0.basis
    l0 = commutation_superoperator(drift_hamiltonian(system), basis)
    c_supers = [commutation_superoperator(c, basis)
                for c in control_operators(system, controls.channels)]
    states = [rho0.coefficients]
    for n in range(controls.n_steps):
        gen = l0 + sum(2 * np.pi * controls.power_hz * controls.amplitudes[k, n] * c
                       for k, c in enumerate(c_supers))
        states.append(step_propagator(gen, controls.dt) @ states[-1])
    return np.array(states)


@PROPERTY_SETTINGS
@given(control_problems())
def test_propagate_matches_liouville_oracle(problem):
    traj = propagate(problem.system, problem.controls, problem.rho0)
    oracle = liouville_trajectory(problem.system, problem.controls, problem.rho0)
    assert np.max(np.abs(traj.states - oracle)) <= 1e-12


@PROPERTY_SETTINGS
@given(control_problems())
def test_trajectory_rows_keep_unit_norm(problem):
    traj = propagate(problem.system, problem.controls, problem.rho0)
    assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) <= 1e-12


@PROPERTY_SETTINGS
@given(control_problems())
def test_gradient_matches_augmented_oracle(problem):
    exact = grape_gradient(problem, problem.controls)
    oracle = grape_gradient(problem, problem.controls, method="augmented")
    assert np.max(np.abs(exact - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def kron_embedded(system, spin, single):
    """The one-spin operator `single` on `spin`, identities on every other spin."""
    op = np.ones((1, 1), dtype=complex)
    for k, s in enumerate(system.spins):
        op = np.kron(op, single if k == spin else np.eye(s.multiplicity))
    return op


@PROPERTY_SETTINGS
@given(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3)
       .filter(lambda m: math.prod(m) <= 16))
def test_primitives_match_kronecker_oracle(mults):
    system = SpinSystem(tuple(Spin("1H", m) for m in mults))
    basis = product_basis(system)
    for k, n in enumerate(mults):
        primitives = [(f"L{a}({k})", angular_momentum(n, a)) for a in "xyz"]
        primitives += [(f"T({k},{l},{m})", ist_operator(n, l, m))
                       for l in range(n) for m in range(-l, l + 1)]
        for text, single in primitives:
            c = basis.coefficients_of(kron_embedded(system, k, single))
            oracle = c / np.linalg.norm(c)
            assert np.max(np.abs(parse_state(basis, text).coefficients - oracle)) <= 1e-15


@PROPERTY_SETTINGS
@given(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=5)
       .filter(lambda m: math.prod(m) <= 32),
       st.sampled_from([(), (3,), (2, 2)]), st.integers(0, 2**32 - 1))
@example([2, 2, 2, 2, 2], (3,), 0)
@example([4, 2, 4], (2, 2), 1)
def test_basis_map_matches_dense_oracle(mults, stack, seed):
    basis = product_basis(SpinSystem(tuple(Spin("1H", m) for m in mults)))
    u, d, rng = vectorization_matrix(basis), basis.hilbert_dim, np.random.default_rng(seed)
    op = rng.normal(size=stack + (d, d)) + 1j * rng.normal(size=stack + (d, d))
    oracle = op.reshape(stack + (d * d,)) @ u.conj()
    assert np.max(np.abs(basis.coefficients_of(op) - oracle)) <= 1e-15 * np.max(np.abs(op))
    c = rng.normal(size=stack + (basis.dim,)) + 1j * rng.normal(size=stack + (basis.dim,))
    oracle = (c @ u.T).reshape(stack + (d, d))
    assert np.max(np.abs(basis.operator_of(c) - oracle)) <= 1e-15 * np.max(np.abs(c))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def check_long_pulse(problem):
    """propagate for every ensemble member against the Liouville oracle, and
    the exact gradient against the augmented one, over the whole pulse."""
    ens, c = problem.ensemble, problem.controls
    for offset, scale in ens.members:
        system = problem.system.with_offset_shift(offset, ens.isotope)
        controls = ControlSet(c.dt, c.power_hz * scale, c.channels, c.amplitudes)
        traj = propagate(system, controls, problem.rho0)
        oracle = liouville_trajectory(system, controls, problem.rho0)
        assert np.max(np.abs(traj.states - oracle)) <= 1e-12
    exact = grape_gradient(problem, c)
    oracle = grape_gradient(problem, c, method="augmented")
    assert np.max(np.abs(exact - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_broadband_pulse_matches_oracles():
    # the broadband_excitation grid: 625 phase-modulated steps at 15 kHz,
    # members at the offset and power extremes
    system = SpinSystem((Spin("1H", 2, 0.0),))
    basis = product_basis(system)
    phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 625)
    controls = ControlSet(1.6e-6, 15000.0, (("1H", "x"), ("1H", "y")),
                          np.array([np.cos(phases), np.sin(phases)]))
    check_long_pulse(ControlProblem(
        system, parse_state(basis, "Lz(0)"), parse_state(basis, "Lx(0)"), controls,
        ensemble=Ensemble((-25000.0, 25000.0), (0.7, 1.3), "1H"),
    ))


def test_relay_slice_matches_oracles():
    # 50 relay-sized steps on the three-spin backbone (d = 8). The target is
    # Lx(0), not the relay's Lz(2): a pulse this short leaves the Lz(2)
    # gradient near 1e-5, where the absolute roundoff of any method (about
    # 1e-15) is no longer 1e-12 of it. The augmented oracle costs about 50 ms
    # a step, so the slice is short.
    system = parse_system((CONFIGS / "backbone.yaml").read_text(encoding="utf-8"))
    basis = product_basis(system)
    controls = ControlSet(4e-5, 10000.0, (("1H", "x"), ("1H", "y")),
                          np.random.default_rng(11).uniform(-1.0, 1.0, (2, 50)))
    check_long_pulse(ControlProblem(
        system, parse_state(basis, "Lz(0)"), parse_state(basis, "Lx(0)"), controls,
    ))
