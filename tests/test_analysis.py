import numpy as np
import pytest

from spintraj import (
    CohOrder,
    ControlSet,
    CorrOrder,
    Custom,
    Involving,
    LocalSpin,
    Spin,
    SpinSystem,
    StateVector,
    Trajectory,
    bsg_transform,
    build_projector,
    commutation_superoperator,
    involvement_report,
    population_series,
    product_basis,
    propagate,
    rdn,
    rsp,
    sg_transform,
    spin_operator,
)
from spintraj.errors import DomainError
from test_grape import normalized_operator_state


@pytest.fixture(scope="module")
def two_spin_basis():
    return product_basis(SpinSystem((Spin("1H", 2, 250.0), Spin("1H", 2, -130.0))))


def population(p, rho):
    """Norm of the projected state: ||P rho||."""
    return float(np.linalg.norm(rho.coefficients[p.mask]))


def unit_state(basis, components):
    c = np.zeros(basis.dim, dtype=complex)
    c[basis.index[components]] = 1.0
    return StateVector(c, basis)


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return StateVector(c / np.linalg.norm(c), basis)


def static_trajectory(state, n_points=3):
    states = np.tile(state.coefficients, (n_points, 1))
    return Trajectory(np.arange(n_points, dtype=float), states, state.basis)


class TestBuildProjector:
    def test_corr_order_one_count(self, two_spin_basis):
        assert build_projector(two_spin_basis, CorrOrder(1)).size == 6

    def test_local_spin_count(self, two_spin_basis):
        assert build_projector(two_spin_basis, LocalSpin(0)).size == 3

    def test_involving_count(self, two_spin_basis):
        assert build_projector(two_spin_basis, Involving(0)).size == 12

    def test_partitions(self, two_spin_basis):
        d = two_spin_basis.dim
        corr = sum(
            build_projector(two_spin_basis, CorrOrder(k)).size for k in range(3)
        )
        coh = sum(
            build_projector(two_spin_basis, CohOrder(m)).size for m in range(-2, 3)
        )
        assert corr == d and coh == d

    def test_out_of_range(self, two_spin_basis):
        with pytest.raises(DomainError):
            build_projector(two_spin_basis, CorrOrder(5))
        with pytest.raises(DomainError):
            build_projector(two_spin_basis, CohOrder(3))
        with pytest.raises(DomainError):
            build_projector(two_spin_basis, LocalSpin(2))

    def test_custom_mask(self, two_spin_basis):
        mask = tuple(i == 0 for i in range(two_spin_basis.dim))
        assert build_projector(two_spin_basis, Custom(mask)).size == 1


class TestPopulation:
    def test_local_z_state(self, two_spin_basis):
        rho = unit_state(two_spin_basis, ((1, 0), (0, 0)))
        assert population(build_projector(two_spin_basis, LocalSpin(0)), rho) == 1.0
        assert population(build_projector(two_spin_basis, LocalSpin(1)), rho) == 0.0
        assert population(build_projector(two_spin_basis, CorrOrder(1)), rho) == 1.0
        assert population(build_projector(two_spin_basis, CorrOrder(2)), rho) == 0.0

    def test_two_spin_order(self, two_spin_basis):
        rho = unit_state(two_spin_basis, ((1, 0), (1, 0)))
        assert population(build_projector(two_spin_basis, Involving(0)), rho) == 1.0
        assert population(build_projector(two_spin_basis, LocalSpin(0)), rho) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_pythagorean_partitions(self, two_spin_basis, seed):
        rho = random_state(two_spin_basis, seed)
        corr = sum(
            population(build_projector(two_spin_basis, CorrOrder(k)), rho) ** 2
            for k in range(3)
        )
        coh = sum(
            population(build_projector(two_spin_basis, CohOrder(m)), rho) ** 2
            for m in range(-2, 3)
        )
        assert abs(corr - rho.norm**2) < 1e-12
        assert abs(coh - rho.norm**2) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_local_within_involving(self, two_spin_basis, seed):
        rho = random_state(two_spin_basis, seed + 50)
        for k in range(2):
            local = population(build_projector(two_spin_basis, LocalSpin(k)), rho)
            inv = population(build_projector(two_spin_basis, Involving(k)), rho)
            assert local <= inv + 1e-15


class TestStateGrouping:
    def test_transverse_states_share_image(self, two_spin_basis):
        system = two_spin_basis.system
        for axis in ("x", "y"):
            op = spin_operator(system, 0, axis)
            rho = normalized_operator_state(two_spin_basis, op)
            grouped = sg_transform(static_trajectory(rho))
            assert abs(grouped.values[0].max() - 1.0) < 1e-12
            orbit = grouped.group_table[int(np.argmax(grouped.values[0]))]
            members = {two_spin_basis.labels[i].components for i in orbit}
            assert members == {((1, 1), (0, 0)), ((1, -1), (0, 0))}

    def test_self_conjugate_singleton(self, two_spin_basis):
        rho = unit_state(two_spin_basis, ((1, 0), (0, 0)))
        grouped = sg_transform(static_trajectory(rho))
        top = int(np.argmax(grouped.values[0]))
        assert grouped.group_table[top] == (two_spin_basis.index[((1, 0), (0, 0))],)
        assert abs(grouped.values[0, top] - 1.0) < 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_norm_preservation(self, two_spin_basis, seed):
        rho = random_state(two_spin_basis, seed + 10)
        grouped = sg_transform(static_trajectory(rho))
        assert np.max(np.abs((grouped.values**2).sum(axis=1) - rho.norm**2)) < 1e-12

    @pytest.mark.parametrize("phi", [0.3, 1.7, -2.2])
    def test_global_z_rotation_invariance(self, two_spin_basis, phi):
        system = two_spin_basis.system
        sz_total = spin_operator(system, 0, "z") + spin_operator(system, 1, "z")
        lz = commutation_superoperator(sz_total, two_spin_basis)
        rho = random_state(two_spin_basis, 77)
        traj = static_trajectory(rho)
        from scipy.linalg import expm

        rot = expm(-1j * phi * lz)
        rotated = Trajectory(
            traj.times, traj.states @ rot.T, two_spin_basis
        )
        before = sg_transform(traj).values
        after = sg_transform(rotated).values
        assert np.max(np.abs(before - after)) < 1e-12


class TestBroadStateGrouping:
    def test_local_transverse_state(self, two_spin_basis):
        op = spin_operator(two_spin_basis.system, 0, "x")
        rho = normalized_operator_state(two_spin_basis, op)
        image = bsg_transform(static_trajectory(rho)).values[0]
        assert np.allclose(image, [1.0, 0.0], atol=1e-12)

    def test_two_spin_order_is_invisible(self, two_spin_basis):
        rho = unit_state(two_spin_basis, ((1, 1), (1, -1)))
        image = bsg_transform(static_trajectory(rho)).values[0]
        assert np.allclose(image, [0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_local_rotation_invariance(self, two_spin_basis, seed):
        from scipy.linalg import expm

        rng = np.random.default_rng(seed)
        system = two_spin_basis.system
        rho = random_state(two_spin_basis, seed + 30)
        # random product of single-spin rotations
        rot = np.eye(two_spin_basis.dim, dtype=complex)
        for k in range(2):
            axis = rng.normal(size=3)
            gen = sum(
                a * spin_operator(system, k, w)
                for a, w in zip(axis, "xyz")
            )
            rot = rot @ expm(
                -1j * commutation_superoperator(gen, two_spin_basis)
            )
        traj = static_trajectory(rho)
        rotated = Trajectory(traj.times, traj.states @ rot.T, two_spin_basis)
        before = bsg_transform(traj).values
        after = bsg_transform(rotated).values
        assert np.max(np.abs(before - after)) < 1e-10


class TestSimilarityScores:
    def test_self_similarity_is_one(self, two_spin_basis):
        traj = static_trajectory(random_state(two_spin_basis, 3), n_points=5)
        for grouping in ("none", "sg", "bsg"):
            assert np.allclose(rdn(traj, traj, grouping).real, 1.0, atol=1e-12)
        for grouping in ("none", "sg"):
            assert np.allclose(rsp(traj, traj, grouping).real, 1.0, atol=1e-12)
        # raw (un-renormalized) bsg keeps self-RSP at 1 on single-spin content;
        # multi-spin correlations are deliberately discarded by the transform
        local = unit_state(two_spin_basis, ((1, 0), (0, 0)))
        traj_local = static_trajectory(local, n_points=4)
        assert np.allclose(rsp(traj_local, traj_local, "bsg").real, 1.0, atol=1e-12)

    def test_orthogonal_states(self, two_spin_basis):
        ta = static_trajectory(unit_state(two_spin_basis, ((1, 1), (0, 0))))
        tb = static_trajectory(unit_state(two_spin_basis, ((1, -1), (0, 0))))
        assert np.allclose(rsp(ta, tb, "none").magnitude, 0.0, atol=1e-14)
        assert np.allclose(
            rdn(ta, tb, "none").real, 1.0 - np.sqrt(2) / 2, atol=1e-12
        )
        # +/-m partners collapse onto the same orbit
        assert np.allclose(rsp(ta, tb, "sg").real, 1.0, atol=1e-12)

    def test_antipodal_states(self, two_spin_basis):
        rho = random_state(two_spin_basis, 9)
        ta = static_trajectory(rho)
        tb = static_trajectory(StateVector(-rho.coefficients, two_spin_basis))
        assert np.allclose(rdn(ta, tb, "none").real, 0.0, atol=1e-12)

    def test_grid_mismatch(self, two_spin_basis):
        ta = static_trajectory(random_state(two_spin_basis, 1), n_points=3)
        tb = static_trajectory(random_state(two_spin_basis, 1), n_points=4)
        with pytest.raises(DomainError):
            rsp(ta, tb)

    @pytest.mark.parametrize("score", [rsp, rdn])
    def test_basis_mismatch_with_equal_dimension(self, score):
        # spins (2, 3) and (3, 2) both span 36 basis states but different ones
        ta = static_trajectory(random_state(product_basis(
            SpinSystem((Spin("1H", 2), Spin("14N", 3)))), 1))
        tb = static_trajectory(random_state(product_basis(
            SpinSystem((Spin("14N", 3), Spin("1H", 2)))), 1))
        assert ta.basis.dim == tb.basis.dim
        with pytest.raises(DomainError):
            score(ta, tb)

    def test_phase_difference_is_erased_by_sg(self):
        # Lx- and Ly-started trajectories under an offset drift differ only in
        # magnetization phase: ungrouped RSP calls them completely dissimilar
        # (transverse states 90 degrees apart are orthogonal), SG-RSP stays at 1
        system = SpinSystem((Spin("1H", 2, 500.0),))
        basis = product_basis(system)
        controls = ControlSet(
            dt=5e-5, power_hz=1000.0, channels=(("1H", "x"),),
            amplitudes=np.zeros((1, 60)),
        )
        rho_x = normalized_operator_state(basis, spin_operator(system, 0, "x"))
        rho_y = normalized_operator_state(basis, spin_operator(system, 0, "y"))
        ta = propagate(system, controls, rho_x)
        tb = propagate(system, controls, rho_y)
        plain = rsp(ta, tb, "none")
        grouped = rsp(ta, tb, "sg").real
        assert np.max(np.abs(grouped - 1.0)) < 1e-10
        assert np.max(plain.magnitude) < 1e-10


class TestInvolvementReport:
    def test_spectator_spin(self):
        system = SpinSystem((Spin("1H", 2, 100.0), Spin("13C", 2, 0.0)))
        basis = product_basis(system)
        controls = ControlSet(
            dt=1e-4, power_hz=2000.0, channels=(("1H", "x"),),
            amplitudes=np.ones((1, 20)),
        )
        rho0 = normalized_operator_state(basis, spin_operator(system, 0, "z"))
        traj = propagate(system, controls, rho0)
        report = involvement_report(traj, threshold=0.1)
        assert report[1]["max_involvement"] < 1e-9
        assert report[1]["droppable"]
        assert report[0]["max_involvement"] >= 1.0 - 1e-9
        assert not report[0]["droppable"]

    def test_threshold_range(self, two_spin_basis):
        traj = static_trajectory(random_state(two_spin_basis, 2))
        with pytest.raises(DomainError):
            involvement_report(traj, threshold=1.5)
