import math
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from spintraj import (
    BasisLabel,
    Spin,
    SpinSystem,
    ist_operator,
    product_basis,
    spin_operator,
)
from spintraj.errors import DomainError


def frob(a):
    return np.linalg.norm(a)


def vectorization_matrix(basis):
    """Dense oracle of the basis map: column i is the row-major vectorization
    of B_i, the Kronecker product of its per-spin tensors (a unitary D x D
    matrix), so coefficients are vec(op) @ U.conj() and operators U @ c."""
    u = np.empty((basis.hilbert_dim ** 2, basis.dim), dtype=complex)
    for i, lab in enumerate(basis.labels):
        u[:, i] = reduce(np.kron, [ist_operator(n, l, m) for n, (l, m)
                                   in zip(basis.system.multiplicities, lab.components)]).ravel()
    return u


class TestIstOperator:
    def test_unit_operator(self):
        t = ist_operator(2, 0, 0)
        assert np.allclose(t, np.eye(2) / np.sqrt(2), atol=1e-14)

    def test_t10_is_normalized_sigma_z(self):
        t = ist_operator(2, 1, 0)
        assert np.allclose(t, np.diag([1, -1]) / np.sqrt(2), atol=1e-14)

    def test_t11_is_minus_raising(self):
        t = ist_operator(2, 1, 1)
        expected = np.zeros((2, 2))
        expected[0, 1] = -1.0
        assert np.allclose(t, expected, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjoint_symmetry(self, n):
        for l in range(n):
            for m in range(-l, l + 1):
                t = ist_operator(n, l, m)
                assert np.allclose(
                    t.conj().T, (-1) ** m * ist_operator(n, l, -m), atol=1e-12
                )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unit_frobenius_norm(self, n):
        for l in range(n):
            for m in range(-l, l + 1):
                assert abs(frob(ist_operator(n, l, m)) - 1.0) < 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(DomainError):
            ist_operator(2, 2, 0)

    def test_projection_out_of_range(self):
        with pytest.raises(DomainError):
            ist_operator(3, 1, 2)


class TestSpinOperator:
    def test_single_spin_half_z(self):
        system = SpinSystem((Spin("1H", 2),))
        assert np.allclose(spin_operator(system, 0, "z"), np.diag([0.5, -0.5]))

    def test_two_spin_kron_embedding(self):
        system = SpinSystem((Spin("1H", 2), Spin("1H", 2)))
        assert np.allclose(
            spin_operator(system, 0, "z"), np.diag([0.5, 0.5, -0.5, -0.5])
        )

    def test_spin_one_z(self):
        system = SpinSystem((Spin("14N", 3),))
        assert np.allclose(spin_operator(system, 0, "z"), np.diag([1.0, 0.0, -1.0]))

    def test_ladder_commutator(self):
        system = SpinSystem((Spin("1H", 2), Spin("13C", 2)))
        sz = spin_operator(system, 1, "z")
        sp = spin_operator(system, 1, "plus")
        assert np.allclose(sz @ sp - sp @ sz, sp, atol=1e-12)

    def test_invalid_index(self):
        system = SpinSystem((Spin("1H", 2),))
        with pytest.raises(DomainError):
            spin_operator(system, 1, "z")


class TestProductBasis:
    def test_single_spin_half_labels(self):
        basis = product_basis(SpinSystem((Spin("1H", 2),)))
        assert [lab.components for lab in basis.labels] == [
            ((0, 0),),
            ((1, -1),),
            ((1, 0),),
            ((1, 1),),
        ]

    def test_two_spin_correlation_counts(self):
        basis = product_basis(SpinSystem((Spin("1H", 2), Spin("1H", 2))))
        counts = Counter(basis.correlation_orders().tolist())
        assert counts == {0: 1, 1: 6, 2: 9}

    def test_spin_one_ranks(self):
        basis = product_basis(SpinSystem((Spin("14N", 3),)))
        assert basis.dim == 9
        assert {lab.components[0][0] for lab in basis.labels} == {0, 1, 2}

    @pytest.mark.parametrize(
        "mults", [(2,), (3,), (2, 2), (2, 3)], ids=lambda m: "x".join(map(str, m))
    )
    def test_orthonormality(self, mults):
        system = SpinSystem(tuple(Spin("s", m) for m in mults))
        basis = product_basis(system)
        u = vectorization_matrix(basis)
        gram = u.conj().T @ u
        assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(42)
        basis = product_basis(SpinSystem((Spin("1H", 2), Spin("14N", 3))))
        d = basis.hilbert_dim
        for _ in range(5):
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            coeffs = basis.coefficients_of(x)
            assert abs(np.sum(np.abs(coeffs) ** 2) - frob(x) ** 2) < 1e-10 * frob(x) ** 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_spin_half_counting_law(self, n):
        system = SpinSystem(tuple(Spin("1H", 2) for _ in range(n)))
        basis = product_basis(system)
        counts = Counter(basis.correlation_orders().tolist())
        for k in range(n + 1):
            assert counts[k] == math.comb(n, k) * 3**k
        assert sum(counts.values()) == 4**n

    def test_grading_exhaustive(self):
        basis = product_basis(SpinSystem((Spin("1H", 2), Spin("14N", 3))))
        corr = Counter(basis.correlation_orders().tolist())
        coh = Counter(basis.coherence_orders().tolist())
        assert sum(corr.values()) == basis.dim
        assert sum(coh.values()) == basis.dim


class TestOrderClassification:
    def test_six_spin_correlation_orders(self):
        unit, nonunit = (0, 0), (1, 1)
        lab = BasisLabel((unit, nonunit, unit, nonunit, unit, unit))
        assert lab.correlation_order() == 2
        lab = BasisLabel((unit, unit, (1, 0), unit, (1, -1), (1, 1)))
        assert lab.correlation_order() == 3
        assert BasisLabel((unit,) * 6).correlation_order() == 0

    def test_six_spin_coherence_orders(self):
        unit = (0, 0)
        lab = BasisLabel(((1, 0), unit, (1, 1), unit, unit, unit))
        assert lab.coherence_order() == 1
        lab = BasisLabel((unit, (2, 2), unit, unit, (1, -1), (1, 1)))
        assert lab.coherence_order() == 2
        lab = BasisLabel((unit, unit, (2, 0), unit, unit, unit))
        assert lab.coherence_order() == 0
