"""Irreducible spherical tensor operators and the labeled product basis.

Single-spin tensors T(l, m) are normalized to unit Frobenius norm and follow
the Condon-Shortley phase convention, with the top state taken as
T(l, l) = (-1)^l (S+)^l / ||(S+)^l|| and lower projections generated by the
commutator lowering recursion. The multi-spin basis is the Kronecker product
of per-spin tensors, spin 0 leftmost, labels ordered lexicographically over
per-spin (l, m) with m ascending within each rank. Basis changes contract
each spin's axes with its own n^2 tensors in turn (the Kronecker matrix-vector
product, Van Loan 2000): O(D sum_k n_k^2) time and no D x D matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError
from .system import SpinSystem

__all__ = [
    "BasisLabel",
    "ProductBasis",
    "angular_momentum",
    "ist_operator",
    "spin_operator",
    "product_basis",
]


@lru_cache(maxsize=None)
def angular_momentum(multiplicity: int, which: str) -> np.ndarray:
    """Single-spin angular momentum matrix for s = (multiplicity - 1)/2.

    which: one of "x", "y", "z", "plus", "minus", "e" (identity).
    """
    if multiplicity < 2:
        raise DomainError(f"multiplicity must be >= 2, got {multiplicity}")
    s = (multiplicity - 1) / 2.0
    m = s - np.arange(multiplicity)  # descending projections s .. -s
    if which == "z":
        out = np.diag(m).astype(complex)
    elif which == "e":
        out = np.eye(multiplicity, dtype=complex)
    elif which in ("plus", "minus", "x", "y"):
        # S+ |s, m> = sqrt(s(s+1) - m(m+1)) |s, m+1>
        ladder = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
        sp = np.zeros((multiplicity, multiplicity), dtype=complex)
        sp[np.arange(multiplicity - 1), np.arange(1, multiplicity)] = ladder
        if which == "plus":
            out = sp
        elif which == "minus":
            out = sp.conj().T
        elif which == "x":
            out = (sp + sp.conj().T) / 2.0
        else:
            out = (sp - sp.conj().T) / 2.0j
    else:
        raise DomainError(f"unknown operator kind {which!r}")
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def ist_operator(multiplicity: int, l: int, m: int) -> np.ndarray:
    """Unit-Frobenius-norm irreducible spherical tensor T(l, m) of one spin."""
    if not 0 <= l <= multiplicity - 1:
        raise DomainError(
            f"rank l={l} out of range for multiplicity {multiplicity}"
        )
    if abs(m) > l:
        raise DomainError(f"projection m={m} out of range for rank l={l}")
    sp = angular_momentum(multiplicity, "plus")
    sm = angular_momentum(multiplicity, "minus")
    top = np.linalg.matrix_power(sp, l)
    t = ((-1) ** l) * top / np.linalg.norm(top)
    for mm in range(l, m, -1):
        # T(l, m-1) = [S-, T(l, m)] / sqrt(l(l+1) - m(m-1))
        t = (sm @ t - t @ sm) / math.sqrt(l * (l + 1) - mm * (mm - 1))
    t.setflags(write=False)
    return t


def spin_operator(system: SpinSystem, spin: int, which: str) -> np.ndarray:
    """Hilbert-space operator of one spin embedded by Kronecker products with identities."""
    if not 0 <= spin < system.n_spins:
        raise DomainError(f"spin index {spin} out of range")
    return reduce(np.kron, [angular_momentum(s.multiplicity, which if k == spin else "e")
                            for k, s in enumerate(system.spins)], np.ones((1, 1), complex))


@dataclass(frozen=True)
class BasisLabel:
    """Per-spin (l, m) labels of one product basis state."""

    components: tuple[tuple[int, int], ...]

    def correlation_order(self) -> int:
        """Number of non-unit single-spin factors in the label."""
        return sum(1 for (l, _) in self.components if l > 0)

    def coherence_order(self) -> int:
        """Sum of projection quantum numbers over the label."""
        return sum(m for (_, m) in self.components)

    def __str__(self) -> str:
        return "".join(f"({l},{m})" for (l, m) in self.components)


class ProductBasis:
    """The labeled, orthonormal spherical-tensor product basis of a spin system."""

    def __init__(self, system: SpinSystem):
        self.system = system
        per_spin = [
            [(l, m) for l in range(n) for m in range(-l, l + 1)]
            for n in system.multiplicities
        ]
        self.labels: tuple[BasisLabel, ...] = tuple(
            BasisLabel(combo) for combo in itertools.product(*per_spin)
        )
        self.index: dict[tuple[tuple[int, int], ...], int] = {
            lab.components: i for i, lab in enumerate(self.labels)
        }
        # per spin, the [n, n, n^2] stack of its T(l, m) in label order
        self._tensors = [np.stack([ist_operator(n, l, m) for l, m in labels], axis=-1)
                         for n, labels in zip(system.multiplicities, per_spin)]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def hilbert_dim(self) -> int:
        return self.system.hilbert_dim

    def coefficients_of(self, op: np.ndarray) -> np.ndarray:
        """Expansion coefficients c_i = Tr(B_i^dagger op) of one operator or a stack."""
        d, mults = self.hilbert_dim, self.system.multiplicities
        if op.shape[-2:] != (d, d):
            raise DomainError(
                f"operator shape {op.shape} does not match Hilbert dimension {d}"
            )
        x = op.reshape((-1,) + mults + mults)
        for k, t in enumerate(self._tensors):  # spin k's row and column axes -> its labels, last
            x = np.tensordot(x, t.conj(), ([1, 1 + len(mults) - k], [0, 1]))
        return x.reshape(op.shape[:-2] + (self.dim,))

    def operator_of(self, coefficients: np.ndarray) -> np.ndarray:
        """Hilbert-space operator sum_i c_i B_i of a coefficient vector (or a stack)."""
        x = coefficients.reshape((-1,) + tuple(n * n for n in self.system.multiplicities))
        for t in self._tensors:  # each spin's label axis -> its row and column axes, last
            x = np.tensordot(x, t, ([1], [2]))
        x = x.transpose(0, *range(1, x.ndim, 2), *range(2, x.ndim, 2))
        return x.reshape(coefficients.shape[:-1] + (self.hilbert_dim,) * 2)

    def local_coefficients(self, spin: int, which) -> np.ndarray:
        """Coefficients of one spin's operator, with identities on the other spins.

        `which` is (l, m) for T(l, m), or "x", "y" or "z" for the Cartesian S,
        which is the sum of its rank-1 terms Tr(T(1, m)^dagger S) T(1, m). The
        basis state with (l, m) on `spin` and (0, 0) elsewhere is T(l, m) times
        E/sqrt(n_j) on every other spin j, so each term is that one basis
        vector scaled by prod_{j != spin} sqrt(n_j); no Hilbert-space matrix
        is built.
        """
        mults = self.system.multiplicities
        if not 0 <= spin < len(mults):
            raise DomainError(f"spin index {spin} out of range")
        n = mults[spin]
        if isinstance(which, str):
            s = angular_momentum(n, which)
            terms = [((1, m), np.vdot(ist_operator(n, 1, m), s)) for m in (-1, 0, 1)]
        else:
            ist_operator(n, *which)  # range-checks l and m
            terms = [(which, 1.0)]
        unit = ((0, 0),) * len(mults)
        out = np.zeros(self.dim, dtype=complex)
        for lm, c in terms:
            out[self.index[unit[:spin] + (lm,) + unit[spin + 1:]]] = c
        return math.sqrt(math.prod(mults) // n) * out

    def correlation_orders(self) -> np.ndarray:
        return np.array([lab.correlation_order() for lab in self.labels])

    def coherence_orders(self) -> np.ndarray:
        return np.array([lab.coherence_order() for lab in self.labels])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProductBasis)
            and self.system.multiplicities == other.system.multiplicities
        )


def product_basis(system: SpinSystem) -> ProductBasis:
    """Build the labeled product basis of a system."""
    return ProductBasis(system)
