"""Hamiltonian assembly, Liouville-space superoperators, and propagation.

Input frequencies are in Hz; assembled Hamiltonians carry explicit 2*pi
factors and live in rad/s. States are stored and analysed as coefficient
vectors over the IST Liouville basis, but propagated in Hilbert space: the
system is closed (no relaxation), so exp(-i L_n dt) rho equals
U_n rho U_n^dagger with U_n = exp(-i H_n dt) and
H_n = H0 + sum_k 2*pi*power*c_k[n]*H_k. `propagate` and the optimizer share
one core, the prefix products P_n = U_{n-1} ... U_0 (one product per step),
from which all states rho_n = P_n rho_0 P_n^dagger are formed at once. The
basis is touched only at the edges, through the per-spin factored basis map.
Memory per propagation is [T, d, d], not [T, D, D] with D = d^2.

For d > 2 one batched eigh gives every U_n and products are numpy @. For one
spin-1/2, where numpy's per-matrix overhead would exceed the arithmetic, each
step is an SU(2) rotation in Cayley-Klein form (Counsell, Levitt & Ernst,
JMR 63 (1985) 133) in closed form, one [T, M] array per component. The
choice follows from the array shape alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .system import SpinSystem
from .tensors import ProductBasis, spin_operator

__all__ = [
    "StateVector",
    "ControlSet",
    "Trajectory",
    "drift_hamiltonian",
    "control_operators",
    "commutation_superoperator",
    "step_hamiltonians",
    "prefix_products",
    "propagate",
]

TWO_PI = 2.0 * np.pi


@dataclass
class StateVector:
    """Complex coefficient vector over a ProductBasis."""

    coefficients: np.ndarray
    basis: ProductBasis

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.shape != (self.basis.dim,):
            raise DomainError(
                f"coefficient vector of length {self.coefficients.shape} does not "
                f"match basis dimension {self.basis.dim}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


@dataclass
class ControlSet:
    """Piecewise-constant control amplitudes on a uniform time grid.

    Amplitudes are dimensionless multipliers of the nominal power (peak
    nutation frequency in Hz); shape is [n_channels, n_steps].
    """

    dt: float
    power_hz: float
    channels: tuple[tuple[str, str], ...]  # (isotope, axis) with axis in {x, y}
    amplitudes: np.ndarray

    def __post_init__(self):
        self.channels = tuple((iso, ax) for iso, ax in self.channels)
        self.amplitudes = np.atleast_2d(np.asarray(self.amplitudes, dtype=float))
        if not 0 < self.dt < np.inf:
            raise DomainError(f"dt must be positive and finite, got {self.dt}")
        if not np.isfinite(self.power_hz):
            raise DomainError(f"power_hz must be finite, got {self.power_hz}")
        for iso, ax in self.channels:
            if ax not in ("x", "y"):
                raise DomainError(f"channel axis must be x or y, got {ax!r}")
        if self.amplitudes.shape[0] != len(self.channels):
            raise DomainError(
                f"amplitude matrix has {self.amplitudes.shape[0]} rows for "
                f"{len(self.channels)} channels"
            )
        if self.amplitudes.shape[1] < 1:
            raise DomainError("n_steps must be >= 1")
        if not np.all(np.isfinite(self.amplitudes)):
            raise NumericError("control amplitudes must be finite")

    @property
    def n_steps(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def xy_pairs(self) -> tuple[tuple[int, int], ...]:
        """Indices of (x, y) channel pairs per isotope; error if unpaired."""
        by_iso: dict[str, dict[str, int]] = {}
        for k, (iso, ax) in enumerate(self.channels):
            if ax in by_iso.setdefault(iso, {}):
                raise DomainError(f"duplicate channel ({iso}, {ax})")
            by_iso[iso][ax] = k
        pairs = []
        for iso, axes in by_iso.items():
            if set(axes) != {"x", "y"}:
                raise DomainError(f"isotope {iso!r} lacks a full x/y channel pair")
            pairs.append((axes["x"], axes["y"]))
        return tuple(pairs)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.dt, self.power_hz, self.channels)).encode())
        h.update(np.ascontiguousarray(self.amplitudes).tobytes())
        return h.hexdigest()[:16]


@dataclass
class Trajectory:
    """Time-ordered Liouville-space states: row n of `states` is rho(t_n)."""

    times: np.ndarray
    states: np.ndarray  # complex, shape [n_steps + 1, D]
    basis: ProductBasis
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.ndim != 2 or self.states.shape[0] != self.times.shape[0]:
            raise DomainError("times and states disagree in length")
        if self.states.shape[1] != self.basis.dim:
            raise DomainError("state width does not match basis dimension")

    @property
    def n_points(self) -> int:
        return self.times.shape[0]


def drift_hamiltonian(system: SpinSystem) -> np.ndarray:
    """Hilbert-space drift Hamiltonian in rad/s: Zeeman offsets, J couplings, quadrupoles."""
    d = system.hilbert_dim
    h = np.zeros((d, d), dtype=complex)
    for k, s in enumerate(system.spins):
        if s.offset != 0.0:
            h += TWO_PI * s.offset * spin_operator(system, k, "z")
    for c in system.couplings:
        model = system.coupling_model(c)
        zz = spin_operator(system, c.i, "z") @ spin_operator(system, c.j, "z")
        if model == "weak":
            h += TWO_PI * c.j_hz * zz
        else:
            xx = spin_operator(system, c.i, "x") @ spin_operator(system, c.j, "x")
            yy = spin_operator(system, c.i, "y") @ spin_operator(system, c.j, "y")
            h += TWO_PI * c.j_hz * (xx + yy + zz)
    for q in system.quadrupolar:
        sx = spin_operator(system, q.spin, "x")
        sy = spin_operator(system, q.spin, "y")
        sz = spin_operator(system, q.spin, "z")
        s2 = sx @ sx + sy @ sy + sz @ sz
        h += (TWO_PI * q.omega_q / 3.0) * (
            (3.0 * sz @ sz - s2) + q.eta * (sx @ sx - sy @ sy)
        )
    return h


def control_operators(
    system: SpinSystem, channels: tuple[tuple[str, str], ...]
) -> list[np.ndarray]:
    """Isotope-wide control operators: sum of S_x (or S_y) over the isotope's spins."""
    ops = []
    for iso, ax in channels:
        if ax not in ("x", "y"):
            raise DomainError(f"channel axis must be x or y, got {ax!r}")
        idx = system.spins_of_isotope(iso)
        op = sum(spin_operator(system, k, ax) for k in idx)
        ops.append(op)
    return ops


def commutation_superoperator(h: np.ndarray, basis: ProductBasis) -> np.ndarray:
    """Superoperator of rho -> [H, rho] expressed in the IST product basis."""
    d = basis.hilbert_dim
    if h.shape != (d, d):
        raise DomainError(
            f"Hamiltonian shape {h.shape} does not match Hilbert dimension {d}"
        )
    b = basis.operator_of(np.eye(basis.dim))  # [D, d, d] basis matrices
    return basis.coefficients_of(h @ b - b @ h).T


def step_hamiltonians(
    drift: np.ndarray, ops: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Per-step Hamiltonians H_n = H0 + sum_k w_k[n] H_k, batched over leading axes.

    drift [..., d, d], ops [K, d, d], weights [..., K, T] in rad/s; returns
    [..., T, d, d].
    """
    return drift[..., None, :, :] + np.einsum("...kn,kij->...nij", weights, ops)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def prefix_products(
    drift: np.ndarray, ops: np.ndarray, w: np.ndarray, amplitudes: np.ndarray, dt: float
):
    """Prefix products P_n = U_{n-1} ... U_0 (P_0 = I) of the step unitaries
    U_n = exp(-i dt H_n), H_n = H0_m + w_m sum_k c_k[n] H_k, for M members.

    drift [M, d, d] and ops [K, d, d] in rad/s, w [M] per unit amplitude,
    amplitudes [K, T]. One spin-1/2 takes the SU(2) path, larger d the eigh
    path; the choice follows from the array shape alone.
    """
    path = _SU2Prefix if drift.shape[-1] == 2 else _EighPrefix
    return path(drift, ops, w, amplitudes, dt)


class _EighPrefix:
    """U_n from one batched eigh of the [M, T, d, d] step Hamiltonians; P_n by @."""

    def __init__(self, drift, ops, w, amplitudes, dt):
        self.ops, self.w, self.dt = ops, w, dt
        hams = step_hamiltonians(drift, ops, w[:, None, None] * amplitudes)
        self.evals, self.vecs = np.linalg.eigh(hams)
        u = (self.vecs * np.exp(-1j * dt * self.evals)[..., None, :]) @ dagger(self.vecs)
        m, t, d = u.shape[:3]
        self.products = np.empty((m, t + 1, d, d), dtype=complex)
        self.products[:, 0] = np.eye(d)
        for n in range(t):
            np.matmul(u[:, n], self.products[:, n], out=self.products[:, n + 1])
        self.final = self.products[:, -1]

    def matrices(self) -> np.ndarray:
        """[M, T + 1, d, d]."""
        return self.products

    def control_gradient(self, k0: np.ndarray) -> np.ndarray:
        """dt w_m Tr(H_k Y_mn) [M, K, T] for traceless Hermitian k0 [M, d, d]: Y_mn is
        the mean over s in [0, 1] of e^{-is dt H_n} K_n e^{is dt H_n} and
        K_n = P_n k0 P_n^dagger. In the eigenbasis of H_n the mean multiplies
        entry jk by exp(-i x/2) sinc(x/2 pi), x = dt (l_j - l_k): finite for
        degenerate eigenvalues without a special case."""
        vp = dagger(self.vecs) @ self.products[:, :-1]
        lam = self.dt * self.evals
        half = np.exp(-0.5j * lam)
        gap = (lam[..., :, None] - lam[..., None, :]) / (2.0 * np.pi)
        mean = half[..., :, None] * half.conj()[..., None, :] * np.sinc(gap)
        y = self.vecs @ (mean * (vp @ k0[:, None] @ dagger(vp))) @ dagger(self.vecs)
        raw = np.einsum("kij,mnji->mkn", self.ops, y).real
        return self.dt * self.w[:, None, None] * raw


def _su2_parts(h: np.ndarray):
    """(h_z, q) of the traceless part [[h_z, q], [q*, -h_z]] of Hermitian 2 x 2 h."""
    return (h[..., 0, 0] - h[..., 1, 1]).real / 2.0, h[..., 0, 1]


def _su2_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[[a, -b*], [b, a*]] stacked over the trailing axes."""
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


class _SU2Prefix:
    """One spin-1/2 as SU(2) rotations on component-major [T, M] arrays.

    The trace of H_n is a global phase, which U rho U^dagger does not see. With
    H_n - tr/2 = [[h_z, q], [q*, -h_z]], r = |(h_z, q)| and th = r dt, U_n is
    the Cayley-Klein pair a = cos(th) - i s h_z, b = -i s q*, s = dt sinc(th/pi),
    with no eigendecomposition. P_n is kept as its first column (A_n, B_n), so
    a step is four complex products per member.
    """

    def __init__(self, drift, ops, w, amplitudes, dt):
        self.w, self.dt = w, dt
        self.op_z, self.op_q = _su2_parts(ops)
        h_z, q = _su2_parts(drift)
        self.h_z = h_z + np.outer(amplitudes.T @ self.op_z, w)
        self.q = q + np.outer(amplitudes.T @ self.op_q, w)
        self.r2 = self.h_z**2 + self.q.real**2 + self.q.imag**2
        theta = dt * np.sqrt(self.r2)
        self.cos = np.cos(theta)
        self.sinc = np.divide(np.sin(theta), theta, out=np.ones_like(theta), where=theta > 0)
        s = dt * self.sinc
        t, m = theta.shape
        # u[n, j] is column j of U_n: (a, b) and (-b*, a*), with b = -i s q*
        u = np.empty((t, 2, 2, m), dtype=complex)
        u[:, 0, 0] = self.cos - 1j * (s * self.h_z)
        u[:, 0, 1] = -s * (self.q.imag + 1j * self.q.real)
        u[:, 1] = u[:, 0, ::-1].conj()
        u[:, 1, 0] *= -1.0
        self.columns = np.empty((t + 1, 2, m), dtype=complex)  # (A_n, B_n)
        self.columns[0, 0], self.columns[0, 1] = 1.0, 0.0
        for n in range(t):
            np.multiply(u[n, 0], self.columns[n, 0], out=self.columns[n + 1])
            self.columns[n + 1] += u[n, 1] * self.columns[n, 1]
        self.final = _su2_matrix(*self.columns[-1])

    def matrices(self) -> np.ndarray:
        """[M, T + 1, 2, 2]."""
        return _su2_matrix(self.columns[:, 0].T, self.columns[:, 1].T)

    def control_gradient(self, k0: np.ndarray) -> np.ndarray:
        """As _EighPrefix.control_gradient. Traceless Hermitian matrices are
        Bloch vectors, kept as (z, q): K_n = P_n k0 P_n^dagger is k0 rotated,
        and the mean of its rotation about h by angle 2 th u over u in [0, 1]
        is sinc(2 th/pi) K + (1 - sinc(2 th/pi)) (h.K) h / r^2
        + dt sinc(th/pi)^2 h x K."""
        kz0, kq0 = _su2_parts(k0)
        a, b = self.columns[:-1, 0], self.columns[:-1, 1]
        kz = (a.real**2 + a.imag**2 - b.real**2 - b.imag**2) * kz0 - 2.0 * (a * b * kq0).real
        kq = a * a * kq0 - b.conj() ** 2 * kq0.conj() + 2.0 * a * b.conj() * kz0
        sinc2 = self.cos * self.sinc
        along = np.divide(1.0 - sinc2, self.r2, out=np.zeros_like(self.r2), where=self.r2 > 0)
        along *= kz * self.h_z + (kq * self.q.conj()).real
        cross = self.dt * self.sinc**2
        yz = sinc2 * kz + along * self.h_z + cross * (self.q * kq.conj()).imag
        yq = sinc2 * kq + along * self.q + 1j * cross * (kz * self.q - self.h_z * kq)
        # Tr(H_k Y) = 2 (op_z y_z + Re(op_q y_q*)) for Hermitian H_k
        ops = 2.0 * self.dt * np.stack([self.op_z, self.op_q.real, self.op_q.imag])
        raw = np.tensordot(ops, np.stack([yz, yq.real, yq.imag]), axes=(0, 0))
        return (raw * self.w).transpose(2, 0, 1)


def propagate(
    system: SpinSystem, controls: ControlSet, rho0: StateVector
) -> Trajectory:
    """Propagate rho0 under drift plus piecewise-constant controls."""
    basis = rho0.basis
    if basis.system.multiplicities != system.multiplicities:
        raise DomainError("initial state basis does not match the system")
    d = system.hilbert_dim
    ops = np.reshape(control_operators(system, controls.channels), (-1, d, d))
    drift, w = drift_hamiltonian(system)[None], np.array([TWO_PI * controls.power_hz])
    p = prefix_products(drift, ops, w, controls.amplitudes, controls.dt).matrices()[0]
    rho = basis.operator_of(rho0.coefficients)
    states = basis.coefficients_of(p @ rho @ dagger(p))
    states[0] = rho0.coefficients
    times = controls.dt * np.arange(controls.n_steps + 1)
    h = hashlib.sha256(repr(system).encode()).hexdigest()[:16]
    prov = {"system_hash": h, "control_hash": controls.content_hash()}
    return Trajectory(times, states, basis, prov)
