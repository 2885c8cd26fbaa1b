"""Hamiltonian assembly, Liouville-space superoperators, and propagation.

Input frequencies are in Hz; assembled Hamiltonians carry explicit 2*pi
factors and live in rad/s. States are stored and analysed as coefficient
vectors over the IST Liouville basis, but propagated in Hilbert space: the
system is closed (no relaxation), so exp(-i L_n dt) rho equals
U_n rho U_n^dagger with U_n = exp(-i H_n dt) and
H_n = H0 + sum_k 2*pi*power*c_k[n]*H_k. One batched d x d eigh gives every
U_n; the basis is touched only at the edges, through the per-spin factored
basis map. Memory per propagation is [T, d, d], not [T, D, D] with D = d^2.

For d = 2 (one spin-1/2) numpy's batched eigh and matmul cost about a
microsecond per matrix in call overhead, far more than the arithmetic. There
the eigendecomposition is in closed form and every stacked product is a sum
of two broadcast outer products (`stack_matmul`); larger d uses eigh and @.
The choice follows from the array shape alone.
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
    "stack_matmul",
    "step_unitaries",
    "forward_sweep",
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
        if self.dt <= 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
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


def stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over broadcast stacks of matrices.

    2 x 2 stacks are multiplied as a sum of two broadcast outer products
    (column j of a times row j of b), which are elementwise operations over
    the whole stack instead of one small matmul per matrix.
    """
    if a.shape[-2:] == (2, 2) and b.shape[-2:] == (2, 2):
        out = a[..., :, :1] * b[..., :1, :]
        out += a[..., :, 1:] * b[..., 1:, :]
        return out
    return a @ b


def _eigh_2x2(hams: np.ndarray):
    """Closed-form eigh of a stack of Hermitian 2 x 2 matrices.

    H - mean*I = r (cos t sz + sin t (cos p sx - sin p sy)) with
    t = atan2(|q|, (h00 - h11)/2) and p = arg q for q = h01; the eigenvalues
    are mean -/+ r and the eigenvectors follow from the half angle t/2 and
    e^{ip}. No division, so q = 0 and H = 0 need no special case.
    """
    h00, h11, q = hams[..., 0, 0].real, hams[..., 1, 1].real, hams[..., 0, 1]
    mean, half_gap, abs_q = (h00 + h11) / 2.0, (h00 - h11) / 2.0, np.abs(q)
    r = np.hypot(half_gap, abs_q)
    half_theta = np.arctan2(abs_q, half_gap) / 2.0
    c, s = np.cos(half_theta), np.sin(half_theta)
    phase = np.exp(1j * np.angle(q))
    vecs = np.empty(hams.shape, dtype=complex)
    vecs[..., 0, 0] = -phase * s
    vecs[..., 0, 1] = phase * c
    vecs[..., 1, 0] = c
    vecs[..., 1, 1] = s
    return np.stack([mean - r, mean + r], axis=-1), vecs


def step_unitaries(hams: np.ndarray, dt: float):
    """U_n = exp(-i H_n dt) of a stack of Hermitian H_n by one batched eigh
    (closed form for 2 x 2 stacks).

    Returns (U, eigenvalues, eigenvectors); the gradient reuses the eigenbasis.
    """
    if hams.shape[-2:] == (2, 2):
        evals, vecs = _eigh_2x2(hams)
    else:
        evals, vecs = np.linalg.eigh(hams)
    phases = np.exp(-1j * dt * evals)
    u = stack_matmul(vecs * phases[..., None, :], vecs.conj().swapaxes(-1, -2))
    return u, evals, vecs


def forward_sweep(u: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """States rho_{n+1} = U_n rho_n U_n^dagger for u of shape [..., T, d, d].

    Returns [..., T + 1, d, d] with rho0 at index 0. The costates of the
    gradient, chi_n = U_n^dagger chi_{n+1} U_n, are the same sweep over the
    reversed adjoint unitaries.
    """
    t = u.shape[-3]
    rho = np.empty(u.shape[:-3] + (t + 1,) + u.shape[-2:], dtype=complex)
    rho[..., 0, :, :] = rho0
    u_h = u.conj().swapaxes(-1, -2)
    for n in range(t):
        rho[..., n + 1, :, :] = stack_matmul(
            stack_matmul(u[..., n, :, :], rho[..., n, :, :]), u_h[..., n, :, :]
        )
    return rho


def propagate(
    system: SpinSystem, controls: ControlSet, rho0: StateVector
) -> Trajectory:
    """Propagate rho0 under drift plus piecewise-constant controls."""
    basis = rho0.basis
    if basis.system.multiplicities != system.multiplicities:
        raise DomainError("initial state basis does not match the system")
    d = system.hilbert_dim
    ops = np.reshape(control_operators(system, controls.channels), (-1, d, d))
    weights = TWO_PI * controls.power_hz * controls.amplitudes
    hams = step_hamiltonians(drift_hamiltonian(system), ops, weights)
    u, _, _ = step_unitaries(hams, controls.dt)
    states = basis.coefficients_of(forward_sweep(u, basis.operator_of(rho0.coefficients)))
    states[0] = rho0.coefficients
    times = controls.dt * np.arange(controls.n_steps + 1)
    h = hashlib.sha256(repr(system).encode()).hexdigest()[:16]
    prov = {"system_hash": h, "control_hash": controls.content_hash()}
    return Trajectory(times, states, basis, prov)
