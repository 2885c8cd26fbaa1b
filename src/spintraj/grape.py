"""Gradient-ascent optimization of piecewise-constant control pulses.

The objective is the real state-transfer overlap Re<target|rho(T)>, averaged
over an ensemble of offset shifts and control-power scalings. rho0 and target
are given in the IST Liouville basis; the optimizer maps them to d x d
matrices once, through ProductBasis's per-spin factored map, and works on
them in the engine's Hilbert-space core, which holds because the system is
closed. Each evaluation forms the prefix products P_n = U_{n-1} ... U_0 of
the [M, T] step unitaries (M members, T steps) once; the fidelity needs only
P_T. The costates need no backward sweep: with chi_0 = P_T^dagger target P_T
they are chi_n = P_n chi_0 P_n^dagger, so the gradient's
S_n = rho_n chi_n^dagger + rho_n^dagger chi_n is P_n S_0 P_n^dagger. Gradients
are exact (de Fouquieres, Schirmer, Glaser & Kuprov, JMR 212 (2011) 412): a
step contributes Re Tr(dU_n U_n^dagger S_{n+1}) (the density-matrix GRAPE of
Khaneja et al., JMR 172 (2005) 296), and dU_n U_n^dagger is the mean over the
step of the control operator rotated by the partial step. For d > 2 that mean
is taken in the eigenbasis of H_n, where it multiplies entry jk by
exp(-i x/2) sinc(x/2 pi) with x = dt (l_j - l_k), finite for degenerate
eigenvalues without a special case. For one spin-1/2 it is the mean of a
rotation of Bloch vectors, in closed form on the engine's SU(2) arrays, as in
broadband pulse design (Kobzar et al., JMR 170 (2004) 236). Both are tested
against the Liouville-space augmented block-triangular exponential,
method="augmented". Ascent is quasi-Newton (L-BFGS, memory 10) with a strong
Wolfe line search. Phase-only pulses optimize one phase phi per x/y channel
pair and step, with unit amplitudes (cx, cy) = (cos phi, sin phi), so the
amplitude gradient (gx, gy) pulls back to dF/dphi = cx gy - cy gx.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (
    TWO_PI,
    ControlSet,
    StateVector,
    commutation_superoperator,
    control_operators,
    dagger,
    drift_hamiltonian,
    prefix_products,
)
from .errors import DomainError, NumericError
from .system import SpinSystem

__all__ = [
    "Ensemble",
    "ControlProblem",
    "OptimizationReport",
    "ensemble_fidelity",
    "grape_gradient",
    "optimize",
]


@dataclass(frozen=True)
class Ensemble:
    """Robustness ensemble: offset shifts (Hz) applied to one isotope's spins
    crossed with dimensionless control-power scale factors."""

    offsets: tuple[float, ...] = (0.0,)
    power_scales: tuple[float, ...] = (1.0,)
    isotope: str | None = None  # None shifts every spin

    def __post_init__(self):
        if not self.offsets or not self.power_scales:
            raise DomainError("ensemble lists must be non-empty")
        object.__setattr__(self, "offsets", tuple(float(o) for o in self.offsets))
        object.__setattr__(
            self, "power_scales", tuple(float(s) for s in self.power_scales)
        )

    @property
    def members(self) -> list[tuple[float, float]]:
        return [(o, s) for o in self.offsets for s in self.power_scales]


@dataclass
class ControlProblem:
    """A state-transfer pulse design problem."""

    system: SpinSystem
    rho0: StateVector
    target: StateVector
    controls: ControlSet
    parametrization: str = "amplitudes"  # or "phases"
    ensemble: Ensemble = field(default_factory=Ensemble)
    power_penalty: float = 0.0
    max_iterations: int = 1000
    tolerance: float = 1e-6
    seed: int | None = None
    fidelity_stop: float | None = None

    def __post_init__(self):
        if self.parametrization not in ("amplitudes", "phases"):
            raise DomainError(f"unknown parametrization {self.parametrization!r}")
        for name, sv in (("rho0", self.rho0), ("target", self.target)):
            if sv.basis.system.multiplicities != self.system.multiplicities:
                raise DomainError(f"{name} basis does not match the system")
            if abs(sv.norm - 1.0) > 1e-9:
                raise DomainError(f"{name} must have unit norm, got {sv.norm}")
        if self.ensemble.isotope is not None:
            self.system.spins_of_isotope(self.ensemble.isotope)  # raises if none
        if min(self.power_penalty, self.tolerance) < 0:
            raise DomainError("power_penalty and tolerance must be nonnegative")
        if self.power_penalty > 0 and self.parametrization == "phases":
            raise DomainError(
                "power_penalty applies to amplitudes; phase-only pulses have a "
                "fixed power, so use parametrization: amplitudes or power_penalty: 0"
            )


@dataclass
class OptimizationReport:
    final_fidelity: float
    per_member_fidelities: list[float]
    iterations: int
    gradient_norm_history: list[float]
    fidelity_history: list[float]
    controls: ControlSet
    evaluations: int  # fidelity+gradient evaluations computed
    status: str = "converged"
    message: str = ""


class _EnsembleWorkspace:
    """Member drift Hamiltonians, control operators, and rho0/target as d x d matrices."""

    def __init__(self, problem: ControlProblem, controls: ControlSet):
        self.dt = controls.dt
        sys, ens = problem.system, problem.ensemble
        d = sys.hilbert_dim
        self.ops = np.reshape(control_operators(sys, controls.channels), (-1, d, d))
        drift_by_offset = {
            off: drift_hamiltonian(sys.with_offset_shift(off, ens.isotope))
            for off in ens.offsets
        }
        self.h0 = np.stack([drift_by_offset[o] for (o, _) in ens.members])
        self.w = TWO_PI * controls.power_hz * np.array([s for (_, s) in ens.members])
        basis = problem.rho0.basis
        self.rho0 = basis.operator_of(problem.rho0.coefficients)
        self.target = basis.operator_of(problem.target.coefficients)

    def _forward(self, amplitudes: np.ndarray):
        """Per-member fidelities Re Tr(target^dagger rho_T) and the prefix products."""
        core = prefix_products(self.h0, self.ops, self.w, amplitudes, self.dt)
        rho_t = core.final @ self.rho0 @ dagger(core.final)
        return np.real(np.einsum("ij,mij->m", self.target.conj(), rho_t)), core

    def mean_fidelity_and_gradient(self, amplitudes: np.ndarray):
        per, core = self._forward(amplitudes)
        # With chi_0 = P_T^dagger target P_T, the states and costates are
        # rho_n = P_n rho0 P_n^dagger and chi_n = P_n chi_0 P_n^dagger, so
        # S_n = rho_n chi_n^dagger + rho_n^dagger chi_n = P_n S_0 P_n^dagger
        # (both terms: rho0 and target need not be Hermitian). A step's
        # derivative is Re Tr(dU_n U_n^dagger S_{n+1}); dU_n U_n^dagger is
        # anti-Hermitian, so only the anti-Hermitian part of S_0 counts (it is
        # traceless: Tr S_0 = 2 Re Tr(rho0 chi_0^dagger) is real).
        chi0 = dagger(core.final) @ self.target @ core.final
        s0 = self.rho0 @ dagger(chi0) + dagger(self.rho0) @ chi0
        grad = core.control_gradient((s0 - dagger(s0)) / 2j)
        if not np.all(np.isfinite(grad)):
            raise NumericError("non-finite gradient encountered")
        return float(per.mean()), per, grad.mean(axis=0)


def ensemble_fidelity(problem: ControlProblem, controls: ControlSet) -> dict:
    """Unweighted mean and per-member fidelities over the robustness ensemble."""
    per = _EnsembleWorkspace(problem, controls)._forward(controls.amplitudes)[0]
    return {"mean": float(per.mean()), "per_member": per.tolist()}


def grape_gradient(
    problem: ControlProblem, controls: ControlSet, method: str = "exact"
) -> np.ndarray:
    """Gradient of the ensemble-mean fidelity w.r.t. every control amplitude.

    method "exact" uses the eigenbasis Frechet derivative of the Hilbert-space
    step unitaries; "augmented" is the independent Liouville-space reference
    that tests compare against.
    """
    if method == "exact":
        ws = _EnsembleWorkspace(problem, controls)
        _, _, grad = ws.mean_fidelity_and_gradient(controls.amplitudes)
        return grad
    if method == "augmented":
        return _augmented_gradient(problem, controls)
    raise DomainError(f"unknown gradient method {method!r}")


def _augmented_gradient(problem: ControlProblem, controls: ControlSet) -> np.ndarray:
    """Liouville-space gradient: every step propagator exp(A) and its directional
    derivative from one block-triangular augmented exponential
    [[A, E], [0, A]] (Goodwin & Kuprov, JCP 143 (2015) 084113)."""
    import scipy.linalg
    basis = problem.rho0.basis
    sys, ens = problem.system, problem.ensemble
    ops = control_operators(sys, controls.channels)
    c_supers = [commutation_superoperator(c, basis) for c in ops]
    d, n_ch, t = basis.dim, controls.n_channels, controls.n_steps
    grad = np.zeros((len(ens.members), n_ch, t))
    for m, (off, scale) in enumerate(ens.members):
        shifted = sys.with_offset_shift(off, ens.isotope)
        l0 = commutation_superoperator(drift_hamiltonian(shifted), basis)
        w = TWO_PI * controls.power_hz * scale
        rho, props, dprops = [problem.rho0.coefficients], [], []
        for n in range(t):
            gen = l0 + sum(w * controls.amplitudes[k, n] * c_supers[k] for k in range(n_ch))
            block = np.zeros((2 * d, 2 * d), dtype=complex)
            block[:d, :d] = block[d:, d:] = -1j * controls.dt * gen
            du = []
            for k in range(n_ch):
                block[:d, d:] = -1j * controls.dt * w * c_supers[k]
                du.append(scipy.linalg.expm(block)[:d, d:])
            props.append(scipy.linalg.expm(block[:d, :d]))
            dprops.append(du)
            rho.append(props[n] @ rho[n])
        chi = problem.target.coefficients
        for n in range(t - 1, -1, -1):
            for k in range(n_ch):
                grad[m, k, n] = np.real(np.vdot(chi, dprops[n][k] @ rho[n]))
            chi = props[n].conj().T @ chi
    return grad.mean(axis=0)


class _StopAtFidelity(Exception):
    pass


def _start_variables(problem: ControlProblem, kx, ky) -> np.ndarray:
    """Uniform random when the problem has a seed, else its own controls: one row
    per channel, or for phases one per x/y channel pair (x rows kx, y rows ky)."""
    c = problem.controls
    rng = None if problem.seed is None else np.random.default_rng(problem.seed)
    if problem.parametrization == "amplitudes":
        x = c.amplitudes if rng is None else rng.uniform(-0.1, 0.1, c.amplitudes.shape)
    elif rng is None:
        x = np.arctan2(c.amplitudes[ky], c.amplitudes[kx])
    else:
        x = rng.uniform(0.0, 2.0 * np.pi, (len(kx), c.n_steps))
    return x.flatten()


def optimize(problem: ControlProblem) -> OptimizationReport:
    """Maximize the ensemble-mean fidelity by L-BFGS ascent; never raises on
    line-search failure (returns the best controls seen with a status flag)."""
    import scipy.optimize  # on first use: commands that never optimize do not load scipy
    c0 = problem.controls
    ws = _EnsembleWorkspace(problem, c0)
    phases_mode = problem.parametrization == "phases"
    kx, ky = np.transpose(c0.xy_pairs()) if phases_mode else (None, None)
    x0 = _start_variables(problem, kx, ky)
    lam = problem.power_penalty

    def to_amplitudes(x: np.ndarray) -> np.ndarray:
        if not phases_mode:
            return x.reshape(c0.amplitudes.shape)
        cx, cy = np.cos(x).reshape(len(kx), -1), np.sin(x).reshape(len(kx), -1)
        r = np.hypot(cx, cy)  # pin sqrt(cx^2 + cy^2) to 1 exactly
        amps = np.zeros(c0.amplitudes.shape)
        amps[kx], amps[ky] = cx / r, cy / r
        return amps

    best = {"obj": np.inf}  # lowest objective over every evaluated point
    latest: dict = {}  # the point evaluated last, with its gradient and fidelity
    fid_history: list[float] = []
    grad_history: list[float] = []
    evaluations = 0

    def objective(x: np.ndarray):
        nonlocal evaluations
        amps = to_amplitudes(x)
        fid, per, grad_amp = ws.mean_fidelity_and_gradient(amps)
        evaluations += 1
        obj = -fid
        if lam > 0.0:
            obj += lam * float(np.sum(amps**2))
            grad_amp = grad_amp - 2.0 * lam * amps
        if phases_mode:  # d(cx, cy)/dphi = (-cy, cx) on the unit circle
            grad_amp = amps[kx] * grad_amp[ky] - amps[ky] * grad_amp[kx]
        grad = -grad_amp.ravel()
        latest.update(x=x.copy(), grad=grad, fid=fid)
        if not fid_history:  # minimize evaluates the start point first
            fid_history.append(fid)
        if obj < best["obj"]:
            best.update(obj=obj, x=x.copy(), fid=fid, per=per)
        return obj, grad

    def callback(xk: np.ndarray):
        # L-BFGS-B reports the point it has just evaluated; anything else is
        # evaluated here so the histories stay exact
        if not np.array_equal(xk, latest["x"]):
            objective(xk)
        fid_history.append(latest["fid"])
        grad_history.append(float(np.max(np.abs(latest["grad"]))))
        if problem.fidelity_stop is not None and latest["fid"] >= problem.fidelity_stop:
            raise _StopAtFidelity

    try:
        res = scipy.optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            callback=callback,
            options={
                "maxcor": 10,
                "maxiter": problem.max_iterations,
                "gtol": problem.tolerance,
                "ftol": 1e-14,
            },
        )
        iterations = int(res.nit)
        message = str(res.message)
        # L-BFGS-B: 0 converged, 1 iteration or evaluation limit, 2 line search failed
        status = ("converged", "not_converged", "line_search_failure")[res.status]
    except _StopAtFidelity:
        iterations = len(fid_history) - 1
        status, message = "fidelity_stop", "requested fidelity reached"

    opt_controls = replace(c0, amplitudes=to_amplitudes(best["x"]))
    return OptimizationReport(
        final_fidelity=best["fid"],
        per_member_fidelities=best["per"].tolist(),
        iterations=iterations,
        gradient_norm_history=grad_history,
        fidelity_history=fid_history,
        controls=opt_controls,
        evaluations=evaluations,
        status=status,
        message=message,
    )
