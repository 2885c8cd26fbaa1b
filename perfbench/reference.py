"""Hilbert-space reference dynamics, built without spintraj.

The program propagates Liouville-space coefficient vectors over a spherical
tensor basis. For a closed system the same dynamics is rho -> U rho U^dagger
with U = expm(-i H dt) on the d x d Hilbert space, so every quantity the
benchmark checks is recomputed here from spin matrices built from scratch:
state-transfer fidelities, overlaps of states, and the squared magnitude of
every coefficient over a spherical tensor basis found here as eigenvectors
of the rank and projection superoperators. Those magnitudes do not depend on
the phase convention of the basis, and every population, grouping and
score the program reports follows from them.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * np.pi


def spin_matrices(multiplicity: int) -> dict[str, np.ndarray]:
    """Sx, Sy, Sz and the identity for spin s = (multiplicity - 1) / 2, in the
    Zeeman basis ordered by descending projection."""
    s = (multiplicity - 1) / 2.0
    m = s - np.arange(multiplicity)
    plus = np.zeros((multiplicity, multiplicity), dtype=complex)
    for i in range(multiplicity - 1):
        plus[i, i + 1] = np.sqrt(s * (s + 1) - m[i + 1] * (m[i + 1] + 1))
    return {
        "x": (plus + plus.conj().T) / 2.0,
        "y": (plus - plus.conj().T) / 2.0j,
        "z": np.diag(m).astype(complex),
        "e": np.eye(multiplicity, dtype=complex),
    }


class SpinModel:
    """Hamiltonians and states of a spin system given as a system document
    (the mapping a system YAML file holds)."""

    def __init__(self, doc: dict):
        if doc.get("quadrupolar"):
            raise ValueError("the reference model has no quadrupolar terms")
        spins = doc["spins"]
        self.isotopes = [str(s["isotope"]) for s in spins]
        self.dims = [int(s["multiplicity"]) for s in spins]
        self.offsets = [float(s.get("offset", 0.0)) for s in spins]
        self.couplings = [
            (int(c["i"]), int(c["j"]), float(c["j_hz"]), c.get("model"))
            for c in doc.get("couplings") or []
        ]
        self.d = int(np.prod(self.dims))

    def op(self, spin: int, axis: str) -> np.ndarray:
        out = np.ones((1, 1), dtype=complex)
        for k, n in enumerate(self.dims):
            out = np.kron(out, spin_matrices(n)[axis if k == spin else "e"])
        return out

    def drift(self, shift_hz: float = 0.0, isotope: str | None = None) -> np.ndarray:
        """Offsets (shifted on one isotope, or on all spins for None) and J couplings."""
        h = np.zeros((self.d, self.d), dtype=complex)
        for k, (iso, off) in enumerate(zip(self.isotopes, self.offsets)):
            if isotope is None or iso == isotope:
                off = off + shift_hz
            h += TWO_PI * off * self.op(k, "z")
        for i, j, j_hz, model in self.couplings:
            if model is None:
                model = "strong" if self.isotopes[i] == self.isotopes[j] else "weak"
            axes = "z" if model == "weak" else "xyz"
            for a in axes:
                h += TWO_PI * j_hz * self.op(i, a) @ self.op(j, a)
        return h

    def control(self, isotope: str, axis: str) -> np.ndarray:
        """Isotope-wide control operator: the sum of S_axis over its spins."""
        spins = [k for k, iso in enumerate(self.isotopes) if iso == isotope]
        if not spins:
            raise ValueError(f"no spins of isotope {isotope!r}")
        return sum(self.op(k, axis) for k in spins)

    def state(self, expr: str) -> np.ndarray:
        """Unit-Frobenius-norm operator of a single Cartesian term such as 'Lz(0)'."""
        match = re.fullmatch(r"\s*L([xyz])\s*\(\s*(\d+)\s*\)\s*", expr)
        if not match:
            raise ValueError(f"the reference model reads only Lx/Ly/Lz(k), got {expr!r}")
        rho = self.op(int(match[2]), match[1])
        return rho / np.linalg.norm(rho)


def generators(model: SpinModel, wave: dict, members) -> np.ndarray:
    """H[m, n] for every (offset shift, power scale, isotope) member and step.

    `wave` holds dt, power_hz, channels [(isotope, axis)] and amplitudes
    [n_channels, n_steps]."""
    controls = np.stack([model.control(iso, ax) for iso, ax in wave["channels"]])
    amps = np.asarray(wave["amplitudes"], dtype=float)
    out = []
    for shift, scale, isotope in members:
        w = TWO_PI * wave["power_hz"] * scale * amps  # [k, n]
        h = np.einsum("kn,kij->nij", w, controls) + model.drift(shift, isotope)
        out.append(h)
    return np.stack(out)


def unitaries(model: SpinModel, wave: dict, members) -> np.ndarray:
    """U[m, n] = expm(-i H[m, n] dt)."""
    h = generators(model, wave, members)
    return scipy.linalg.expm(-1j * wave["dt"] * h)


def evolve(u: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """rho[..., n] for n = 0..T under the step unitaries u[..., n]."""
    *lead, t, d, _ = u.shape
    rho = np.empty((*lead, t + 1, d, d), dtype=complex)
    rho[..., 0, :, :] = rho0
    for n in range(t):
        un = u[..., n, :, :]
        rho[..., n + 1, :, :] = un @ rho[..., n, :, :] @ un.conj().swapaxes(-1, -2)
    return rho


def overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(a^dagger b) over the last two axes."""
    return np.einsum("...ij,...ij->...", a.conj(), b)


def fidelities(model: SpinModel, wave: dict, members, rho0, target) -> np.ndarray:
    """Re Tr(target^dagger rho(T)) for every member."""
    return np.real(overlap(target, evolve(unitaries(model, wave, members), rho0)[:, -1]))


def spin_tensors(multiplicity: int) -> dict[tuple[int, int], np.ndarray]:
    """Unit-norm operators of one spin with definite rank l and projection m.

    They are joint eigenvectors of the rank superoperator sum_a [S_a, [S_a, .]]
    (eigenvalue l(l+1)) and of [S_z, .] (eigenvalue m). Each (l, m) space is
    one-dimensional, so they agree with any spherical tensor basis up to phase."""
    sm = spin_matrices(multiplicity)
    eye = sm["e"]

    def comm(a):  # [a, X] on row-major vec(X)
        return np.kron(a, eye) - np.kron(eye, a.T)

    lz = comm(sm["z"])
    rank = sum(comm(sm[a]) @ comm(sm[a]) for a in "xyz")
    _, vecs = np.linalg.eigh(rank + 0.1 * lz)
    out = {}
    for v in vecs.T:
        m = int(np.rint(np.real(v.conj() @ lz @ v)))
        l = int(np.rint((np.sqrt(1.0 + 4.0 * np.real(v.conj() @ rank @ v)) - 1.0) / 2.0))
        out[(l, m)] = v.reshape(multiplicity, multiplicity)
    return out


def label_weights(rho: np.ndarray, dims) -> tuple[list[tuple], np.ndarray]:
    """|c_label|^2 of rho over the product spherical tensor basis.

    Returns the labels (per spin (l, m)) and weights [..., n_labels]; the
    weights are phase-free, so they equal the squared magnitudes of the
    program's coefficients with the same labels."""
    per_spin = [spin_tensors(n) for n in dims]
    n_spins = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    a, b, k = letters[:n_spins], letters[n_spins:2 * n_spins], letters[2 * n_spins:3 * n_spins]
    spec = f"...{a}{b}," + ",".join(f"{k[j]}{a[j]}{b[j]}" for j in range(n_spins)) + f"->...{k}"
    ops = [np.stack(list(t.values())).conj() for t in per_spin]
    x = rho.reshape(*rho.shape[:-2], *dims, *dims)
    coef = np.einsum(spec, x, *ops, optimize=True)
    labels = [tuple(combo) for combo in itertools.product(*(list(t) for t in per_spin))]
    return labels, (np.abs(coef) ** 2).reshape(*rho.shape[:-2], len(labels))


def populations(labels, weights: np.ndarray) -> dict[str, list[np.ndarray]]:
    """Subspace populations of the program's analysis specs from label weights.

    Keys: 'corr-orders' (k = 0..N), 'local' and 'involvement' (per spin),
    'coh-orders' (m = -max..max)."""
    ranks = np.array([[l for l, _ in lab] for lab in labels])
    coh = np.array([sum(m for _, m in lab) for lab in labels])
    corr = (ranks > 0).sum(axis=1)
    n_spins = ranks.shape[1]

    def pop(mask):
        return np.sqrt(weights[..., mask].sum(axis=-1))

    top = int(np.max(np.abs(coh)))
    return {
        "corr-orders": [pop(corr == k) for k in range(n_spins + 1)],
        "local": [pop((corr == 1) & (ranks[:, k] > 0)) for k in range(n_spins)],
        "involvement": [pop(ranks[:, k] > 0) for k in range(n_spins)],
        "coh-orders": [pop(coh == m) for m in range(-top, top + 1)],
    }


def sg_values(labels, weights: np.ndarray) -> np.ndarray:
    """State-grouping image: one norm per orbit {label, label with every m negated},
    orbits in a fixed order of their labels."""
    index = {lab: i for i, lab in enumerate(labels)}
    orbits = sorted({tuple(sorted({lab, tuple((l, -m) for l, m in lab)})) for lab in labels})
    return np.stack([np.sqrt(sum(weights[..., index[lab]] for lab in orbit))
                     for orbit in orbits], axis=-1)


def fidelity_gradient_fd(model: SpinModel, wave: dict, members, rho0, target,
                         entries, h: float = 1e-5) -> np.ndarray:
    """Central differences of the member-mean fidelity at amplitude entries (k, n).

    Only step n changes, so each perturbed fidelity is Re Tr(lam^dagger U' rho U'^dagger)
    with rho the state before step n and lam the target carried back to after it."""
    u = unitaries(model, wave, members)
    rho = evolve(u, rho0)
    t = u.shape[1]
    lam = np.empty_like(rho)
    lam[:, t] = target
    for n in range(t - 1, -1, -1):
        un = u[:, n]
        lam[:, n] = un.conj().swapaxes(-1, -2) @ lam[:, n + 1] @ un
    h_all = generators(model, wave, members)
    controls = [model.control(iso, ax) for iso, ax in wave["channels"]]
    scales = np.array([scale for _, scale, _ in members])
    out = []
    for k, n in entries:
        values = []
        for sign in (1.0, -1.0):
            dh = sign * h * TWO_PI * wave["power_hz"] * scales[:, None, None] * controls[k]
            up = scipy.linalg.expm(-1j * wave["dt"] * (h_all[:, n] + dh))
            moved = up @ rho[:, n] @ up.conj().swapaxes(-1, -2)
            values.append(np.real(overlap(lam[:, n + 1], moved)).mean())
        out.append((values[0] - values[1]) / (2.0 * h))
    return np.array(out)
