"""Subspace projectors, population time series, state grouping, and similarity scores.

All projectors in this module are diagonal in the spherical-tensor product
basis: membership of a basis state is a pure function of its (l, m) label, so
a subspace population is the Euclidean norm of the masked coefficient vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Trajectory
from .errors import DomainError
from .tensors import ProductBasis

__all__ = [
    "CorrOrder",
    "CohOrder",
    "LocalSpin",
    "Involving",
    "Custom",
    "Projector",
    "Family",
    "FAMILIES",
    "GroupedTrajectory",
    "SimilarityReport",
    "build_projector",
    "population_series",
    "sg_transform",
    "bsg_transform",
    "rsp",
    "rdn",
    "involvement_report",
    "family_populations",
]


@dataclass(frozen=True)
class CorrOrder:
    """All basis states with a given correlation order."""

    k: int


@dataclass(frozen=True)
class CohOrder:
    """All basis states with a given coherence order."""

    m: int


@dataclass(frozen=True)
class LocalSpin:
    """Single-spin states (every rank, every projection) local to one spin."""

    spin: int


@dataclass(frozen=True)
class Involving:
    """All states whose label is non-unit on the given spin, including correlations."""

    spin: int


@dataclass(frozen=True)
class Custom:
    """Explicit boolean mask over basis indices."""

    mask: tuple[bool, ...]


@dataclass(frozen=True)
class Projector:
    spec: object
    mask: np.ndarray  # boolean, length D

    @property
    def size(self) -> int:
        return int(self.mask.sum())


def build_projector(basis: ProductBasis, spec) -> Projector:
    """Build the diagonal subspace projector selected by `spec`."""
    n_spins = basis.system.n_spins
    if isinstance(spec, CorrOrder):
        if not 0 <= spec.k <= n_spins:
            raise DomainError(f"correlation order {spec.k} out of range")
        mask = basis.correlation_orders() == spec.k
    elif isinstance(spec, CohOrder):
        max_m = int(np.max(np.abs(basis.coherence_orders())))
        if abs(spec.m) > max_m:
            raise DomainError(f"coherence order {spec.m} out of range")
        mask = basis.coherence_orders() == spec.m
    elif isinstance(spec, LocalSpin):
        if not 0 <= spec.spin < n_spins:
            raise DomainError(f"spin index {spec.spin} out of range")
        mask = np.array(
            [
                lab.correlation_order() == 1 and lab.components[spec.spin][0] > 0
                for lab in basis.labels
            ]
        )
    elif isinstance(spec, Involving):
        if not 0 <= spec.spin < n_spins:
            raise DomainError(f"spin index {spec.spin} out of range")
        mask = np.array([lab.components[spec.spin][0] > 0 for lab in basis.labels])
    elif isinstance(spec, Custom):
        mask = np.asarray(spec.mask, dtype=bool)
        if mask.shape != (basis.dim,):
            raise DomainError("custom mask length does not match basis dimension")
    else:
        raise DomainError(f"unknown projector spec {spec!r}")
    return Projector(spec, mask)


@dataclass(frozen=True)
class Family:
    """A named set of projectors: one per member, each written as a column."""

    prefix: str  # column name of member k is f"{prefix}{k}"
    spec: Callable[[int], object]  # member -> projector spec
    members: Callable[[ProductBasis], range]


def _coherence_orders(basis: ProductBasis) -> range:
    top = int(basis.coherence_orders().max())  # orders run from -top to top
    return range(-top, top + 1)


FAMILIES = {
    "corr-orders": Family("corr_order_", CorrOrder, lambda b: range(b.system.n_spins + 1)),
    "coh-orders": Family("coh_order_", CohOrder, _coherence_orders),
    "local": Family("local_spin_", LocalSpin, lambda b: range(b.system.n_spins)),
    "involvement": Family("involving_", Involving, lambda b: range(b.system.n_spins)),
}


def family_populations(traj: Trajectory, name: str) -> tuple[list[str], list[np.ndarray]]:
    """Column names and population series of every member of one family."""
    family = FAMILIES[name]
    names, series = [], []
    for k in family.members(traj.basis):
        names.append(f"{family.prefix}{k}")
        series.append(population_series(build_projector(traj.basis, family.spec(k)), traj))
    return names, series


def population_series(p: Projector, traj: Trajectory) -> np.ndarray:
    """||P rho(t)|| at every trajectory point."""
    if p.mask.shape[0] != traj.basis.dim:
        raise DomainError("projector and trajectory live in different bases")
    return np.linalg.norm(traj.states[:, p.mask], axis=1)


def _sg_orbits(basis: ProductBasis) -> list[tuple[int, ...]]:
    """Orbits of basis indices under the global projection flip m_i -> -m_i."""
    orbits: list[tuple[int, ...]] = []
    seen = np.zeros(basis.dim, dtype=bool)
    for i, lab in enumerate(basis.labels):
        if seen[i]:
            continue
        flipped = tuple((l, -m) for (l, m) in lab.components)
        j = basis.index[flipped]
        seen[i] = seen[j] = True
        orbits.append((i,) if i == j else (i, j))
    return orbits


@dataclass
class GroupedTrajectory:
    """Phase-erased (sg) or per-spin (bsg) image of a trajectory."""

    mode: str  # "sg" | "bsg"
    group_table: list
    times: np.ndarray
    values: np.ndarray  # real, shape [n_points, n_groups]


def sg_transform(traj: Trajectory) -> GroupedTrajectory:
    """Group +/-m partner states: each orbit maps to the norm of its coefficients."""
    orbits = _sg_orbits(traj.basis)
    abs2 = np.abs(traj.states) ** 2
    values = np.empty((traj.n_points, len(orbits)))
    for g, orbit in enumerate(orbits):
        values[:, g] = np.sqrt(abs2[:, list(orbit)].sum(axis=1))
    return GroupedTrajectory("sg", orbits, traj.times, values)


def bsg_transform(traj: Trajectory) -> GroupedTrajectory:
    """Map each trajectory point to the R^N vector of single-spin subspace populations."""
    _, series = family_populations(traj, "local")
    return GroupedTrajectory("bsg", list(range(len(series))), traj.times,
                             np.column_stack(series))


@dataclass
class SimilarityReport:
    """Per-timestep similarity scores between two trajectories."""

    score_kind: str  # "rsp" | "rdn"
    grouping: str  # "none" | "sg" | "bsg"
    times: np.ndarray
    scores: np.ndarray  # complex for ungrouped rsp, real otherwise

    @property
    def real(self) -> np.ndarray:
        return self.scores.real if np.iscomplexobj(self.scores) else self.scores

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.scores)


def _check_pair(traj_a: Trajectory, traj_b: Trajectory):
    if traj_a.basis != traj_b.basis or traj_a.n_points != traj_b.n_points:
        raise DomainError("trajectories live on different bases or time grids")
    if not np.allclose(traj_a.times, traj_b.times):
        raise DomainError("trajectories have different time grids")


def _grouped_values(traj: Trajectory, grouping: str) -> np.ndarray:
    if grouping == "sg":
        return sg_transform(traj).values
    if grouping == "bsg":
        return bsg_transform(traj).values
    raise DomainError(f"unknown grouping {grouping!r}")


def rsp(traj_a: Trajectory, traj_b: Trajectory, grouping: str = "none") -> SimilarityReport:
    """Running scalar product <rho_a(t)|rho_b(t)>, optionally after grouping."""
    _check_pair(traj_a, traj_b)
    if grouping == "none":
        scores = np.einsum("ti,ti->t", traj_a.states.conj(), traj_b.states)
    else:
        va = _grouped_values(traj_a, grouping)
        vb = _grouped_values(traj_b, grouping)
        scores = np.einsum("ti,ti->t", va, vb)
    return SimilarityReport("rsp", grouping, traj_a.times, scores)


def rdn(traj_a: Trajectory, traj_b: Trajectory, grouping: str = "none") -> SimilarityReport:
    """Running difference norm score 1 - ||rho_a(t) - rho_b(t)|| / 2."""
    _check_pair(traj_a, traj_b)
    if grouping == "none":
        diff = np.linalg.norm(traj_a.states - traj_b.states, axis=1)
    else:
        va = _grouped_values(traj_a, grouping)
        vb = _grouped_values(traj_b, grouping)
        diff = np.linalg.norm(va - vb, axis=1)
    return SimilarityReport("rdn", grouping, traj_a.times, 1.0 - diff / 2.0)


def involvement_report(traj: Trajectory, threshold: float) -> list[dict]:
    """Peak involvement of every spin along the trajectory and a droppable flag."""
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    _, series = family_populations(traj, "involvement")
    peaks = [float(s.max()) for s in series]
    return [{"spin": k, "max_involvement": peak, "droppable": peak < threshold}
            for k, peak in enumerate(peaks)]
