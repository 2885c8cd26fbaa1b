"""Spin system description: isotopes, offsets, couplings, quadrupolar terms.

All frequencies are in Hz; Hamiltonian assembly (see :mod:`spintraj.engine`)
introduces the 2*pi factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError

__all__ = ["Spin", "Coupling", "Quadrupole", "SpinSystem"]


@dataclass(frozen=True)
class Spin:
    """A single spin: isotope label, multiplicity 2s+1, rotating-frame offset in Hz."""

    isotope: str
    multiplicity: int
    offset: float = 0.0

    def __post_init__(self):
        if not self.isotope:
            raise DomainError("isotope label must be non-empty")
        if self.multiplicity < 2:
            raise DomainError(f"multiplicity must be >= 2, got {self.multiplicity}")
        if not math.isfinite(self.offset):
            raise DomainError("offset must be finite")


@dataclass(frozen=True)
class Coupling:
    """Scalar coupling between spins i < j.

    model: "weak" (SzSz), "strong" (full S.S) or None to pick the liquid-state
    default (strong for same-isotope pairs, weak otherwise).
    """

    i: int
    j: int
    j_hz: float
    model: str | None = None

    def __post_init__(self):
        if self.i >= self.j:
            raise DomainError(f"coupling requires i < j, got ({self.i}, {self.j})")
        if self.model not in (None, "weak", "strong"):
            raise DomainError(f"unknown coupling model {self.model!r}")
        if not math.isfinite(self.j_hz):
            raise DomainError("coupling constant must be finite")


@dataclass(frozen=True)
class Quadrupole:
    """Rhombic quadrupolar interaction on one spin: magnitude omega_q (Hz), asymmetry eta."""

    spin: int
    omega_q: float
    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"eta must lie in [0, 1], got {self.eta}")
        if not math.isfinite(self.omega_q):
            raise DomainError("omega_q must be finite")


@dataclass(frozen=True)
class SpinSystem:
    """An ordered collection of spins with couplings and quadrupolar terms."""

    spins: tuple[Spin, ...]
    couplings: tuple[Coupling, ...] = ()
    quadrupolar: tuple[Quadrupole, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "spins", tuple(self.spins))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        object.__setattr__(self, "quadrupolar", tuple(self.quadrupolar))
        if not self.spins:
            raise DomainError("system must contain at least one spin")
        n = len(self.spins)
        seen_pairs = set()
        for c in self.couplings:
            if not (0 <= c.i < n and 0 <= c.j < n):
                raise DomainError(f"coupling ({c.i}, {c.j}) references a missing spin")
            if (c.i, c.j) in seen_pairs:
                raise DomainError(f"duplicate coupling for pair ({c.i}, {c.j})")
            seen_pairs.add((c.i, c.j))
        for q in self.quadrupolar:
            if not 0 <= q.spin < n:
                raise DomainError(f"quadrupole references a missing spin {q.spin}")
            if self.spins[q.spin].multiplicity < 3:
                raise DomainError(
                    f"quadrupole on spin {q.spin} requires multiplicity >= 3"
                )

    @property
    def n_spins(self) -> int:
        return len(self.spins)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(s.multiplicity for s in self.spins)

    @property
    def hilbert_dim(self) -> int:
        d = 1
        for s in self.spins:
            d *= s.multiplicity
        return d

    def spins_of_isotope(self, isotope: str) -> tuple[int, ...]:
        idx = tuple(k for k, s in enumerate(self.spins) if s.isotope == isotope)
        if not idx:
            raise DomainError(f"no spins with isotope {isotope!r}")
        return idx

    def coupling_model(self, c: Coupling) -> str:
        """Resolve the effective model of a coupling (auto rule for model=None)."""
        if c.model is not None:
            return c.model
        same = self.spins[c.i].isotope == self.spins[c.j].isotope
        return "strong" if same else "weak"

    def with_offset_shift(self, shift_hz: float, isotope: str | None = None) -> "SpinSystem":
        """Return a copy with `shift_hz` added to the offsets of one isotope (or all spins)."""
        new_spins = tuple(
            replace(s, offset=s.offset + shift_hz)
            if isotope is None or s.isotope == isotope
            else s
            for s in self.spins
        )
        return replace(self, spins=new_spins)
