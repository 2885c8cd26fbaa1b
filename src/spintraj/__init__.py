"""Spin dynamics under optimized control pulses.

Subpackages: system description, spherical-tensor basis construction,
propagation, GRAPE pulse optimization, trajectory analysis, and file I/O.
States are stored and analysed in the IST Liouville basis and propagated as
U rho U^dagger in Hilbert space, which relies on the system being closed (no
relaxation): one evaluation holds [M, T, d, d] arrays, not [M, T, D, D].
"""

from .analysis import (
    CohOrder,
    CorrOrder,
    Involving,
    LocalSpin,
    bsg_transform,
    build_projector,
    population_series,
    rdn,
    rsp,
    sg_transform,
)
from .engine import (
    ControlSet,
    StateVector,
    Trajectory,
    commutation_superoperator,
    control_operators,
    drift_hamiltonian,
    propagate,
)
from .expressions import parse_state
from .grape import (
    ControlProblem,
    Ensemble,
    OptimizationReport,
    ensemble_fidelity,
    grape_gradient,
    optimize,
)
from .system import Coupling, Quadrupole, Spin, SpinSystem
from .tensors import (
    BasisLabel,
    ProductBasis,
    ist_operator,
    product_basis,
    spin_operator,
)

__version__ = "0.1.0"
