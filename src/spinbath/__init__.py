"""Dissipative collective spin in a polarized Markovian bath.

Builds the vectorized generator sector by sector, diagonalizes it with
structure-exploiting solvers, evaluates the closed-form limits used as
oracles, and propagates density matrices for the slow-down and critical
dynamics experiments.  See the CLI (`spinbath --help`) for figure-data runs.
"""

from .model import ModelParams, SectorIndex, ladder_coeff, sector_basis
from .liouvillian import (
    FullLiouvillian,
    SectorOperator,
    build_bruteforce,
    build_sector,
)
from .spectra import (
    DensityOfStates,
    EPScanResult,
    FitResult,
    SpectralDecomposition,
    density_of_states,
    diagonalize,
    ep_scan,
    eigenvector_distance,
    fit_exponential,
    fit_power_law,
    kernel_dimension,
    pair_distances,
)
from .closed_forms import (
    HPStates,
    ThermalSS,
    TriangularSolution,
    clebsch_gordan,
    ep_halflife,
    hp_states,
    o3_eigenvalue,
    o3_expectation,
    thermal_ss,
    triangular_eigenvector,
    triangular_solution,
)
from .dynamics import (
    VectorizedDensityMatrix,
    btc_experiment,
    coherent_state,
    entropy,
    expectation,
    fock_state,
    propagate,
    slowdown_experiment,
)

__version__ = "0.1.0"
