"""geochaos: complexity-geometry chaos diagnostics.

Weighted-cost geodesic complexity on small unitary groups and the
Heisenberg group, linear response of partial complexities to initial
perturbations, Lyapunov spectra from the response eigenvalues, and the
exact correspondence between the response and evolved commutator matrices.
"""

from .generators import (
    HBAR,
    DisplacementVector,
    Generator,
    GeneratorSet,
    commutator,
    compose_displacements,
    conjugate_by_quadratic_flow,
    heisenberg_generators,
    pauli_generators,
)
from .geometry import (
    CostWeights,
    GeodesicResult,
    ProtocolPath,
    SolverConfig,
    heisenberg_complexity,
    partial_complexity,
    path_cost,
    path_endpoint,
    state_complexity,
    unitary_complexity,
)
from .response import (
    LyapunovEstimate,
    ResponseMatrix,
    ResponseSpectrum,
    lyapunov_spectrum,
    response_spectrum,
    state_response_matrix,
    unitary_response_matrix,
)
from .otoc import (
    OtocMatrix,
    TransferMatrix,
    averaged_otoc_identity,
    check_correspondence,
    otoc_matrix,
    transfer_matrix,
)
from .classical import (
    GaussianWignerState,
    PhaseSpaceFlow,
    QuadraticHamiltonian,
    SeparableHamiltonian,
    classical_lyapunov,
    evolve_flow,
    evolve_wigner_gaussian,
    free_particle,
    harmonic_oscillator,
    iho_displacement_analytic,
    iho_response_analytic,
    inverted_oscillator,
    jacobian_matrix,
    quartic_oscillator,
)

__version__ = "0.1.0"
