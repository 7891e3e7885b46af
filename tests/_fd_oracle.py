"""Finite differences of whole geodesic solves: the independent oracle for
the closed-form matrix-kind response matrices.

Each row perturbs the evolution by exp(-i s M_K), solves the geodesic of
the conjugated target at s = +-eps and +-eps/2, and takes one Richardson
step over the two central differences.  One row costs four solves.
"""

import numpy as np
from scipy.linalg import expm

from geochaos.geometry import CostWeights, SolverConfig, unitary_complexity

# a light profile for near-identity targets
ORACLE_SOLVER = SolverConfig(n_starts=24, n_refine=3, direct_fallback="auto",
                             n_restarts_direct=2, ode_steps=128, max_iters=40)


def central_difference(partials_at, eps):
    """Central differences at eps and eps/2 with one Richardson step."""
    d_full = (partials_at(eps) - partials_at(-eps)) / (2.0 * eps)
    d_half = (partials_at(eps / 2) - partials_at(-eps / 2)) / eps
    return (4.0 * d_half - d_full) / 3.0


def unitary_response_fd(hamiltonian, gens, t, eps=1e-5):
    """R_u from geodesic-solver partials of U_t exp(-i s M_K) U_t^dag."""
    u_t = expm(-1j * np.asarray(hamiltonian, dtype=complex) * t)
    weights = CostWeights.isotropic(gens)
    labels = gens.costed_labels()
    rows = []
    for i in gens.costed_indices():
        mk = gens.generators[i].matrix

        def partials_at(s, mk=mk):
            target = u_t @ expm(-1j * s * mk) @ u_t.conj().T
            geo = unitary_complexity(target, gens, weights, ORACLE_SOLVER)
            if not geo.converged:
                raise RuntimeError(f"oracle solve did not converge at s = {s:g}")
            return np.array([geo.partials[l] for l in labels])

        rows.append(central_difference(partials_at, eps))
    return np.array(rows)
