"""Linear response of partial complexities to initial perturbations.

A response matrix collects, row by perturbing generator and column by
measured generator, the derivative of the partial complexities of the
evolved perturbation with respect to its strength.  Its square L = R^T R
defines a spectrum whose logarithmic growth rates are finite-time Lyapunov
estimates.

Every response matrix is the linearisation of an exact map and is computed
in closed form, without geodesic solves:

* phase-space (Heisenberg) generators with quadratic Hamiltonians -- the
  perturbation stays a displacement carried by the classical flow map
  S(t), so R_u = S(t)^T and the Gaussian state response R_s = S(t).
* matrix generators -- R_u = Ad(U_t) in the costed generators, and R_s the
  same rows projected off the directions that only rephase the evolved
  reference state.

Conventions: coefficient transports run forward in time, so the unitary
flavor reproduces the closed-form hyperbolic response of the inverted
oscillator entrywise, while the Gaussian state flavor equals the classical
tangent map (rows follow the conjugate-coordinate pairing of the
perturbing generator).  The two coincide for symmetric flows and always
share singular values.  The correspondence R_u T = O(t) of ``otoc`` is the
same statement for the phase-space kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .generators import (
    PHASE_SPACE,
    GeneratorSet,
    _check_canonical,
    _quadratic_flow,
    symplectic_form,
)
from .geometry import _evolution, _normalized, _transverse_projector

__all__ = [
    "ResponseMatrix",
    "ResponseSpectrum",
    "LyapunovEstimate",
    "unitary_response_matrix",
    "state_response_matrix",
    "response_spectrum",
    "lyapunov_spectrum",
]

# relative defect |R^T J R - J| / max(1, |R|^2) under which R is symplectic
SYMPLECTIC_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ResponseMatrix:
    """Derivatives of partial complexities w.r.t. a perturbation strength."""

    flavor: str  # "state" | "unitary"
    entries: np.ndarray  # (n, n) real; row = perturbation, column = measured
    time: float
    labels: tuple[str, ...]
    reliable: np.ndarray | None = None  # per-entry flags, all True by default

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2:
            raise ValueError("entries must be a 2-D real array")
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.reliable is None:
            object.__setattr__(self, "reliable", np.ones(e.shape, dtype=bool))

    @property
    def is_square(self) -> bool:
        return self.entries.shape[0] == self.entries.shape[1]

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "time": self.time,
            "labels": list(self.labels),
            "entries": self.entries.tolist(),
            "reliable": self.reliable.tolist(),
        }


@dataclass(frozen=True, eq=False)
class ResponseSpectrum:
    """Eigenvalues of L = R^T R, sorted descending."""

    l_matrix: np.ndarray
    eigenvalues: np.ndarray
    time: float

    def to_json(self) -> dict:
        return {
            "time": self.time,
            "l_matrix": self.l_matrix.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
        }


@dataclass(frozen=True, eq=False)
class LyapunovEstimate:
    """Finite-time exponents per eigen-branch with their fit diagnostics."""

    lambdas: np.ndarray
    times: np.ndarray
    fit_window: tuple[float, float]
    residual: float

    def to_json(self) -> dict:
        return {
            "lambdas": self.lambdas.tolist(),
            "fit_window": list(self.fit_window),
            "residual": self.residual,
        }


# ---------------------------------------------------------------------------
# unitary flavor


def unitary_response_matrix(hamiltonian, gens: GeneratorSet,
                            t: float) -> ResponseMatrix:
    """Response of unitary partial complexities to generator perturbations.

    The perturbation ``exp(-i eps M_K)`` conjugated through the evolution is
    ``exp(-i eps U_t M_K U_t^dag)``, whose near-identity geodesic has the
    basis components of ``U_t M_K U_t^dag`` as partials.  Phase-space kind:
    the components ride the forward flow map, so R_u = S(t)^T.  Matrix kind:
    R_u = Ad(U_t) in the costed generators; a ``ValueError`` is raised when
    H is not Hermitian or some conjugated generator leaves their span, or
    when phase-space generators are not the canonical basis.
    """
    if gens.kind == PHASE_SPACE:
        _check_canonical(gens)
        entries = _quadratic_flow(hamiltonian, gens.n_modes, t).T
    else:
        entries = _adjoint_evolution(hamiltonian, gens, t)[1]
    return ResponseMatrix(flavor="unitary", entries=entries, time=float(t),
                          labels=gens.costed_labels())


def _adjoint_evolution(hamiltonian, gens: GeneratorSet, t: float):
    """U_t, and Ad(U_t): row K holds the components of U_t M_K U_t^dag."""
    u = _evolution(hamiltonian, gens, t)
    moved = u @ gens._costed_basis[0] @ u.conj().T
    rows, inside = gens._span_coordinates(moved)
    if not inside.all():
        label = gens.costed_labels()[int(np.argmin(inside))]
        raise ValueError(f"U_t {label} U_t^dag leaves the span of the costed "
                         f"generators")
    return u, rows


# ---------------------------------------------------------------------------
# state flavor


def _check_gaussian_state(psi, gens: GeneratorSet) -> None:
    """Refuse anything but a Gaussian Wigner state over the set's modes.

    A state is recognised by its ``covariance``: a plain vector would pass
    on ``ndarray.mean``, the method.
    """
    if not hasattr(psi, "covariance"):
        raise ValueError(f"a phase-space generator set needs a GaussianWignerState, "
                         f"got {type(psi).__name__}")
    if np.asarray(psi.mean).size != 2 * gens.n_modes:
        raise ValueError("state dimension does not match the generator set")


def state_response_matrix(psi0, hamiltonian, gens: GeneratorSet,
                          t: float) -> ResponseMatrix:
    """Response of relative-state partial complexities to perturbations.

    Gaussian pipeline (phase-space kind, ``psi0`` a Gaussian Wigner state):
    both states stay Gaussian with a common covariance under quadratic
    evolution, so their relative displacement is exact and linear in the
    strength; the entries are the classical tangent map S(t) itself, rows
    indexed through the conjugate-coordinate pairing of the perturbing
    generator.  The costed generators must be the canonical basis
    q_1..q_N, p_1..p_N (a ``ValueError`` otherwise).

    Matrix pipeline: ``psi2(t) = exp(-iHt) exp(-i eps M_K) psi0`` differs
    from ``psi1(t) = exp(-iHt) psi0`` by ``exp(-i eps U_t M_K U_t^dag)``.
    Directions Y that only rephase psi1, i.e. (Y - <psi1|Y|psi1>) psi1 = 0,
    cost nothing, so each Ad(U_t) row is projected orthogonally off that
    kernel (for a qubit: R_s = Ad(U_t) (I - n n^T), n the Bloch vector of
    psi1).
    """
    if gens.kind == PHASE_SPACE:
        _check_gaussian_state(psi0, gens)
        _check_canonical(gens)
        entries = _quadratic_flow(hamiltonian, gens.n_modes, t)
    else:
        psi0 = _normalized(psi0)
        if psi0.size != gens.dim:
            raise ValueError("state dimension does not match the generator set")
        u, rows = _adjoint_evolution(hamiltonian, gens, t)
        entries = rows @ _transverse_projector(u @ psi0, gens)
    return ResponseMatrix(flavor="state", entries=entries, time=float(t),
                          labels=gens.costed_labels())


# ---------------------------------------------------------------------------
# spectra and exponents


def response_spectrum(r: ResponseMatrix) -> ResponseSpectrum:
    """L = R^T R and its eigenvalues, sorted descending.

    The eigenvalues are squared singular values of R.  An SVD resolves the
    small ones only to ~1e-16 times the largest, so the contracting
    eigenvalue carries a relative error of ~1e-16 times the expanding one.
    When R is symplectic (even dimension, R^T J R = J to rounding) its
    spectrum pairs as (s, 1/s), and the contracting half is taken as the
    reciprocals of the expanding half.
    """
    if not r.is_square:
        raise ValueError("response matrix must be square")
    entries = r.entries
    l_matrix = entries.T @ entries
    eigenvalues = np.sort(np.linalg.svd(entries, compute_uv=False) ** 2)[::-1]
    m = entries.shape[0]
    if m % 2 == 0 and _is_symplectic(entries):
        upper = eigenvalues[: m // 2]
        eigenvalues = np.concatenate([upper, 1.0 / upper[::-1]])
    return ResponseSpectrum(l_matrix=l_matrix, eigenvalues=eigenvalues,
                            time=r.time)


def _is_symplectic(m: np.ndarray) -> bool:
    j = symplectic_form(m.shape[0] // 2)
    scale = max(1.0, float(np.abs(m).max()) ** 2)
    return float(np.abs(m.T @ j @ m - j).max()) <= SYMPLECTIC_TOL * scale


def lyapunov_spectrum(spectra: Sequence[ResponseSpectrum],
                      window: tuple[float, float]) -> LyapunovEstimate:
    """Least-squares growth rates of (1/2t) log s_i over a time window.

    Fits 0.5 * log s_i(t) against t per sorted eigen-branch; the reported
    residual is the RMS fit deviation across branches.
    """
    t_min, t_max = window
    inside = [sp for sp in spectra if t_min <= sp.time <= t_max]
    if len(inside) < 5:
        raise ValueError("need at least 5 spectra inside the fit window")
    inside.sort(key=lambda sp: sp.time)
    times = np.array([sp.time for sp in inside])
    vals = np.stack([sp.eigenvalues for sp in inside])  # (m, n)
    if np.any(vals <= 0):
        raise ValueError("nonpositive response eigenvalue in the fit window "
                         "(degenerate response matrix)")
    y = 0.5 * np.log(vals)
    design = np.stack([times, np.ones_like(times)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slopes = coef[0]
    fit = design @ coef
    residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    order = np.argsort(slopes)[::-1]
    return LyapunovEstimate(lambdas=slopes[order], times=times,
                            fit_window=(float(t_min), float(t_max)),
                            residual=residual)
