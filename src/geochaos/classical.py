"""Classical phase-space dynamics and the closed-form oscillator oracles.

Quadratic Hamiltonians H = 1/2 z^T A z (z = (q, p)) are propagated exactly
through the symplectic exponential of the linearised system; separable
nonlinear Hamiltonians go through a fourth-order splitting integrator whose
tangent map is the exact derivative of the numerical flow, so Jacobians stay
symplectic to machine precision.

The inverted oscillator H = p^2/2 - Omega^2 q^2/2 serves as the analytic
oracle: its flow, transported displacements and hyperbolic response matrix
are all closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .generators import DisplacementVector, _quadratic_flow, symplectic_form
from .response import LyapunovEstimate, ResponseMatrix

__all__ = [
    "QuadraticHamiltonian",
    "SeparableHamiltonian",
    "PhaseSpaceFlow",
    "GaussianWignerState",
    "IntegratorConfig",
    "QRConfig",
    "evolve_flow",
    "jacobian_matrix",
    "classical_lyapunov",
    "evolve_wigner_gaussian",
    "iho_response_analytic",
    "iho_displacement_analytic",
    "inverted_oscillator",
    "harmonic_oscillator",
    "free_particle",
    "quartic_oscillator",
    "hamiltonian_from_name",
    "symplectic_form",
]


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """H(z) = 1/2 z^T A z with symmetric A over z = (q_1..q_N, p_1..p_N)."""

    quadratic_form: np.ndarray
    omega: float | None = None
    name: str = "quadratic"

    def __post_init__(self):
        a = np.asarray(self.quadratic_form, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
            raise ValueError("quadratic form must be a 2N x 2N matrix")
        if np.abs(a - a.T).max() > 1e-12:
            raise ValueError("quadratic form must be symmetric")
        object.__setattr__(self, "quadratic_form", a)

    @property
    def n_modes(self) -> int:
        return self.quadratic_form.shape[0] // 2

    def value(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return 0.5 * float(z @ self.quadratic_form @ z)

    def gradient(self, z) -> np.ndarray:
        return self.quadratic_form @ np.asarray(z, dtype=float)

    def flow_matrix(self, t: float) -> np.ndarray:
        """Exact propagator S(t) = exp(t J A) of the linear flow."""
        j = symplectic_form(self.n_modes)
        return expm(t * (j @ self.quadratic_form))

    def as_separable(self) -> "SeparableHamiltonian":
        """Splitting-integrator view; requires no q-p cross terms."""
        n = self.n_modes
        a = self.quadratic_form
        if np.abs(a[:n, n:]).max() > 0:
            raise ValueError("quadratic form couples q and p; not separable")
        aq = a[:n, :n]
        ap = a[n:, n:]
        return SeparableHamiltonian(
            grad_potential=lambda q: aq @ q,
            grad_kinetic=lambda p: ap @ p,
            hess_potential=lambda q: aq,
            hess_kinetic=lambda p: ap,
            value=lambda q, p: 0.5 * float(q @ aq @ q + p @ ap @ p),
            name=self.name,
        )


@dataclass(frozen=True, eq=False)
class SeparableHamiltonian:
    """H(q, p) = T(p) + V(q) given through gradients and Hessians."""

    grad_potential: Callable[[np.ndarray], np.ndarray]
    grad_kinetic: Callable[[np.ndarray], np.ndarray]
    hess_potential: Callable[[np.ndarray], np.ndarray]
    hess_kinetic: Callable[[np.ndarray], np.ndarray]
    value: Callable[[np.ndarray, np.ndarray], float]
    name: str = "separable"


def inverted_oscillator(omega: float) -> QuadraticHamiltonian:
    """H = p^2/2 - omega^2 q^2/2, the hyperbolic instability archetype."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return QuadraticHamiltonian(np.diag([-omega**2, 1.0]), omega=omega, name="iho")


def harmonic_oscillator(omega: float) -> QuadraticHamiltonian:
    """H = p^2/2 + omega^2 q^2/2, the bounded regular control case."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return QuadraticHamiltonian(np.diag([omega**2, 1.0]), omega=omega, name="harmonic")


def free_particle() -> QuadraticHamiltonian:
    """H = p^2/2; algebraic shear, zero exponents."""
    return QuadraticHamiltonian(np.diag([0.0, 1.0]), omega=None, name="free")


def quartic_oscillator(stiffness: float = 1.0) -> SeparableHamiltonian:
    """H = p^2/2 + stiffness * q^4/4, the nonlinear desk-scale test system."""

    def grad_v(q):
        return stiffness * q**3

    def hess_v(q):
        return np.diag(np.atleast_1d(3.0 * stiffness * q**2))

    return SeparableHamiltonian(
        grad_potential=grad_v,
        grad_kinetic=lambda p: p,
        hess_potential=hess_v,
        hess_kinetic=lambda p: np.eye(np.atleast_1d(p).size),
        value=lambda q, p: float(0.5 * p @ p + 0.25 * stiffness * np.sum(q**4)),
        name="quartic",
    )


def hamiltonian_from_name(name: str, omega: float = 1.0, stiffness: float = 1.0):
    table = {
        "iho": lambda: inverted_oscillator(omega),
        "harmonic": lambda: harmonic_oscillator(omega),
        "free": lambda: free_particle(),
        "quartic": lambda: quartic_oscillator(stiffness),
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown system {name!r}; "
                         f"pick one of {sorted(table)}") from None


# ---------------------------------------------------------------------------
# flows and tangent maps


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step fourth-order splitting integrator settings."""

    step: float = 1e-3


@dataclass(frozen=True, eq=False)
class PhaseSpaceFlow:
    """A sampled trajectory with its tangent-map Jacobians."""

    times: np.ndarray
    points: np.ndarray     # (m, 2N)
    jacobians: np.ndarray  # (m, 2N, 2N)
    x0: np.ndarray
    name: str = ""

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]

    @property
    def final_jacobian(self) -> np.ndarray:
        return self.jacobians[-1]


# relative energy drift above which a splitting run is rejected
_ENERGY_TOL = 1e-6

# Forest-Ruth splitting coefficients (drifts interleaved with kicks)
_FR_GAMMA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_FR_DRIFTS = (0.5 * _FR_GAMMA, 0.5 * (1.0 - _FR_GAMMA),
              0.5 * (1.0 - _FR_GAMMA), 0.5 * _FR_GAMMA)
_FR_KICKS = (_FR_GAMMA, 1.0 - 2.0 * _FR_GAMMA, _FR_GAMMA)


def _split_step(h: SeparableHamiltonian, q, p, jac, dt):
    """One Forest-Ruth step; the tangent map is the exact step derivative."""
    n = q.size
    for stage in range(4):
        c = _FR_DRIFTS[stage] * dt
        hk = h.hess_kinetic(p)
        q = q + c * h.grad_kinetic(p)
        jac = jac.copy()
        jac[:n] = jac[:n] + c * hk @ jac[n:]
        if stage < 3:
            d = _FR_KICKS[stage] * dt
            hv = h.hess_potential(q)
            p = p - d * h.grad_potential(q)
            jac[n:] = jac[n:] - d * hv @ jac[:n]
    return q, p, jac


def _integrate_separable(h: SeparableHamiltonian, x0: np.ndarray, t: float,
                         cfg: IntegratorConfig, sample_times: np.ndarray):
    n = x0.size // 2
    q, p = x0[:n].copy(), x0[n:].copy()
    jac = np.eye(2 * n)
    e0 = h.value(q, p)
    points = [x0.copy()]
    jacs = [jac.copy()]
    taken = [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for target in sample_times[1:]:
            t_now = taken[-1]
            span = target - t_now
            if span != 0.0:
                n_steps = max(1, int(math.ceil(abs(span) / cfg.step)))
                dt = span / n_steps
                if abs(dt) < 1e-15:
                    raise RuntimeError("integrator step size underflow")
                for _ in range(n_steps):
                    q, p, jac = _split_step(h, q, p, jac, dt)
            points.append(np.concatenate([q, p]))
            jacs.append(jac.copy())
            taken.append(target)
        drift = abs(h.value(q, p) - e0) / max(1.0, abs(e0))
    if not np.isfinite(drift) or drift > _ENERGY_TOL:
        raise RuntimeError(f"energy drift {drift:.2e} beyond tolerance; "
                           f"reduce the integrator step")
    return np.asarray(taken), np.stack(points), np.stack(jacs)


def evolve_flow(hamiltonian, x0, t: float,
                integrator: IntegratorConfig | None = None,
                n_samples: int = 2) -> PhaseSpaceFlow:
    """Trajectory of an initial point with tangent-map Jacobians.

    Quadratic Hamiltonians are propagated exactly through their symplectic
    exponential; separable nonlinear ones through the splitting integrator.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n_samples = max(2, int(n_samples))
    times = np.linspace(0.0, t, n_samples)
    if isinstance(hamiltonian, QuadraticHamiltonian):
        mats = np.stack([hamiltonian.flow_matrix(tk) for tk in times])
        points = np.einsum("kij,j->ki", mats, x0)
        return PhaseSpaceFlow(times=times, points=points, jacobians=mats,
                              x0=x0, name=hamiltonian.name)
    if isinstance(hamiltonian, SeparableHamiltonian):
        cfg = integrator or IntegratorConfig()
        taken, points, jacs = _integrate_separable(hamiltonian, x0, t, cfg, times)
        return PhaseSpaceFlow(times=taken, points=points, jacobians=jacs,
                              x0=x0, name=hamiltonian.name)
    raise TypeError("hamiltonian must be QuadraticHamiltonian or SeparableHamiltonian")


def jacobian_matrix(hamiltonian, x0, t: float,
                    integrator: IntegratorConfig | None = None) -> np.ndarray:
    """Forward tangent map of the flow at x0 over time t.

    For quadratic Hamiltonians this is the flow matrix itself; the backward
    map of the underlying density transport is its symplectic inverse.
    """
    return evolve_flow(hamiltonian, x0, t, integrator).final_jacobian


# ---------------------------------------------------------------------------
# Lyapunov spectrum, tangent-vector route


@dataclass(frozen=True)
class QRConfig:
    """Tangent-bundle evolution with periodic QR re-orthonormalisation."""

    step: float = 0.01
    renorm_every: int = 10
    min_renorms: int = 50


def classical_lyapunov(hamiltonian, x0, t_total: float,
                       cfg: QRConfig = QRConfig()) -> LyapunovEstimate:
    """Lyapunov exponents by tangent-vector evolution with QR renormalisation.

    The exponents are the time averages of the log diagonal of the R factors;
    the residual reports the spread of block estimates over the second half
    of the run, a practical convergence check.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.size
    n_blocks = int(math.floor(t_total / (cfg.step * cfg.renorm_every)))
    if n_blocks < cfg.min_renorms:
        raise ValueError(
            f"t_total too short: {n_blocks} QR blocks < {cfg.min_renorms}")
    block_t = cfg.step * cfg.renorm_every
    quadratic = isinstance(hamiltonian, QuadraticHamiltonian)
    if quadratic:
        # the exact flow is a group: one block is one map
        block_map = hamiltonian.flow_matrix(block_t)
    else:
        q, p = x0[:dim // 2].copy(), x0[dim // 2:].copy()
    q_mat = np.eye(dim)
    diags = np.empty((n_blocks, dim))
    for b in range(n_blocks):
        if quadratic:
            jac = block_map
        else:
            jac = np.eye(dim)
            for _ in range(cfg.renorm_every):
                q, p, jac = _split_step(hamiltonian, q, p, jac, cfg.step)
        q_mat, r = np.linalg.qr(jac @ q_mat)
        diags[b] = np.diag(r)
        q_mat = q_mat * np.where(diags[b] < 0, -1.0, 1.0)
    increments = np.log(np.abs(diags))
    total_t = n_blocks * block_t
    lam = np.sort(increments.sum(axis=0) / total_t)[::-1]
    tail = increments[n_blocks // 2:] / block_t
    residual = float(np.sqrt(np.mean((np.sort(tail, axis=1)[:, ::-1]
                                      - lam) ** 2)))
    return LyapunovEstimate(lambdas=lam,
                            times=np.linspace(0.0, total_t, n_blocks + 1),
                            fit_window=(0.0, total_t), residual=residual)


# ---------------------------------------------------------------------------
# Gaussian Wigner states


@dataclass(frozen=True, eq=False)
class GaussianWignerState:
    """A Gaussian quasi-probability state: mean and covariance over (q, p)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.size, mean.size) or mean.size % 2:
            raise ValueError("covariance must be 2N x 2N matching the mean")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric")
        eig = np.linalg.eigvalsh(cov)
        if eig.min() <= 0:
            raise ValueError("covariance must be positive definite")
        n = mean.size // 2
        if np.linalg.det(cov) < 0.5 ** (2 * n) - 1e-12:
            raise ValueError("covariance violates the uncertainty bound")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    @classmethod
    def vacuum(cls, n_modes: int = 1) -> "GaussianWignerState":
        return cls(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))

    def shifted(self, delta) -> "GaussianWignerState":
        return GaussianWignerState(self.mean + np.asarray(delta, float),
                                   self.covariance)


def evolve_wigner_gaussian(state: GaussianWignerState,
                           hamiltonian: QuadraticHamiltonian,
                           t: float) -> GaussianWignerState:
    """Exact Liouville transport of a Gaussian under a quadratic Hamiltonian.

    The density is constant along trajectories, so the mean rides the flow
    and the covariance transforms by symplectic congruence.
    """
    s = _quadratic_flow(hamiltonian, state.n_modes, t)
    return GaussianWignerState(s @ state.mean, s @ state.covariance @ s.T)


# ---------------------------------------------------------------------------
# closed-form oscillator oracles


def _oscillator_flow(system: str, omega: float, t: float) -> np.ndarray:
    """Closed-form flow map S(t) of the "iho", "harmonic" or "free" system."""
    if system == "free":
        return np.array([[1.0, t], [0.0, 1.0]])
    if omega <= 0:
        raise ValueError("omega must be positive")
    if system == "iho":
        ch, sh = math.cosh(omega * t), math.sinh(omega * t)
        return np.array([[ch, sh / omega], [omega * sh, ch]])
    c, sn = math.cos(omega * t), math.sin(omega * t)
    return np.array([[c, sn / omega], [-omega * sn, c]])


def iho_response_analytic(omega: float, t: float) -> ResponseMatrix:
    """Closed-form hyperbolic response matrix S(t)^T of the inverted oscillator."""
    return ResponseMatrix(flavor="unitary", entries=_oscillator_flow("iho", omega, t).T,
                          time=float(t), labels=("x", "p"))


def iho_displacement_analytic(eps1: float, eps2: float, omega: float,
                              t: float) -> DisplacementVector:
    """Closed-form transported displacement S(t) (eps1, eps2) for the inverted oscillator."""
    a, b = _oscillator_flow("iho", omega, t) @ np.array([eps1, eps2])
    return DisplacementVector(np.array([a]), np.array([b]))
