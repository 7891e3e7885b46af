"""Weighted cost functions, protocol paths and geodesic complexity solvers.

A protocol path is a piecewise-constant control schedule Y^I(sigma) on
sigma in [0, 1]; its endpoint is the ordered product of per-interval matrix
exponentials and its cost is the weighted path length

    F = sum_k dsigma * sqrt(sum_I w_I (Y_k^I)**2).

The unitary complexity of a target is the minimal cost over paths reaching
it (modulo global phase when the identity direction is free).  Two solvers
are provided and cross-checked: a shooting method on the geodesic flow of
the right-invariant weighted metric, and a direct quasi-Newton optimisation
of the discretised path.  The straight-line Heisenberg case is closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg import logm
from scipy.optimize import minimize

from .generators import (
    HERMITICITY_TOL,
    MATRIX,
    PAULI_MATRICES,
    PHASE_SPACE,
    DisplacementVector,
    GeneratorSet,
    _check_canonical,
    _commutator_table,
    heisenberg_generators,
)

__all__ = [
    "CostWeights",
    "ProtocolPath",
    "GeodesicResult",
    "SolverConfig",
    "path_endpoint",
    "path_cost",
    "unitary_complexity",
    "direct_path_complexity",
    "state_complexity",
    "partial_complexity",
    "heisenberg_complexity",
    "projective_distance",
    "bloch_vector",
]

SOLVER_DIM_CAP = 8
# phase-free endpoint residual below which a solve counts as converged, and
# the length gap within which two converged solutions tie
TOL_ENDPOINT = 1e-8
TOL_LENGTH = 1e-8
# the multistart scan shoots at weighted radii r * k, k = 1..this, with r = pi
# for a unitary target and pi / 4 for a state
MAX_RADIUS_MULTIPLE = 3
# relative singular value below which a costed direction only rephases a state
RANK_TOL = 1e-10

# Gauss-Legendre nodes / weights for the 4th-order commutator-free propagator
_GAUSS_LO = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + math.sqrt(3.0) / 6.0
_CF4_A = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_CF4_B = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0


# ---------------------------------------------------------------------------
# weights, paths, results


@dataclass(frozen=True)
class CostWeights:
    """Positive per-generator weights; the identity direction is free."""

    weights: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))
        for label, w in self.weights.items():
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"weight for {label!r} must be finite and >= 0")

    @classmethod
    def isotropic(cls, gens: GeneratorSet, value: float = 1.0) -> "CostWeights":
        w = {label: value for label in gens.labels}
        if gens.identity_index is not None:
            w[gens.generators[gens.identity_index].label] = 0.0
        return cls(w)

    def weight(self, label: str) -> float:
        try:
            return self.weights[label]
        except KeyError:
            raise KeyError(f"no cost weight for generator {label!r}") from None

    def vector(self, labels: Sequence[str]) -> np.ndarray:
        return np.array([self.weight(l) for l in labels], dtype=float)

    def validate_for(self, gens: GeneratorSet) -> None:
        for i, g in enumerate(gens):
            w = self.weight(g.label)
            if i == gens.identity_index:
                if w != 0.0:
                    raise ValueError("identity weight must be 0")
            elif w <= 0.0:
                raise ValueError(f"weight for {g.label!r} must be > 0")

    def scaled(self, factor: float) -> "CostWeights":
        return CostWeights({k: v * factor for k, v in self.weights.items()})


@dataclass(frozen=True, eq=False)
class ProtocolPath:
    """Piecewise-constant control schedule on a uniform grid over [0, 1]."""

    labels: tuple[str, ...]
    values: np.ndarray  # (n_intervals, n_labels)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[1] != len(self.labels):
            raise ValueError("control array width must match number of labels")
        if not np.all(np.isfinite(v)):
            raise ValueError("controls must be finite")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, labels: Sequence[str], values: Sequence[float],
                 n_intervals: int = 1) -> "ProtocolPath":
        row = np.asarray(values, dtype=float)
        return cls(tuple(labels), np.tile(row, (n_intervals, 1)))

    @property
    def n_intervals(self) -> int:
        return self.values.shape[0]

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_intervals + 1)

    def control(self, label: str) -> np.ndarray:
        try:
            j = self.labels.index(label)
        except ValueError:
            raise KeyError(f"path has no control for {label!r}") from None
        return self.values[:, j]

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "values": self.values.tolist()}

    @classmethod
    def from_json(cls, doc: dict) -> "ProtocolPath":
        return cls(tuple(doc["labels"]), np.asarray(doc["values"], dtype=float))


@dataclass(frozen=True, eq=False)
class GeodesicResult:
    """A solved minimal protocol: path, length and per-generator content."""

    path: ProtocolPath
    length: float
    partials: dict[str, float]
    endpoint_residual: float
    converged: bool
    multiplicity: int = 1
    method: str = ""

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "partials": dict(self.partials),
            "endpoint_residual": self.endpoint_residual,
            "converged": self.converged,
            "multiplicity": self.multiplicity,
            "method": self.method,
            "path": self.path.to_json(),
        }


def _result(labels: Sequence[str], values, method: str, partials=None,
            length: float = math.inf, residual: float = 1.0,
            multiplicity: int = 1) -> GeodesicResult:
    """The result whose path has the controls values (n_intervals, n) on labels.

    Without partials it is a failed solve: nan partials, infinite length,
    endpoint residual 1, not converged.
    """
    if partials is None:
        partials = np.full(len(labels), math.nan)
    return GeodesicResult(
        path=ProtocolPath(tuple(labels), values), length=float(length),
        partials={l: float(p) for l, p in zip(labels, partials)},
        endpoint_residual=float(residual), converged=math.isfinite(length),
        multiplicity=multiplicity, method=method)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the geodesic solvers.

    ``n_starts`` shooting velocities are scanned (a Fibonacci sphere for
    three costed generators, seeded Gaussian directions otherwise) at
    weighted radii r * k, k = 1..MAX_RADIUS_MULTIPLE (r = pi for a unitary
    target, pi / 4 for a state), on top of the principal-log candidates.
    The best scan candidates are polished by damped least squares on a
    phase-free endpoint residual.  The direct optimiser is the
    piecewise-constant fallback; ``direct_fallback`` may be "always",
    "auto" (only when shooting fails) or "never".
    """

    n_starts: int = 200
    n_intervals: int = 64
    max_iters: int = 60
    seed: int = 0
    n_restarts_direct: int = 10
    direct_max_iters: int = 600
    ode_steps: int = 240
    n_refine: int = 6
    direct_fallback: str = "always"

    def __post_init__(self):
        minima = dict(n_starts=1, n_intervals=1, max_iters=0, seed=0,
                      n_restarts_direct=1, direct_max_iters=1, ode_steps=1, n_refine=1)
        for name, low in minima.items():
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.direct_fallback not in ("always", "auto", "never"):
            raise ValueError(f"unknown direct_fallback {self.direct_fallback!r}")

    @classmethod
    def from_json(cls, doc: dict | str) -> "SolverConfig":
        if isinstance(doc, str):
            doc = json.loads(doc)
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


DEFAULT_SOLVER = SolverConfig()


# ---------------------------------------------------------------------------
# elementary path operations


def path_endpoint(path: ProtocolPath, gens: GeneratorSet) -> np.ndarray:
    """Endpoint unitary of a piecewise-constant protocol.

    Later intervals compose on the left, matching the time-ordered
    exponential with sigma increasing from 0 to 1.
    """
    if gens.kind != MATRIX:
        raise ValueError("path_endpoint needs matrix generators; "
                         "use the displacement pipeline for phase-space sets")
    cols = [path.control(g.label) for g in gens]
    return _endpoint(np.stack(cols, axis=1), gens.matrices())


def _endpoint(controls: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Ordered product of exp(-i ds y_k . M) over the rows y_k of controls (n, n_gens)."""
    ds = 1.0 / controls.shape[0]
    return _ordered_product(_exp_hermitian(ds * np.tensordot(controls, mats, axes=(1, 0))))


def path_cost(path: ProtocolPath, weights: CostWeights) -> float:
    """Weighted length of a piecewise-constant path (non-negative)."""
    return _length(path.values, weights.vector(path.labels))


def _length(values: np.ndarray, w: np.ndarray) -> float:
    """Weighted length of the controls values (n_intervals, n) under weights w."""
    ds = 1.0 / values.shape[0]
    return float(np.sum(ds * np.sqrt(np.sum(w * values**2, axis=1))))


def partial_complexity(result: GeodesicResult, label: str) -> float:
    """Signed generator content of a solved path: integral of Y^label."""
    if label not in result.partials:
        raise KeyError(f"unknown generator label {label!r}")
    return result.partials[label]


def projective_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-free endpoint mismatch 1 - |tr(u^dag v)| / dim.

    Zero iff the unitaries agree up to a global phase; for small mismatch
    it scales as half the squared rotation angle, so machine-exact matches
    sit around 1e-15 and a 1e-8 gate is a strict but attainable criterion.
    """
    d = u.shape[0]
    overlap = abs(np.trace(u.conj().T @ v)) / d
    return max(0.0, 1.0 - overlap)


def bloch_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.array([(psi.conj() @ (m @ psi)).real for m in PAULI_MATRICES.values()])


# ---------------------------------------------------------------------------
# straight-line Heisenberg geodesics


def heisenberg_complexity(d: DisplacementVector, weights: CostWeights,
                          gens: GeneratorSet | None = None) -> GeodesicResult:
    """Minimal geodesic realising a Heisenberg displacement.

    The optimal protocol is the straight line in displacement coordinates:
    partials equal the coefficients (a_i along position generators, b_i
    along momentum), the length is the weighted Euclidean norm and the
    phase component is free.  The costed generators must be the canonical
    basis q_1..q_N, p_1..p_N (a ``ValueError`` otherwise).
    """
    n = d.n_modes
    if gens is None:
        gens = heisenberg_generators(n)
    if gens.kind != PHASE_SPACE or gens.n_modes != n:
        raise ValueError("generator set does not match the displacement")
    _check_canonical(gens)
    q_labels = list(gens.costed_labels()[:n])
    p_labels = list(gens.costed_labels()[n:])
    id_label = (gens.generators[gens.identity_index].label
                if gens.identity_index is not None else None)
    labels = q_labels + p_labels + ([id_label] if id_label is not None else [])
    coeffs = list(d.a) + list(d.b) + ([d.phase] if id_label is not None else [])
    if id_label is not None and weights.weights.get(id_label, 0.0) != 0.0:
        raise ValueError("the identity direction must carry zero cost")
    wq = weights.vector(q_labels)
    wp = weights.vector(p_labels)
    length = math.sqrt(float(wq @ d.a**2 + wp @ d.b**2))
    return _result(labels, [coeffs], "closed_form", coeffs, length, 0.0)


# ---------------------------------------------------------------------------
# structure constants and the geodesic flow


def _structure_constants(gens: GeneratorSet) -> np.ndarray:
    """Real g with [M_a, M_c] = i sum_d g[a, c, d] M_d over the costed generators.

    Raises if they do not close under commutation.
    """
    mats = gens._costed_basis[0]
    norms = np.linalg.norm(mats, axis=(1, 2))
    # -i [M_a, M_c] is Hermitian and, if the set closes, in the span up to
    # rounding of the size |M_a| |M_c|
    g, closed = gens._span_coordinates(-1j * _commutator_table(mats, mats),
                                       scale=np.outer(norms, norms))
    if not closed.all():
        raise ValueError("generator set is not closed under commutation; "
                         "the geodesic flow is not defined on its span")
    return g


def _flow_tensor(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The velocity equation dy/ds = vec(y y^T) @ K as one (n*n, n) matrix K.

    K[(a, d), c] = -g[a, c, d] w_d / w_c folds the structure constants and
    the weights of the right-invariant metric into a single matmul.
    """
    n = w.size
    return -(g.transpose(0, 2, 1) * w[None, :, None]).reshape(n * n, n) / w


def _geodesic_rhs(y: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Velocity equation of the right-invariant weighted metric."""
    n = y.shape[-1]
    return (y[..., :, None] * y[..., None, :]).reshape(*y.shape[:-1], n * n) @ k


def _exp_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for a batch of Hermitian matrices (..., d, d).

    A 2x2 h = tau I + h0 (h0 traceless, r^2 = -det h0) has the closed form
    e^{-i tau} (cos r I - i sin(r)/r h0), written entrywise; larger
    matrices go through eigh.
    """
    if h.shape[-2:] != (2, 2):
        return _eigh_exp(h)[0]
    tau = 0.5 * (h[..., 0, 0].real + h[..., 1, 1].real)
    z = 0.5 * (h[..., 0, 0].real - h[..., 1, 1].real)
    off = h[..., 0, 1]
    r = np.hypot(z, np.abs(off))
    phase = np.exp(-1j * tau)
    cos = phase * np.cos(r)
    sinc = -1j * phase * np.sinc(r / math.pi)  # sinc(r / pi) = sin(r) / r
    out = np.empty(h.shape, dtype=complex)
    out[..., 0, 0] = cos + sinc * z
    out[..., 0, 1] = sinc * off
    out[..., 1, 0] = sinc * off.conj()
    out[..., 1, 1] = cos - sinc * z
    return out


def _evolution(hamiltonian, gens: GeneratorSet, t: float) -> np.ndarray:
    """U_t = exp(-i H t) for a Hermitian matrix Hamiltonian on the space of gens."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (gens.dim, gens.dim):
        raise ValueError("Hamiltonian dimension does not match the generators")
    # the closed form of _exp_hermitian reads only the upper triangle
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("Hamiltonian is not Hermitian")
    return _exp_hermitian(h * t)


def _eigh_exp(h: np.ndarray):
    """exp(-i h) by eigh, with the eigenvalues and eigenvectors it came from."""
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * lam)[..., None, :]) @ v.conj().swapaxes(-1, -2), lam, v


def _ordered_product(factors: np.ndarray) -> np.ndarray:
    """F[N-1] @ ... @ F[1] @ F[0] over the leading axis of factors (N, ..., d, d).

    Adjacent factors are multiplied pairwise, halving the stack each round,
    so the ordered product takes log2(N) batched matmuls.
    """
    f = factors
    while f.shape[0] > 1:
        even = f.shape[0] - f.shape[0] % 2
        paired = f[1:even:2] @ f[0:even:2]
        f = paired if even == f.shape[0] else np.concatenate([paired, f[even:]])
    return f[0]


def _ordered_prefixes(factors: np.ndarray) -> np.ndarray:
    """Every ordered prefix F[k] @ ... @ F[0], k = 0..N-1, of factors (N, ..., d, d).

    A doubling scan: after the round with shift s, entry k holds the product
    of the 2s factors ending at k, so log2(N) batched matmuls give all N.
    """
    p = factors.copy()
    shift = 1
    while shift < p.shape[0]:
        p[shift:] = p[shift:] @ p[:-shift]
        shift *= 2
    return p


def _hermite_weights(s: float) -> np.ndarray:
    """Cubic Hermite basis (y1, h f1, y2, h f2) at fraction s of a step."""
    return np.array([2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s,
                     -2 * s**3 + 3 * s**2, s**3 - s**2])


# Hermite weights at the Gauss nodes, combined into the two CF4 exponents
# (first-applied factor, then second) of one step
_CF4_WEIGHTS = np.stack([
    _CF4_B * _hermite_weights(_GAUSS_LO) + _CF4_A * _hermite_weights(_GAUSS_HI),
    _CF4_A * _hermite_weights(_GAUSS_LO) + _CF4_B * _hermite_weights(_GAUSS_HI),
])

# steps exponentiated and folded per batch in _shoot_batch; bounds the
# (2 * chunk, m, d, d) stack of factors held at once
_SHOOT_CHUNK = 16


def _shoot_batch(v: np.ndarray, g: np.ndarray, w: np.ndarray,
                 mats: np.ndarray, n_steps: int):
    """Integrate the geodesic flow from initial velocities v (m, n).

    The velocity equation does not involve the unitary, so the control curve
    is integrated first with a classical RK4 step.  The unitary is then
    carried by a 4th-order commutator-free two-exponential propagator, which
    keeps it exactly unitary: per chunk of steps, the controls at the Gauss
    nodes (cubic Hermite interpolation) give all exponents at once, they are
    exponentiated in one batched call and their ordered product is folded
    into the running unitary.
    Returns endpoints (m, d, d), final velocities and the per-step control
    samples (n_steps + 1, m, n).
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    m, n = v.shape
    d = mats.shape[1]
    h = 1.0 / n_steps
    k = _flow_tensor(g, w)
    ys = np.empty((n_steps + 1, m, n))
    ys[0] = v
    for i in range(n_steps):
        y = ys[i]
        k1 = _geodesic_rhs(y, k)
        k2 = _geodesic_rhs(y + 0.5 * h * k1, k)
        k3 = _geodesic_rhs(y + 0.5 * h * k2, k)
        k4 = _geodesic_rhs(y + h * k3, k)
        ys[i + 1] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    weights = _CF4_WEIGHTS * np.array([h, h * h, h, h * h])
    u = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d))
    for c0 in range(0, n_steps, _SHOOT_CHUNK):
        c1 = min(c0 + _SHOOT_CHUNK, n_steps)
        fs = _geodesic_rhs(ys[c0:c1 + 1], k)
        basis = np.stack([ys[c0:c1], fs[:-1], ys[c0 + 1:c1 + 1], fs[1:]])
        # (steps, 2, m, n) -> time-ordered exponents (2 * steps, m, n)
        exps = np.einsum("eb,bsmn->semn", weights, basis).reshape(-1, m, n)
        factors = _exp_hermitian(np.tensordot(exps, mats, axes=(2, 0)))
        u = _ordered_product(factors) @ u
    return u, ys[n_steps], ys


# ---------------------------------------------------------------------------
# the shooting solver


class _MatrixProblem:
    """Shared machinery for matrix-kind geodesic solves on one generator set."""

    def __init__(self, gens: GeneratorSet, weights: CostWeights, cfg: SolverConfig):
        if gens.kind != MATRIX:
            raise ValueError("matrix-kind generators required")
        if gens.dim > SOLVER_DIM_CAP:
            raise ValueError(f"solver supports dim <= {SOLVER_DIM_CAP}")
        weights.validate_for(gens)
        self.cfg = cfg
        self.gens = gens
        self.labels = list(gens.costed_labels())
        self.mats = gens._costed_basis[0]
        self.w = weights.vector(self.labels)
        self.g = _structure_constants(gens)
        self.dim = gens.dim

    # -- endpoint evaluation ------------------------------------------------

    def shoot(self, v, n_steps=None):
        n_steps = n_steps or self.cfg.ode_steps
        return _shoot_batch(v, self.g, self.w, self.mats, n_steps)

    def footprint(self, u: np.ndarray) -> np.ndarray:
        """Phase-free footprint of u (..., d, d): components of u M_a u^dag."""
        u = u[..., None, :, :]
        moved = u @ self.mats @ u.conj().swapaxes(-1, -2)
        return self.gens._coordinates(moved)

    def log_components(self, u: np.ndarray) -> list[np.ndarray]:
        """Generator components of -i log(u), all phase branches that map back."""
        d = self.dim
        tr = np.trace(u)
        if abs(tr) > 1e-12:
            u0 = u * (abs(tr) / tr)
        else:
            u0 = u
        herms = []
        for extra in range(d):
            phase = np.exp(2j * np.pi * extra / d)
            herms.append(1j * logm(u0 * phase))  # u0 * phase = exp(-i herm)
        comps, inside = self.gens._span_coordinates(np.stack(herms))
        return list(comps[inside])

    # -- start generation ---------------------------------------------------

    def scan_starts(self, rng: np.random.Generator, radius: float) -> np.ndarray:
        n = len(self.labels)
        cfg = self.cfg
        radii = [radius * k for k in range(1, MAX_RADIUS_MULTIPLE + 1)]
        per = max(1, cfg.n_starts // len(radii))
        dirs = []
        if n == 3:
            m = per
            i = np.arange(m)
            golden = (1 + 5**0.5) / 2
            z = 1 - 2 * (i + 0.5) / m
            r = np.sqrt(np.clip(1 - z**2, 0.0, 1.0))
            phi = 2 * np.pi * i / golden
            base = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        else:
            base = rng.normal(size=(per, n))
        for rad in radii:
            norms = np.sqrt(np.sum(self.w * base**2, axis=1))
            dirs.append(base * (rad / norms)[:, None])
        return np.concatenate(dirs, axis=0)


@dataclass(frozen=True, eq=False)
class _Target:
    """What a solve must reach: a unitary modulo phase, or a state's ray.

    The endpoint U is on target when the gap 1 - |tr(q U)| / sqrt(norm)
    vanishes.  ``residual(u, v)`` gives the shooting residual rows of
    endpoints u (m, d, d) shot from velocities v (m, n), and the refine
    stops once its squared norm is below ``cost_tol``.  ``starts`` are the
    informed initial velocities and ``radius`` the unit of the scan radii.
    A converged start no longer than ``short_length`` is the global minimum,
    so it ends the shooting stage before the scan.
    """

    q: np.ndarray
    norm: float
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cost_tol: float
    starts: list[np.ndarray]
    radius: float
    short_length: float = -math.inf

    def gap(self, u: np.ndarray) -> float:
        return max(0.0, 1.0 - abs(np.trace(self.q @ u)) / math.sqrt(self.norm))


def _unitary_target(problem: _MatrixProblem, u_target) -> _Target:
    """Reach u_target modulo phase; residual = its adjoint footprint."""
    u_target = np.asarray(u_target, dtype=complex)
    if u_target.shape != (problem.dim, problem.dim):
        raise ValueError("target dimension does not match the generator set")
    if np.abs(u_target @ u_target.conj().T - np.eye(problem.dim)).max() > 1e-10:
        raise ValueError("target is not unitary")
    adj_target = problem.footprint(u_target)

    def residual(u_end, v):
        return (problem.footprint(u_end) - adj_target).reshape(u_end.shape[0], -1)

    # short-geodesic bound: on a single qubit any competing branch is at
    # least sqrt(w_min) * (pi - L / sqrt(w_min)) long, so a geodesic below
    # 0.45 * pi * sqrt(w_min) is the global minimum
    short = 0.45 * math.pi * math.sqrt(problem.w.min()) if problem.dim == 2 else -math.inf
    # endpoint angles ~3e-7, i.e. endpoint infidelities ~1e-13, comfortably
    # below the convergence gate and above the integration noise floor
    return _Target(q=u_target.conj().T, norm=problem.dim**2, residual=residual,
                   cost_tol=1e-13, starts=problem.log_components(u_target),
                   radius=math.pi, short_length=short)


def _state_target(problem: _MatrixProblem, gens: GeneratorSet,
                  psi_ref: np.ndarray, psi_target: np.ndarray) -> _Target:
    """Reach the coset {U : U psi_ref ~ psi_target} by a minimal geodesic.

    At a minimiser the final momentum W y(1) annihilates the costed
    stabilizer algebra of psi_target (transversality); the conserved
    momentum carries this back to W v annihilating that of psi_ref, a
    linear condition on the initial velocity v.  The residual stacks the
    state mismatch (I - |psi_target><psi_target|) U psi_ref, real and
    imaginary parts, over the rows (I - P_T)(w o v).  The starts are the
    principal logs of the coset points U0 (e^{i chi} P_ref + Q_ref) at four
    chi, projected onto that condition.  A state is at most a Fubini-Study
    angle pi / 2 away, so the scan radii are multiples of pi / 4.  Near that
    angle the end state barely moves with v, so a residual of 3e-7 can leave
    v ~1e-6 off; the refine therefore runs to a squared residual of 1e-21.
    """
    d = problem.dim
    w = problem.w
    transverse = _transverse_projector(psi_ref, gens)
    along = np.eye(len(w)) - transverse
    miss = np.eye(d) - np.outer(psi_target, psi_target.conj())

    def residual(u_end, v):
        off = (u_end @ psi_ref) @ miss.T
        return np.concatenate([off.real, off.imag, (w * v) @ along], axis=1)

    u0 = _connecting_unitary(psi_ref, psi_target)
    proj = np.outer(psi_ref, psi_ref.conj())
    starts = [transverse @ (w * c) / w
              for chi in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
              for c in problem.log_components(u0 @ (np.exp(1j * chi) * proj
                                                    + np.eye(d) - proj))[:1]]
    return _Target(q=np.outer(psi_ref, psi_target.conj()), norm=1.0,
                   residual=residual, cost_tol=1e-21, starts=starts,
                   radius=0.25 * math.pi)


def _transverse_projector(psi: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Orthogonal projector off the costed directions that only rephase psi."""
    moved = gens._costed_basis[0] @ psi
    moved -= np.outer(moved @ psi.conj(), psi)
    tangent = np.concatenate([moved.real, moved.imag], axis=1)  # (m, 2d)
    _, sv, vt = np.linalg.svd(tangent.T)
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    return vt[:rank].T @ vt[:rank]


def _refine_many(problem: _MatrixProblem, seeds: np.ndarray,
                 target: _Target) -> np.ndarray:
    """Damped Gauss-Newton on the shooting residual, all seeds at once.

    Every iteration folds the finite-difference Jacobian stencils of all
    still-active seeds into a single batched integration; a seed whose trial
    step fails only has its damping raised and is retried next round.
    """
    cfg = problem.cfg
    v = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    k, n = v.shape
    fd = 1e-6
    eye = np.eye(n)
    damping = np.full(k, 1e-4)
    active = np.ones(k, dtype=bool)

    def resid_batch(vs: np.ndarray) -> np.ndarray:
        u, _, _ = problem.shoot(vs)
        return target.residual(u, vs)

    r = resid_batch(v)
    cost = np.einsum("km,km->k", r, r)
    for _ in range(cfg.max_iters):
        act = np.flatnonzero(active & (cost > target.cost_tol))
        if act.size == 0:
            break
        probes = np.concatenate([v[act, None, :] + fd * eye[None, :, :],
                                 v[act, None, :] - fd * eye[None, :, :]],
                                axis=1)
        rr = resid_batch(probes.reshape(-1, n)).reshape(act.size, 2 * n, -1)
        jac = (rr[:, :n] - rr[:, n:]).transpose(0, 2, 1) / (2.0 * fd)
        jtj = np.einsum("amn,amp->anp", jac, jac)
        jtr = np.einsum("amn,am->an", jac, r[act])
        lhs = jtj + damping[act, None, None] * eye[None, :, :]
        try:
            step = np.linalg.solve(lhs, -jtr[..., None])[..., 0]
        except np.linalg.LinAlgError:
            damping[act] *= 10.0
            continue
        r_new = resid_batch(v[act] + step)
        cost_new = np.einsum("km,km->k", r_new, r_new)
        better = cost_new < cost[act]
        took = act[better]
        v[took] += step[better]
        r[took] = r_new[better]
        cost[took] = cost_new[better]
        damping[took] = np.maximum(damping[took] / 3.0, 1e-12)
        stuck = act[~better]
        damping[stuck] *= 10.0
        active[stuck[damping[stuck] > 1e9]] = False
    return v


def _refined_candidates(problem: _MatrixProblem, seeds: Sequence[np.ndarray],
                        target: _Target):
    """Refine the seeds and shoot them once: (length, endpoint residual,
    partials, control curve) of each refined velocity."""
    vs = _refine_many(problem, seeds, target)
    u, _, samples = problem.shoot(vs)
    # trapezoid integral of the control curve = signed partials
    partials = np.trapezoid(samples, dx=1.0 / (samples.shape[0] - 1), axis=0)
    return [(_length(v[None], problem.w), target.gap(u[i]),
             partials[i], samples[:, i, :]) for i, v in enumerate(vs)]


def _downsample(traj: np.ndarray, n_intervals: int) -> np.ndarray:
    """Interval averages of a finely sampled control curve."""
    n_fine = traj.shape[0] - 1
    n_intervals = min(n_intervals, n_fine)
    mids = 0.5 * (traj[:-1] + traj[1:])  # (n_fine, n)
    edges = np.linspace(0, n_fine, n_intervals + 1).astype(int)
    return np.stack([mids[a:b].mean(axis=0) for a, b in zip(edges[:-1], edges[1:])])


def _solve_shooting(problem: _MatrixProblem, target: _Target,
                    rng: np.random.Generator) -> GeodesicResult:
    """Refine shooting candidates and fold them into the best geodesic.

    Each refined set is shot once; that shot serves both the short-geodesic
    stop and the final pick.
    """
    cfg = problem.cfg
    candidates = (_refined_candidates(problem, target.starts, target)
                  if target.starts else [])
    if not any(resid <= TOL_ENDPOINT and length <= target.short_length
               for length, resid, _, _ in candidates):
        scan = problem.scan_starts(rng, target.radius)
        # one radius at a time: a shot's temporaries grow with its batch
        resids = np.array([target.gap(u) for group in np.split(scan, MAX_RADIUS_MULTIPLE)
                           for u in problem.shoot(group, max(48, cfg.ode_steps // 4))[0]])
        picked: list[np.ndarray] = []
        for i in np.argsort(resids):
            v = scan[i]
            if all(np.linalg.norm(v - p) > 1e-3 for p in picked):
                picked.append(v)
            if len(picked) >= cfg.n_refine:
                break
        candidates += _refined_candidates(problem, picked, target)

    candidates = [c for c in candidates if c[1] <= TOL_ENDPOINT]
    if not candidates:
        return _result(problem.labels, np.zeros((cfg.n_intervals, len(problem.labels))),
                       "failed")
    lmin = min(c[0] for c in candidates)
    ties = [c for c in candidates if c[0] <= lmin + TOL_LENGTH]
    # deterministic branch: lexicographically smallest partial vector
    ties.sort(key=lambda c: tuple(np.round(c[2], 9)))
    distinct = 1
    for a, b in zip(ties[:-1], ties[1:]):
        if np.abs(a[2] - b[2]).max() > 1e-6:
            distinct += 1
    length, resid, partials, traj = ties[0]
    return _result(problem.labels, _downsample(traj, cfg.n_intervals), "euler_arnold",
                   partials, length, resid, distinct)


def _solve(problem: _MatrixProblem, target: _Target) -> GeodesicResult:
    """Shooting, then the direct stage as ``direct_fallback`` says; the shorter wins."""
    cfg = problem.cfg
    rng = np.random.default_rng(cfg.seed)
    # identity shortcut: nothing to solve this close to the identity
    if target.gap(np.eye(problem.dim)) <= 1e-14:
        zeros = np.zeros((cfg.n_intervals, len(problem.labels)))
        return _result(problem.labels, zeros, "trivial", zeros[0], 0.0, 0.0)
    result = _solve_shooting(problem, target, rng)
    if cfg.direct_fallback == "always" or (
            cfg.direct_fallback == "auto" and not result.converged):
        direct = _direct_optimize(problem, target, rng)
        # prefer the flow solution within integration noise of a tie; a
        # failed stage has infinite length
        if direct.length < result.length - 10 * TOL_LENGTH:
            result = direct
    return result


def unitary_complexity(u_target: np.ndarray, gens: GeneratorSet,
                       weights: CostWeights,
                       cfg: SolverConfig = DEFAULT_SOLVER) -> GeodesicResult:
    """Minimal weighted path cost synthesising a target unitary.

    The best geodesic is taken over (i) shooting on the right-invariant
    geodesic flow, seeded from principal-log candidates and a multi-start
    sweep of initial velocities, and (ii) a direct optimisation of a
    piecewise-constant protocol.  Endpoints are matched modulo global phase
    (the identity direction is free).  A non-convergent solve is returned
    with ``converged=False`` rather than raised.
    """
    problem = _MatrixProblem(gens, weights, cfg)
    return _solve(problem, _unitary_target(problem, u_target))


# ---------------------------------------------------------------------------
# direct path optimisation (the oracle route)


def _daleckii_krein(lam: np.ndarray, v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of the derivative of exp(-i h) at h = V diag(lam) V^dag.

    Returns C = V (Gamma o V^dag G V) V^dag for a batch (k, d, d), so that
    tr(G dexp) = -i tr(C E) for the derivative dexp along any direction E.
    Gamma holds the Daleckii-Krein divided differences of exp(-i x) at the
    eigenvalue pairs, Gamma_ab = exp(-i (lam_a + lam_b) / 2)
    sinc((lam_a - lam_b) / 2); the sinc form has no 0/0 on degenerate spectra.
    """
    vh = v.conj().swapaxes(-1, -2)
    gamma = (np.exp(-0.5j * (lam[:, :, None] + lam[:, None, :]))
             * np.sinc((lam[:, :, None] - lam[:, None, :]) / (2.0 * math.pi)))
    return v @ (gamma * (vh @ g @ v)) @ vh


def _direct_objective(x, problem: _MatrixProblem, target: _Target, n_int, mu):
    """Penalised path energy and gradient for the direct optimiser.

    Minimising the energy rather than the length keeps the objective smooth
    and yields constant-speed paths, whose length equals sqrt(energy).  The
    penalty is 1 - |tr(q U)|^2 / norm.  The factors A_k are unitary, so the
    products after interval k follow from the prefixes as U (A_k ... A_0)^dag.
    """
    n_gen = len(problem.labels)
    ds = 1.0 / n_int
    y = x.reshape(n_int, n_gen)
    d = problem.dim
    a, lam, v = _eigh_exp(ds * np.tensordot(y, problem.mats, axes=(1, 0)))
    prefix = _ordered_prefixes(a)  # prefix[k] = A_k ... A_0
    u = prefix[-1]
    before = np.concatenate([np.eye(d, dtype=complex)[None], prefix[:-1]])
    overlap = target.q @ u
    tau = np.trace(overlap)
    pen = 1.0 - (tau * tau.conjugate()).real / target.norm
    # d tau = tr(G_k dA_k), G_k = (A_{k-1} ... A_0) q (A_{N-1} ... A_{k+1})
    gmat = before @ overlap @ prefix.conj().swapaxes(-1, -2)
    c = _daleckii_krein(lam, v, gmat)
    dtau = -1j * ds * np.einsum("kab,jba->kj", c, problem.mats)
    dpen = -(2.0 / target.norm) * (np.conj(tau) * dtau).real
    energy = ds * float(np.sum(problem.w * y * y))
    denergy = 2.0 * ds * (problem.w * y)
    return energy + mu * pen, (denergy + mu * dpen).ravel()


def _direct_optimize(problem: _MatrixProblem, target: _Target,
                     rng: np.random.Generator) -> GeodesicResult:
    cfg = problem.cfg
    n_int = cfg.n_intervals
    n_gen = len(problem.labels)
    best = None
    stable = 0
    for r in range(cfg.n_restarts_direct):
        if r < len(target.starts):
            x0 = np.tile(target.starts[r], (n_int, 1)).ravel()
        else:
            x0 = rng.normal(scale=1.0, size=n_int * n_gen)
        x = x0
        for mu in (1e2, 1e4, 1e6, 1e9):
            res = minimize(_direct_objective, x,
                           args=(problem, target, n_int, mu),
                           jac=True, method="L-BFGS-B",
                           options=dict(maxiter=cfg.direct_max_iters,
                                        ftol=1e-16, gtol=1e-12))
            x = res.x
        y = x.reshape(n_int, n_gen)
        resid = target.gap(_endpoint(y, problem.mats))
        length = _length(y, problem.w)
        if resid <= TOL_ENDPOINT:
            improved = best is None or length < best[0] - TOL_LENGTH
            if best is None or length < best[0]:
                best = (length, resid, y)
            stable = 0 if improved else stable + 1
        # consensus stop: several restarts in a row failed to improve
        if best is not None and stable >= 3 and r >= max(2, len(target.starts)):
            break
    if best is None:
        return _result(problem.labels, np.zeros((n_int, n_gen)), "direct")
    length, resid, y = best
    return _result(problem.labels, y, "direct", y.sum(axis=0) / n_int, length, resid)


def direct_path_complexity(u_target: np.ndarray, gens: GeneratorSet,
                           weights: CostWeights,
                           cfg: SolverConfig = DEFAULT_SOLVER) -> GeodesicResult:
    """The piecewise-constant path optimiser on its own.

    This is the independent oracle route: it never consults the geodesic
    flow, so its length can be compared against ``unitary_complexity`` as a
    two-sided consistency check.
    """
    problem = _MatrixProblem(gens, weights, cfg)
    return _direct_optimize(problem, _unitary_target(problem, u_target),
                            np.random.default_rng(cfg.seed))


# ---------------------------------------------------------------------------
# state complexity


def state_complexity(psi_ref: np.ndarray, psi_target: np.ndarray,
                     gens: GeneratorSet, weights: CostWeights,
                     cfg: SolverConfig = DEFAULT_SOLVER) -> GeodesicResult:
    """Minimal complexity of the unitaries mapping psi_ref onto the psi_target ray.

    The target is the coset {U : U psi_ref ~ psi_target}, solved as one
    boundary-value problem: the end condition is the state match plus the
    transversality condition that the initial momentum annihilate the
    costed stabilizer algebra of psi_ref.  The shooting and direct stages
    are those of ``unitary_complexity``; the direct stage minimises
    1 - |<psi_target|U psi_ref>|^2 in place of the unitary endpoint gap.
    """
    psi_ref = _normalized(psi_ref)
    psi_target = _normalized(psi_target)
    problem = _MatrixProblem(gens, weights, cfg)
    if psi_ref.size != gens.dim or psi_target.size != gens.dim:
        raise ValueError("state dimension does not match the generator set")
    return _solve(problem, _state_target(problem, gens, psi_ref, psi_target))


def _normalized(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("states must be normalized")
    return psi / norm


def _connecting_unitary(psi_a: np.ndarray, psi_b: np.ndarray) -> np.ndarray:
    """Some unitary with U psi_a = psi_b (rotation in their common plane)."""
    d = psi_a.size
    inner = np.vdot(psi_a, psi_b)
    ortho = psi_b - inner * psi_a
    n = np.linalg.norm(ortho)
    if n < 1e-15:
        return (inner / abs(inner)) * np.eye(d)
    # [[inner, -n], [n, inner*]] on span{psi_a, ortho}, identity elsewhere
    plane = np.stack([psi_a, ortho / n], axis=1)
    block = np.array([[inner, -n], [n, np.conj(inner)]])
    return np.eye(d) + plane @ (block - np.eye(2)) @ plane.conj().T
