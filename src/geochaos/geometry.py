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
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import logm
from scipy.optimize import minimize, minimize_scalar

from .generators import (
    MATRIX,
    PHASE_SPACE,
    DisplacementVector,
    GeneratorSet,
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

_PAULI = np.stack([
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
])

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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the geodesic solvers.

    ``n_starts`` shooting velocities are scanned (a Fibonacci sphere for
    three costed generators, seeded Gaussian directions otherwise) at
    weighted radii pi * k, k = 1..max_radius_multiple, on top of the
    principal-log candidates.  The best scan candidates are polished by
    damped least squares on a phase-free endpoint residual.  The direct
    optimiser is the piecewise-constant fallback; ``direct_fallback`` may be
    "always", "auto" (only when shooting fails) or "never".
    """

    n_starts: int = 200
    n_intervals: int = 64
    tol_endpoint: float = 1e-8
    tol_length: float = 1e-8
    max_iters: int = 60
    seed: int = 0
    n_restarts_direct: int = 10
    direct_max_iters: int = 600
    ode_steps: int = 240
    n_refine: int = 6
    max_radius_multiple: int = 3
    direct_fallback: str = "always"
    stabilizer_scan: int = 24

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


def _su2_components(gens: GeneratorSet) -> tuple[np.ndarray, np.ndarray]:
    """Pauli decomposition of each generator: traceless part + identity part."""
    mats = gens.matrices()
    vec = np.einsum("kab,gba->gk", _PAULI, mats).real / 2.0
    trace_part = np.einsum("gaa->g", mats).real / 2.0
    return vec, trace_part


def _su2_exp(y: np.ndarray) -> np.ndarray:
    """exp(-i (y . sigma)) for a batch of Pauli vectors y (..., 3)."""
    y = np.asarray(y, dtype=float)
    theta = np.linalg.norm(y, axis=-1)
    c = np.cos(theta)
    # sin(theta) times the unit axis, written entrywise into the result
    s = y * (np.sin(theta) / np.where(theta < 1e-300, 1.0, theta))[..., None]
    out = np.empty(y.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = c - 1j * s[..., 2]
    out[..., 0, 1] = -s[..., 1] - 1j * s[..., 0]
    out[..., 1, 0] = s[..., 1] - 1j * s[..., 0]
    out[..., 1, 1] = c + 1j * s[..., 2]
    return out


def path_endpoint(path: ProtocolPath, gens: GeneratorSet) -> np.ndarray:
    """Endpoint unitary of a piecewise-constant protocol.

    Later intervals compose on the left, matching the time-ordered
    exponential with sigma increasing from 0 to 1.
    """
    if gens.kind != MATRIX:
        raise ValueError("path_endpoint needs matrix generators; "
                         "use the displacement pipeline for phase-space sets")
    cols = [path.control(g.label) for g in gens]
    controls = np.stack(cols, axis=1)  # (n, n_gens)
    ds = 1.0 / path.n_intervals
    if gens.dim == 2:
        vec, tr = _su2_components(gens)
        phases = np.exp(-1j * ds * controls @ tr)
        steps = _su2_exp(controls @ vec * ds) * phases[:, None, None]
    else:
        steps = _exp_hermitian(ds * np.tensordot(controls, gens.matrices(), axes=(1, 0)))
    return _ordered_product(steps)


def path_cost(path: ProtocolPath, weights: CostWeights) -> float:
    """Weighted length of a piecewise-constant path (non-negative)."""
    w = weights.vector(path.labels)
    ds = 1.0 / path.n_intervals
    return float(np.sum(ds * np.sqrt(np.sum(w * path.values**2, axis=1))))


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
    return np.array([
        (psi.conj() @ (_PAULI[k] @ psi)).real for k in range(3)
    ])


# ---------------------------------------------------------------------------
# straight-line Heisenberg geodesics


def heisenberg_complexity(d: DisplacementVector, weights: CostWeights,
                          gens: GeneratorSet | None = None) -> GeodesicResult:
    """Minimal geodesic realising a Heisenberg displacement.

    The optimal protocol is the straight line in displacement coordinates:
    partials equal the coefficients (a_i along position generators, b_i
    along momentum), the length is the weighted Euclidean norm and the
    phase component is free.
    """
    n = d.n_modes
    if gens is not None:
        if gens.kind != PHASE_SPACE or gens.n_modes != n:
            raise ValueError("generator set does not match the displacement")
        q_labels = list(gens.labels[:n])
        p_labels = list(gens.labels[n:2 * n])
        id_label = (gens.generators[gens.identity_index].label
                    if gens.identity_index is not None else None)
    else:
        q_labels = ["x"] if n == 1 else [f"x{i + 1}" for i in range(n)]
        p_labels = ["p"] if n == 1 else [f"p{i + 1}" for i in range(n)]
        id_label = "id"

    labels = q_labels + p_labels + ([id_label] if id_label is not None else [])
    coeffs = list(d.a) + list(d.b) + ([d.phase] if id_label is not None else [])
    partials = {lab: float(c) for lab, c in zip(labels, coeffs)}
    if id_label is not None and weights.weights.get(id_label, 0.0) != 0.0:
        raise ValueError("the identity direction must carry zero cost")
    wq = np.array([weights.weight(l) for l in q_labels])
    wp = np.array([weights.weight(l) for l in p_labels])
    length = math.sqrt(float(wq @ d.a**2 + wp @ d.b**2))
    path = ProtocolPath.constant(labels, coeffs)
    return GeodesicResult(path=path, length=length, partials=partials,
                          endpoint_residual=0.0, converged=True,
                          method="closed_form")


# ---------------------------------------------------------------------------
# structure constants and the geodesic flow


def _structure_constants(gens: GeneratorSet, indices: Sequence[int],
                         tol: float = 1e-9) -> np.ndarray:
    """Real g with [M_a, M_c] = i sum_d g[a, c, d] M_d over the given indices.

    Raises if the selected generators do not close under commutation.
    """
    mats = np.stack([gens.generators[i].matrix for i in indices])
    m = len(indices)
    gram = np.einsum("iab,jab->ij", mats.conj(), mats).real
    gram_inv = np.linalg.inv(gram)
    g = np.zeros((m, m, m))
    for a in range(m):
        for c in range(m):
            comm = mats[a] @ mats[c] - mats[c] @ mats[a]
            target = -1j * comm  # Hermitian if the set closes
            rhs = np.einsum("dab,ab->d", mats.conj(), target)
            coeff = gram_inv @ rhs.real
            recon = np.einsum("d,dab->ab", coeff, mats)
            if np.abs(recon - target).max() > tol * max(1.0, np.abs(target).max()):
                raise ValueError(
                    "generator set is not closed under commutation; "
                    "the geodesic flow is not defined on its span"
                )
            g[a, c] = coeff
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
    """exp(-i h) for a batch of Hermitian matrices (..., d, d), by eigh."""
    lam, v = np.linalg.eigh(h)
    vh = v.conj().swapaxes(-1, -2)
    v *= np.exp(-1j * lam)[..., None, :]
    return v @ vh


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
                 mats: np.ndarray, n_steps: int,
                 su2_vec: np.ndarray | None,
                 want_path: bool = False):
    """Integrate the geodesic flow from initial velocities v (m, n).

    The velocity equation does not involve the unitary, so the control curve
    is integrated first with a classical RK4 step.  The unitary is then
    carried by a 4th-order commutator-free two-exponential propagator, which
    keeps it exactly unitary: per chunk of steps, the controls at the Gauss
    nodes (cubic Hermite interpolation) give all exponents at once, they are
    exponentiated in one batched call (su(2) closed form at d = 2, eigh
    otherwise) and their ordered product is folded into the running unitary.
    Returns endpoints (m, d, d), final velocities, and the per-step control
    samples (n_steps + 1, m, n) when requested.
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
        if su2_vec is not None:
            factors = _su2_exp(exps @ su2_vec)
        else:
            factors = _exp_hermitian(np.tensordot(exps, mats, axes=(2, 0)))
        u = _ordered_product(factors) @ u
    return u, ys[n_steps], ys if want_path else None


def _adjoint_matrix(u: np.ndarray, mats: np.ndarray, gram_inv: np.ndarray) -> np.ndarray:
    """Phase-free footprint of u (..., d, d): components of u M_a u^dag in the basis."""
    n, d = mats.shape[:2]
    conj = u[..., None, :, :] @ mats @ u.conj().swapaxes(-1, -2)[..., None, :, :]
    overlaps = (conj.reshape(*conj.shape[:-2], d * d)
                @ mats.conj().reshape(n, d * d).T).real
    return overlaps @ gram_inv


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
        self.gens = gens
        self.cfg = cfg
        self.idx = gens.costed_indices()
        self.labels = [gens.generators[i].label for i in self.idx]
        self.mats = np.stack([gens.generators[i].matrix for i in self.idx])
        self.w = np.array([weights.weight(l) for l in self.labels])
        self.g = _structure_constants(gens, self.idx)
        gram = np.einsum("iab,jab->ij", self.mats.conj(), self.mats).real
        self.gram = gram
        self.gram_inv = np.linalg.inv(gram)
        self.dim = gens.dim
        if self.dim == 2:
            sub = GeneratorSet(tuple(gens.generators[i] for i in self.idx))
            # trace parts only shift the global phase, which is quotiented
            self.su2_vec, _ = _su2_components(sub)
        else:
            self.su2_vec = None

    # -- endpoint evaluation ------------------------------------------------

    def shoot(self, v, n_steps=None, want_path=False):
        n_steps = n_steps or self.cfg.ode_steps
        return _shoot_batch(v, self.g, self.w, self.mats, n_steps,
                            self.su2_vec, want_path)

    def weighted_norm(self, v: np.ndarray) -> float:
        return math.sqrt(float(np.sum(self.w * np.asarray(v) ** 2)))

    # -- residuals ----------------------------------------------------------

    def residual_vectors(self, u_end: np.ndarray, adj_target: np.ndarray) -> np.ndarray:
        """Adjoint-footprint residuals of a batch of endpoints (m, d, d)."""
        adj = _adjoint_matrix(u_end, self.mats, self.gram_inv)
        return (adj - adj_target).reshape(u_end.shape[0], -1)

    def log_components(self, u: np.ndarray) -> list[np.ndarray]:
        """Generator components of -i log(u), all phase branches that map back."""
        d = self.dim
        tr = np.trace(u)
        if abs(tr) > 1e-12:
            u0 = u * (abs(tr) / tr)
        else:
            u0 = u
        outs = []
        for extra in range(d):
            phase = np.exp(2j * np.pi * extra / d)
            h = logm(u0 * phase)
            herm = 1j * h  # Hermitian target: u0 * phase = exp(-i herm)
            herm = herm - (np.trace(herm) / d) * np.eye(d)
            comp = self.gram_inv @ np.einsum("dab,ab->d", self.mats.conj(), herm).real
            recon = np.einsum("d,dab->ab", comp, self.mats)
            recon = recon - (np.trace(recon) / d) * np.eye(d)
            if np.abs(recon - herm).max() < 1e-8 * max(1.0, np.abs(herm).max()):
                outs.append(comp)
        return outs

    # -- start generation ---------------------------------------------------

    def scan_starts(self, rng: np.random.Generator) -> np.ndarray:
        n = len(self.idx)
        cfg = self.cfg
        radii = [math.pi * k for k in range(1, cfg.max_radius_multiple + 1)]
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


def _refine_many(problem: _MatrixProblem, seeds: np.ndarray,
                 adj_target: np.ndarray) -> np.ndarray:
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
        return problem.residual_vectors(u, adj_target)

    r = resid_batch(v)
    cost = np.einsum("km,km->k", r, r)
    # adjoint-residual target: endpoint angles ~3e-7, i.e. endpoint
    # infidelities ~1e-13, comfortably below the convergence gate and
    # above the integration noise floor
    target_cost = 1e-13
    for _ in range(cfg.max_iters):
        act = np.flatnonzero(active & (cost > target_cost))
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


def _candidate_results(problem: _MatrixProblem, vs: np.ndarray, u_target: np.ndarray):
    """(length, endpoint residual, partials, control curve) of each velocity."""
    u, _, samples = problem.shoot(vs, want_path=True)
    # trapezoid integral of the control curve = signed partials
    partials = np.trapezoid(samples, dx=1.0 / (samples.shape[0] - 1), axis=0)
    return [(problem.weighted_norm(v), projective_distance(u_target, u[i]),
             partials[i], samples[:, i, :]) for i, v in enumerate(vs)]


def _downsample(traj: np.ndarray, n_intervals: int) -> np.ndarray:
    """Interval averages of a finely sampled control curve."""
    n_fine = traj.shape[0] - 1
    n_intervals = min(n_intervals, n_fine)
    mids = 0.5 * (traj[:-1] + traj[1:])  # (n_fine, n)
    edges = np.linspace(0, n_fine, n_intervals + 1).astype(int)
    return np.stack([mids[a:b].mean(axis=0) for a, b in zip(edges[:-1], edges[1:])])


def _solve_shooting(problem: _MatrixProblem, u_target: np.ndarray,
                    starts: Sequence[np.ndarray], rng: np.random.Generator,
                    multistart: bool = True,
                    log_starts: bool = True) -> GeodesicResult | None:
    """Refine shooting candidates and fold them into the best geodesic."""
    cfg = problem.cfg
    adj_target = _adjoint_matrix(u_target, problem.mats, problem.gram_inv)
    seeds: list[np.ndarray] = list(starts)
    if log_starts or not seeds:
        seeds.extend(problem.log_components(u_target))

    refined_sets: list[np.ndarray] = []
    if seeds:
        refined = _refine_many(problem, np.stack(seeds), adj_target)
        refined_sets.append(refined)
        if multistart and problem.dim == 2:
            # short-geodesic bound: on a single qubit any competing branch
            # is at least sqrt(w_min) * (pi - L / sqrt(w_min)) long, so a
            # converged candidate below 0.45 * pi * sqrt(w_min) is already
            # the global minimum and the multi-start sweep is skipped
            w_min = math.sqrt(problem.w.min())
            u_end, _, _ = problem.shoot(refined)
            if any(projective_distance(u_target, u) <= cfg.tol_endpoint
                   and problem.weighted_norm(v) <= 0.45 * math.pi * w_min
                   for u, v in zip(u_end, refined)):
                multistart = False
    if multistart:
        scan = problem.scan_starts(rng)
        u_scan, _, _ = problem.shoot(scan, n_steps=max(48, cfg.ode_steps // 4))
        resids = np.array([projective_distance(u_target, u) for u in u_scan])
        order = np.argsort(resids)
        picked: list[np.ndarray] = []
        for i in order:
            v = scan[i]
            if all(np.linalg.norm(v - p) > 1e-3 for p in picked):
                picked.append(v)
            if len(picked) >= cfg.n_refine:
                break
        if picked:
            refined_sets.append(_refine_many(problem, np.stack(picked), adj_target))

    if not refined_sets:
        return None
    candidates = [c for c in _candidate_results(
        problem, np.concatenate(refined_sets, axis=0), u_target)
        if c[1] <= cfg.tol_endpoint]
    if not candidates:
        return None
    lengths = np.array([c[0] for c in candidates])
    lmin = lengths.min()
    ties = [c for c in candidates if c[0] <= lmin + cfg.tol_length]
    # deterministic branch: lexicographically smallest partial vector
    ties.sort(key=lambda c: tuple(np.round(c[2], 9)))
    distinct = 1
    for a, b in zip(ties[:-1], ties[1:]):
        if np.abs(a[2] - b[2]).max() > 1e-6:
            distinct += 1
    length, resid, partials, traj = ties[0]
    values = _downsample(traj, cfg.n_intervals)
    path = ProtocolPath(tuple(problem.labels), values)
    return GeodesicResult(
        path=path, length=float(length),
        partials={l: float(p) for l, p in zip(problem.labels, partials)},
        endpoint_residual=float(resid), converged=True,
        multiplicity=distinct, method="euler_arnold")


def _failed_result(labels: Sequence[str], n_intervals: int) -> GeodesicResult:
    path = ProtocolPath.constant(labels, np.zeros(len(labels)), n_intervals)
    return GeodesicResult(path=path, length=math.inf,
                          partials={l: math.nan for l in labels},
                          endpoint_residual=1.0, converged=False,
                          method="failed")


def _solve_unitary(problem: _MatrixProblem, u_target: np.ndarray,
                   warm_starts: Sequence[np.ndarray] = (),
                   multistart: bool = True,
                   log_starts: bool = True) -> GeodesicResult:
    cfg = problem.cfg
    rng = np.random.default_rng(cfg.seed)
    # identity shortcut: nothing to solve this close to the identity
    if projective_distance(u_target, np.eye(problem.dim)) <= 1e-14:
        labels = problem.labels
        path = ProtocolPath.constant(labels, np.zeros(len(labels)), cfg.n_intervals)
        return GeodesicResult(path=path, length=0.0,
                              partials={l: 0.0 for l in labels},
                              endpoint_residual=0.0, converged=True,
                              method="trivial")
    result = _solve_shooting(problem, u_target, warm_starts, rng,
                             multistart, log_starts)
    need_direct = cfg.direct_fallback == "always" or (
        cfg.direct_fallback == "auto" and result is None)
    if need_direct:
        direct = _direct_optimize(problem, u_target, rng)
        # prefer the flow solution within integration noise of a tie
        if direct is not None and (result is None
                                   or direct.length < result.length
                                   - 10 * cfg.tol_length):
            result = direct
    if result is None:
        result = _failed_result(problem.labels, cfg.n_intervals)
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
    u_target = np.asarray(u_target, dtype=complex)
    if u_target.shape != (gens.dim, gens.dim):
        raise ValueError("target dimension does not match the generator set")
    if np.abs(u_target @ u_target.conj().T - np.eye(gens.dim)).max() > 1e-10:
        raise ValueError("target is not unitary")
    return _solve_unitary(problem, u_target)


# ---------------------------------------------------------------------------
# direct path optimisation (the oracle route)


def _su2_exp_and_grad(y: np.ndarray, ds: float):
    """Per-interval exponentials exp(-i ds y.sigma) and their y-gradients."""
    y = np.asarray(y, dtype=float)
    r = np.linalg.norm(y, axis=1)
    theta = ds * r
    small = r < 1e-10
    rs = np.where(small, 1.0, r)
    n = y / rs[:, None]
    c, s = np.cos(theta), np.sin(theta)
    nsig = np.einsum("kj,jab->kab", n, _PAULI)
    a = c[:, None, None] * np.eye(2) - 1j * s[:, None, None] * nsig
    s_over_r = np.where(small, ds, s / rs)
    t1 = -(s * ds)[:, None, None, None] * n[:, :, None, None] * np.eye(2)
    t2 = -1j * (c * ds)[:, None, None, None] * n[:, :, None, None] * nsig[:, None, :, :]
    t3 = -1j * s_over_r[:, None, None, None] * (
        _PAULI[None, :, :, :] - n[:, :, None, None] * nsig[:, None, :, :])
    da = t1 + t2 + t3
    if small.any():
        da[small] = -1j * ds * _PAULI[None, :, :, :]
    return a, da


def _eigh_exp_and_grad(h: np.ndarray, mats: np.ndarray, ds: float):
    """exp(-i ds h) for Hermitian h (k, d, d) and its derivatives along mats.

    With h = V diag(lam) V^dag, the Daleckii-Krein formula gives the
    derivative along M as V (Gamma o V^dag (-i ds M) V) V^dag, where Gamma
    holds the divided differences of exp(-i ds x) at the eigenvalue pairs:
    Gamma_ab = exp(-i ds (lam_a + lam_b) / 2) sinc(ds (lam_a - lam_b) / 2).
    The sinc form has no 0/0 on degenerate spectra.  Returns a (k, d, d)
    and da (k, n_mats, d, d).
    """
    lam, v = np.linalg.eigh(h)
    vh = v.conj().swapaxes(-1, -2)
    a = (v * np.exp(-1j * ds * lam)[:, None, :]) @ vh
    half_gap = 0.5 * ds * (lam[:, :, None] - lam[:, None, :])
    gamma = (np.exp(-0.5j * ds * (lam[:, :, None] + lam[:, None, :]))
             * np.sinc(half_gap / math.pi))
    rotated = vh[:, None] @ (-1j * ds * mats) @ v[:, None]
    da = v[:, None] @ (gamma[:, None] * rotated) @ vh[:, None]
    return a, da


def _direct_objective(x, problem: _MatrixProblem, u_target, n_int, mu):
    """Penalised path energy and gradient for the direct optimiser.

    Minimising the energy rather than the length keeps the objective smooth
    and yields constant-speed paths, whose length equals sqrt(energy).
    """
    n_gen = len(problem.idx)
    ds = 1.0 / n_int
    y = x.reshape(n_int, n_gen)
    d = problem.dim
    if problem.su2_vec is not None:
        ycart = y @ problem.su2_vec
        a, da_cart = _su2_exp_and_grad(ycart, ds)
        # chain rule back to generator coordinates
        da = np.einsum("gj,kjab->kgab", problem.su2_vec, da_cart)
    else:
        a, da = _eigh_exp_and_grad(np.tensordot(y, problem.mats, axes=(1, 0)),
                                   problem.mats, ds)
    prefix = np.empty((n_int, d, d), dtype=complex)
    acc = np.eye(d, dtype=complex)
    for k in range(n_int):
        prefix[k] = acc
        acc = a[k] @ acc
    u = acc
    suffix = np.empty((n_int, d, d), dtype=complex)
    acc = np.eye(d, dtype=complex)
    for k in range(n_int - 1, -1, -1):
        suffix[k] = acc
        acc = acc @ a[k]
    tau = np.trace(u_target.conj().T @ u)
    pen = 1.0 - (tau * tau.conjugate()).real / d**2
    gmat = np.einsum("kab,bc,kcd->kad", prefix, u_target.conj().T, suffix)
    dtau = np.einsum("kad,kjda->kj", gmat, da)
    dpen = -(2.0 / d**2) * (np.conj(tau) * dtau).real
    energy = ds * float(np.sum(problem.w * y * y))
    denergy = 2.0 * ds * (problem.w * y)
    return energy + mu * pen, (denergy + mu * dpen).ravel()


def _direct_optimize(problem: _MatrixProblem, u_target: np.ndarray,
                     rng: np.random.Generator) -> GeodesicResult | None:
    cfg = problem.cfg
    n_int = cfg.n_intervals
    n_gen = len(problem.idx)
    informed = problem.log_components(u_target)
    best = None
    stable = 0
    n_restarts = max(1, cfg.n_restarts_direct)
    for r in range(n_restarts):
        if r < len(informed):
            x0 = np.tile(informed[r], (n_int, 1)).ravel()
        else:
            x0 = rng.normal(scale=1.0, size=n_int * n_gen)
        x = x0
        for mu in (1e2, 1e4, 1e6, 1e9):
            res = minimize(_direct_objective, x,
                           args=(problem, u_target, n_int, mu),
                           jac=True, method="L-BFGS-B",
                           options=dict(maxiter=cfg.direct_max_iters,
                                        ftol=1e-16, gtol=1e-12))
            x = res.x
        y = x.reshape(n_int, n_gen)
        path = ProtocolPath(tuple(problem.labels), y)
        u = path_endpoint(path, _subset(problem.gens, problem.idx))
        resid = projective_distance(u_target, u)
        length = path_cost(path, CostWeights(dict(zip(problem.labels, problem.w))))
        if resid <= max(cfg.tol_endpoint, 1e-9):
            improved = best is None or length < best[0] - cfg.tol_length
            if best is None or length < best[0]:
                best = (length, resid, y)
            stable = 0 if improved else stable + 1
        # consensus stop: several restarts in a row failed to improve
        if best is not None and stable >= 3 and r >= max(2, len(informed)):
            break
    if best is None:
        return None
    length, resid, y = best
    partials = (y.sum(axis=0) / n_int)
    path = ProtocolPath(tuple(problem.labels), y)
    return GeodesicResult(
        path=path, length=float(length),
        partials={l: float(p) for l, p in zip(problem.labels, partials)},
        endpoint_residual=float(resid), converged=True, method="direct")


def _subset(gens: GeneratorSet, indices: Sequence[int]) -> GeneratorSet:
    return GeneratorSet(tuple(gens.generators[i] for i in indices))


def direct_path_complexity(u_target: np.ndarray, gens: GeneratorSet,
                           weights: CostWeights,
                           cfg: SolverConfig = DEFAULT_SOLVER) -> GeodesicResult:
    """The piecewise-constant path optimiser on its own.

    This is the independent oracle route: it never consults the geodesic
    flow, so its length can be compared against ``unitary_complexity`` as a
    two-sided consistency check.
    """
    problem = _MatrixProblem(gens, weights, cfg)
    u_target = np.asarray(u_target, dtype=complex)
    rng = np.random.default_rng(cfg.seed)
    result = _direct_optimize(problem, u_target, rng)
    if result is None:
        labels = problem.labels
        path = ProtocolPath.constant(labels, np.zeros(len(labels)), cfg.n_intervals)
        return GeodesicResult(path=path, length=math.inf,
                              partials={l: math.nan for l in labels},
                              endpoint_residual=1.0, converged=False,
                              method="direct")
    return result


# ---------------------------------------------------------------------------
# state complexity


def state_complexity(psi_ref: np.ndarray, psi_target: np.ndarray,
                     gens: GeneratorSet, weights: CostWeights,
                     cfg: SolverConfig = DEFAULT_SOLVER) -> GeodesicResult:
    """Minimal unitary complexity over unitaries mapping psi_ref to psi_target.

    The family of connecting unitaries is parameterised by the relative
    phase on the reference ray, U(chi) = U0 (e^{i chi} P_ref + Q_ref); the
    circle is scanned with warm-started shooting solves and the best point
    polished by a bounded scalar minimisation.  For a single qubit this
    family is the full stabilizer quotient; for larger dimensions it covers
    the relative-phase subgroup only, so the length is an upper bound on
    the state complexity and ``method`` carries the suffix "+upper_bound".
    """
    psi_ref = _normalized(psi_ref)
    psi_target = _normalized(psi_target)
    if gens.kind != MATRIX:
        raise ValueError("state_complexity needs matrix-kind generators")
    d = gens.dim
    if psi_ref.size != d or psi_target.size != d:
        raise ValueError("state dimension does not match the generator set")

    overlap = abs(np.vdot(psi_ref, psi_target))
    if overlap >= 1.0 - 1e-14:
        labels = [gens.generators[i].label for i in gens.costed_indices()]
        path = ProtocolPath.constant(labels, np.zeros(len(labels)), cfg.n_intervals)
        return GeodesicResult(path=path, length=0.0,
                              partials={l: 0.0 for l in labels},
                              endpoint_residual=0.0, converged=True,
                              method="trivial")

    u0 = _connecting_unitary(psi_ref, psi_target)
    proj = np.outer(psi_ref, psi_ref.conj())
    rest = np.eye(d) - proj
    problem = _MatrixProblem(gens, weights, cfg)
    # the scan only ranks stabilizer angles and seeds the final solve, so it
    # runs at reduced integration resolution (infidelity is second order in
    # the endpoint error and stays far below the convergence gate)
    scan_problem = _MatrixProblem(
        gens, weights,
        replace(cfg, ode_steps=max(64, cfg.ode_steps // 4), max_iters=30,
                direct_fallback="never"))

    def target_for(chi: float) -> np.ndarray:
        return u0 @ (np.exp(1j * chi) * proj + rest)

    # sweep the stabilizer circle, warm-starting each solve from its left
    # neighbour; the first point pays for the full multistart
    chis = np.linspace(0.0, 2.0 * np.pi, cfg.stabilizer_scan, endpoint=False)
    scan: list[tuple[float, GeodesicResult]] = []
    warm: tuple[np.ndarray, ...] = ()
    for i, chi in enumerate(chis):
        res = _solve_unitary(scan_problem, target_for(float(chi)),
                             warm_starts=warm, multistart=(i == 0))
        if res.converged and np.isfinite(res.length):
            scan.append((float(chi), res))
            warm = (res.path.values[0],)
    if not scan:
        return _bound_flag(_solve_unitary(problem, target_for(0.0)), d)
    chi_best, best_scan = min(scan, key=lambda t: t[1].length)
    seed = (best_scan.path.values[0],)

    # deterministic local polish around the best scan angle: every Brent
    # evaluation restarts from the same seed so the objective is smooth
    def local_length(chi: float) -> float:
        res = _solve_unitary(scan_problem, target_for(float(chi)),
                             warm_starts=seed, multistart=False)
        return res.length if res.converged and np.isfinite(res.length) else 1e6

    span = 2.0 * np.pi / cfg.stabilizer_scan
    opt = minimize_scalar(local_length, bounds=(chi_best - span, chi_best + span),
                          method="bounded", options=dict(xatol=1e-6))
    chi_opt = float(opt.x) if np.isfinite(opt.fun) and opt.fun < 1e6 else chi_best
    result = _solve_unitary(problem, target_for(chi_opt), warm_starts=seed)
    if not result.converged or best_scan.length < result.length - cfg.tol_length:
        retry = _solve_unitary(problem, target_for(chi_best), warm_starts=seed)
        if retry.converged and retry.length <= result.length:
            result = retry
        elif not result.converged:
            result = best_scan
    return _bound_flag(result, d)


def _bound_flag(result: GeodesicResult, dim: int) -> GeodesicResult:
    """Mark a converged d > 2 state solve: the relative-phase scan gives an upper bound."""
    if dim == 2 or not result.converged:
        return result
    return replace(result, method=f"{result.method}+upper_bound")


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
    e2 = ortho / n
    c = inner
    s = n
    u = np.eye(d, dtype=complex)
    # act as [[c, -s],[s, c*]] on span{psi_a, e2}, identity elsewhere
    u = (np.eye(d, dtype=complex)
         - np.outer(psi_a, psi_a.conj()) - np.outer(e2, e2.conj())
         + c * np.outer(psi_a, psi_a.conj()) + s * np.outer(e2, psi_a.conj())
         - np.conj(s) * np.outer(psi_a, e2.conj()) + np.conj(c) * np.outer(e2, e2.conj()))
    return u
