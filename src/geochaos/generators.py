"""Generator sets and exact Heisenberg-group displacement algebra.

Two kinds of generator are supported:

* ``matrix`` -- explicit Hermitian matrices on a finite-dimensional Hilbert
  space (Pauli strings and friends).
* ``phase_space`` -- elements of the Heisenberg algebra written as real
  coefficient vectors ``(a_1..a_N, b_1..b_N, c)`` meaning
  ``a . q + b . p + c * identity`` in hbar = 1 units.

Phase-space operators are never truncated to matrices in this module; all
group operations are carried out exactly in ``(a, b, phase)`` coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Protocol

import numpy as np

HBAR = 1.0
HERMITICITY_TOL = 1e-12
# relative misfit above which a matrix counts as outside the costed span
_SPAN_TOL = 1e-10

MATRIX = "matrix"
PHASE_SPACE = "phase_space"

__all__ = [
    "HBAR",
    "Generator",
    "GeneratorSet",
    "DisplacementVector",
    "commutator",
    "compose_displacements",
    "conjugate_by_quadratic_flow",
    "pauli_generators",
    "heisenberg_generators",
]


class QuadraticFlow(Protocol):
    """Anything that can hand out the linear phase-space flow map S(t)."""

    def flow_matrix(self, t: float) -> np.ndarray: ...


def symplectic_form(n_modes: int) -> np.ndarray:
    """The standard form J with dz/dt = J grad H, z = (q, p)."""
    j = np.zeros((2 * n_modes, 2 * n_modes))
    j[:n_modes, n_modes:] = np.eye(n_modes)
    j[n_modes:, :n_modes] = -np.eye(n_modes)
    return j


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Generator:
    """A single labelled generator, either a matrix or a Heisenberg element."""

    label: str
    matrix: np.ndarray | None = None
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        if (self.matrix is None) == (self.coeffs is None):
            raise ValueError("exactly one of matrix / coeffs must be given")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"generator {self.label!r}: matrix must be square")
            object.__setattr__(self, "matrix", _readonly(m))
        else:
            c = np.asarray(self.coeffs, dtype=float)
            if c.ndim != 1 or c.size < 3 or c.size % 2 == 0:
                raise ValueError(
                    f"generator {self.label!r}: coeffs must be (a_1..a_N, b_1..b_N, c)"
                )
            if not np.all(np.isfinite(c)):
                raise ValueError(f"generator {self.label!r}: coeffs must be finite")
            object.__setattr__(self, "coeffs", _readonly(c))

    @classmethod
    def from_matrix(cls, label: str, matrix) -> "Generator":
        g = cls(label=label, matrix=matrix)
        if not g.is_hermitian():
            raise ValueError(f"generator {label!r}: matrix is not Hermitian")
        return g

    @classmethod
    def from_phase_space(cls, label: str, a, b, c: float = 0.0) -> "Generator":
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != b.shape:
            raise ValueError("a and b must have the same length")
        return cls(label=label, coeffs=np.concatenate([a, b, [float(c)]]))

    @property
    def kind(self) -> str:
        return MATRIX if self.matrix is not None else PHASE_SPACE

    @property
    def dim(self) -> int:
        """Hilbert dimension (matrix kind) or phase-space dimension 2N."""
        if self.matrix is not None:
            return self.matrix.shape[0]
        return self.coeffs.size - 1

    @property
    def n_modes(self) -> int:
        if self.kind != PHASE_SPACE:
            raise ValueError("n_modes is only defined for phase-space generators")
        return (self.coeffs.size - 1) // 2

    @property
    def a(self) -> np.ndarray:
        return self.coeffs[: self.n_modes]

    @property
    def b(self) -> np.ndarray:
        return self.coeffs[self.n_modes : 2 * self.n_modes]

    @property
    def c(self) -> float:
        return float(self.coeffs[-1])

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        if self.kind == PHASE_SPACE:
            return True
        return bool(np.abs(self.matrix - self.matrix.conj().T).max() <= tol)

    def is_identity_multiple(self, tol: float = 1e-12) -> bool:
        if self.kind == PHASE_SPACE:
            return bool(np.abs(self.coeffs[:-1]).max() <= tol if self.coeffs.size > 1 else True)
        d = self.dim
        scale = np.trace(self.matrix) / d
        return bool(np.abs(self.matrix - scale * np.eye(d)).max() <= tol and abs(scale.imag) <= tol)


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """An ordered, validated collection of same-kind generators.

    The optional ``identity_index`` marks the zero-cost identity direction;
    it must point at a real multiple of the identity (matrix kind) or at a
    pure phase generator (phase-space kind).
    """

    generators: tuple[Generator, ...]
    identity_index: int | None = None

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("generator set must not be empty")
        kind = gens[0].kind
        dim = gens[0].dim
        labels = [g.label for g in gens]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be unique")
        for g in gens:
            if g.kind != kind:
                raise ValueError("all generators must share the same kind")
            if g.dim != dim:
                raise ValueError("all generators must share the same dimension")
            if kind == MATRIX and not g.is_hermitian():
                raise ValueError(f"generator {g.label!r} is not Hermitian")
        if self.identity_index is not None:
            idx = self.identity_index
            if not 0 <= idx < len(gens):
                raise ValueError("identity_index out of range")
            if not gens[idx].is_identity_multiple():
                raise ValueError("identity_index does not point at an identity multiple")

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __getitem__(self, i: int) -> Generator:
        return self.generators[i]

    @property
    def kind(self) -> str:
        return self.generators[0].kind

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    @property
    def n_modes(self) -> int:
        return self.generators[0].n_modes

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.generators)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown generator label {label!r}") from None

    def costed_indices(self) -> list[int]:
        """Indices of the non-identity generators, in set order."""
        return [i for i in range(len(self)) if i != self.identity_index]

    def costed_labels(self) -> tuple[str, ...]:
        return tuple(self.generators[i].label for i in self.costed_indices())

    def matrices(self) -> np.ndarray:
        if self.kind != MATRIX:
            raise ValueError("matrices() requires a matrix-kind set")
        return np.stack([g.matrix for g in self.generators])

    @cached_property
    def _costed_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """The costed matrices (n, d, d) less their trace parts, since endpoints
        compare modulo global phase, and the inverse of their real Gram matrix."""
        d = self.dim
        mats = np.stack([self.generators[i].matrix for i in self.costed_indices()])
        basis = mats - np.trace(mats, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
        basis.setflags(write=False)
        gram = np.einsum("iab,jab->ij", basis.conj(), basis).real
        if np.linalg.matrix_rank(gram) < len(gram):
            raise ValueError("costed generators are linearly dependent modulo the "
                             "identity (an identity must be marked by identity_index)")
        return basis, np.linalg.inv(gram)

    @cached_property
    def _is_canonical(self) -> bool:
        """Whether the costed generators are q_1..q_N, p_1..p_N, in this order
        (phase-space kind); cached, since response calls check it each time."""
        n = self.n_modes
        rows = np.array([self.generators[i].coeffs for i in self.costed_indices()])
        return bool(np.array_equal(rows, np.eye(2 * n, 2 * n + 1)))

    def _coordinates(self, x: np.ndarray) -> np.ndarray:
        """Components (..., n) along the costed basis of Hermitian x (..., d, d)."""
        basis, gram_inv = self._costed_basis
        n, d = basis.shape[:2]
        flat = x.reshape(*x.shape[:-2], d * d)
        overlaps = (flat @ basis.conj().reshape(n, d * d).T).real
        return overlaps @ gram_inv

    def _span_coordinates(self, x: np.ndarray, scale=1.0) -> tuple[np.ndarray, np.ndarray]:
        """``_coordinates`` of the traceless part of x, and whether they rebuild
        it to ``_SPAN_TOL`` times the larger of its norm and ``scale``, the
        size of the inputs x was made from."""
        d = self.dim
        traceless = x - np.trace(x, axis1=-2, axis2=-1)[..., None, None] / d * np.eye(d)
        c = self._coordinates(traceless)
        rebuilt = np.einsum("...n,nab->...ab", c, self._costed_basis[0])
        misfit = np.linalg.norm(traceless - rebuilt, axis=(-2, -1))
        size = np.maximum(np.linalg.norm(traceless, axis=(-2, -1)), scale)
        return c, misfit <= _SPAN_TOL * size

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind, "labels": list(self.labels)}
        if self.kind == MATRIX:
            doc["matrices"] = [
                [[float(z.real), float(z.imag)] for z in g.matrix.ravel()]
                for g in self.generators
            ]
        else:
            doc["coeffs"] = [[float(x) for x in g.coeffs] for g in self.generators]
        doc["identity_index"] = self.identity_index
        return doc

    @classmethod
    def from_json(cls, doc: dict | str) -> "GeneratorSet":
        if isinstance(doc, str):
            doc = json.loads(doc)
        kind = doc["kind"]
        labels = doc["labels"]
        gens = []
        if kind == MATRIX:
            for label, flat in zip(labels, doc["matrices"]):
                d = int(round(len(flat) ** 0.5))
                if d * d != len(flat):
                    raise ValueError("matrix entries are not a square row-major listing")
                m = np.array([complex(re, im) for re, im in flat]).reshape(d, d)
                gens.append(Generator.from_matrix(label, m))
        elif kind == PHASE_SPACE:
            for label, coeffs in zip(labels, doc["coeffs"]):
                gens.append(Generator(label=label, coeffs=np.asarray(coeffs, float)))
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        return cls(generators=tuple(gens), identity_index=doc.get("identity_index"))


# ---------------------------------------------------------------------------
# standard sets

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_MATRICES = {"x": _SIGMA_X, "y": _SIGMA_Y, "z": _SIGMA_Z}


def pauli_generators(include_identity: bool = False) -> GeneratorSet:
    """The single-qubit set {sigma_x, sigma_y, sigma_z} (+ identity if asked)."""
    gens = [Generator.from_matrix(f"sigma_{k}", m) for k, m in PAULI_MATRICES.items()]
    identity_index = None
    if include_identity:
        gens.append(Generator.from_matrix("id", np.eye(2)))
        identity_index = len(gens) - 1
    return GeneratorSet(generators=tuple(gens), identity_index=identity_index)


def heisenberg_generators(n_modes: int = 1, include_identity: bool = True) -> GeneratorSet:
    """The Heisenberg algebra {q_i, p_i, identity} as phase-space generators.

    Labels are ``x``/``p`` for one mode and ``x1..xN`` / ``p1..pN`` otherwise.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    gens = []
    for i in range(n_modes):
        label = "x" if n_modes == 1 else f"x{i + 1}"
        a = np.zeros(n_modes)
        a[i] = 1.0
        gens.append(Generator.from_phase_space(label, a, np.zeros(n_modes)))
    for i in range(n_modes):
        label = "p" if n_modes == 1 else f"p{i + 1}"
        b = np.zeros(n_modes)
        b[i] = 1.0
        gens.append(Generator.from_phase_space(label, np.zeros(n_modes), b))
    identity_index = None
    if include_identity:
        gens.append(Generator.from_phase_space("id", np.zeros(n_modes), np.zeros(n_modes), 1.0))
        identity_index = len(gens) - 1
    return GeneratorSet(generators=tuple(gens), identity_index=identity_index)


# ---------------------------------------------------------------------------
# operations


def commutator(a: Generator, b: Generator) -> Generator:
    """Commutator [A, B] of two same-kind generators.

    Matrix kind: returns the (anti-Hermitian) matrix commutator, labelled
    ``[A,B]``.  Phase-space kind: [A, B] is central, and the result is a pure
    identity-direction generator whose ``c`` is the coefficient of
    ``i * identity``, i.e. ``c = hbar * (a_A . b_B - b_A . a_B)``.
    """
    if a.kind != b.kind:
        raise ValueError("cannot commute generators of different kinds")
    if a.dim != b.dim:
        raise ValueError("cannot commute generators of different dimensions")
    label = f"[{a.label},{b.label}]"
    if a.kind == MATRIX:
        m = a.matrix @ b.matrix - b.matrix @ a.matrix
        return Generator(label=label, matrix=m)
    c = HBAR * (float(a.a @ b.b) - float(a.b @ b.a))
    n = a.n_modes
    return Generator.from_phase_space(label, np.zeros(n), np.zeros(n), c)


def _commutator_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All commutators [x_i, y_j] of two matrix stacks, as (len(x), len(y), d, d)."""
    return x[:, None] @ y[None] - y[None] @ x[:, None]


@dataclass(frozen=True, eq=False)
class DisplacementVector:
    """Heisenberg-group element exp(i (a . q + b . p + phase)).

    ``phase`` rides along exactly but carries zero cost everywhere downstream;
    two displacements are usually compared modulo phase.
    """

    a: np.ndarray
    b: np.ndarray
    phase: float = 0.0

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape:
            raise ValueError("a and b must have the same length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.isfinite(self.phase)):
            raise ValueError("displacement components must be finite")
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "b", _readonly(b))
        object.__setattr__(self, "phase", float(self.phase))

    @property
    def n_modes(self) -> int:
        return self.a.size

    def inverse(self) -> "DisplacementVector":
        return DisplacementVector(-self.a, -self.b, -self.phase)

    def is_pure_phase(self, tol: float = 0.0) -> bool:
        return bool(np.abs(self.a).max(initial=0.0) <= tol and np.abs(self.b).max(initial=0.0) <= tol)

    def allclose(self, other: "DisplacementVector", tol: float = 1e-12,
                 include_phase: bool = False) -> bool:
        same = (np.abs(self.a - other.a).max(initial=0.0) <= tol
                and np.abs(self.b - other.b).max(initial=0.0) <= tol)
        if include_phase:
            same = same and abs(self.phase - other.phase) <= tol
        return bool(same)


def compose_displacements(d1: DisplacementVector, d2: DisplacementVector) -> DisplacementVector:
    """Composition of displacements in application order: first d1, then d2.

    Exact for the Heisenberg group: the operator product
    ``exp(i D2) exp(i D1)`` equals ``exp(i D)`` with

        a = a1 + a2,  b = b1 + b2,
        phase = phase1 + phase2 + (hbar / 2) * (a1 . b2 - b1 . a2).
    """
    if d1.n_modes != d2.n_modes:
        raise ValueError("displacement dimensions do not match")
    cross = float(d1.a @ d2.b) - float(d1.b @ d2.a)
    return DisplacementVector(
        d1.a + d2.a,
        d1.b + d2.b,
        d1.phase + d2.phase + 0.5 * HBAR * cross,
    )


def conjugate_by_quadratic_flow(d: DisplacementVector, hamiltonian: QuadraticFlow,
                                t: float) -> DisplacementVector:
    """Transport a displacement through the flow of a quadratic Hamiltonian.

    The coefficient pair is carried by the classical symplectic flow map,
    ``(a(t), b(t)) = S(t) (a, b)``; the phase is untouched (purely quadratic
    Hamiltonians generate no extra central term).  This is the exact
    Heisenberg-picture transport used throughout the response pipeline.
    """
    n = d.n_modes
    z = _quadratic_flow(hamiltonian, n, t) @ np.concatenate([d.a, d.b])
    return DisplacementVector(z[:n], z[n:], d.phase)


def _check_canonical(gens: GeneratorSet) -> None:
    """Raise unless the costed generators of a phase-space set are q_1..q_N,
    p_1..p_N in this order: the exact maps S(t) act in those coordinates."""
    if not gens._is_canonical:
        raise ValueError("the costed phase-space generators must be the canonical "
                         "basis q_1..q_N, p_1..p_N, in this order")


def _quadratic_flow(hamiltonian: QuadraticFlow, n_modes: int, t: float) -> np.ndarray:
    """The flow map S(t) of a quadratic Hamiltonian, checked against n_modes."""
    flow = getattr(hamiltonian, "flow_matrix", None)
    if flow is None:
        raise TypeError("hamiltonian must be quadratic (expose flow_matrix(t))")
    s = np.asarray(flow(t), dtype=float)
    if s.shape != (2 * n_modes, 2 * n_modes):
        raise ValueError(f"flow matrix shape {s.shape} does not match "
                         f"{n_modes} mode(s)")
    return s
