"""Commutator matrices: generator transfer matrix, its time-evolved form,
and the identity tying them to the unitary response matrix.

For Heisenberg generators every pairwise commutator is a multiple of the
identity, so the transfer matrix T and the evolved commutator matrix O(t)
carry c-number entries and the chain

    R_u(t) T = O(t)

holds exactly when O uses the same forward coefficient transport as the
response pipeline.  For matrix generators the entries are operator valued;
they are exposed for diagnostics but no correspondence is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import (
    HBAR,
    MATRIX,
    PHASE_SPACE,
    GeneratorSet,
    _commutator_table,
    _quadratic_flow,
)
from .geometry import _evolution
from .response import ResponseMatrix, _check_gaussian_state, unitary_response_matrix

__all__ = [
    "TransferMatrix",
    "OtocMatrix",
    "transfer_matrix",
    "otoc_matrix",
    "check_correspondence",
    "averaged_otoc_identity",
]


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Pairwise generator commutators [M_I, M_J].

    Phase-space kind: ``entries[i, j]`` is the c-number with
    [M_I, M_J] = entries[i, j] * identity.  Matrix kind: ``entries`` has
    shape (n, n, d, d) holding the commutator matrices.
    """

    labels: tuple[str, ...]
    entries: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))

    @property
    def symplectic_image(self) -> np.ndarray:
        """The real matrix i T / hbar (phase-space kind only)."""
        if self.kind != PHASE_SPACE:
            raise ValueError("symplectic image needs phase-space entries")
        return (1j * self.entries / HBAR).real


@dataclass(frozen=True, eq=False)
class OtocMatrix:
    """Evolved commutators [M_I(t), M_J] in the same layout as TransferMatrix."""

    labels: tuple[str, ...]
    entries: np.ndarray
    kind: str
    time: float

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))


def _phase_space_commutator_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The c-numbers [X_i, Y_j] of (a, b) coefficient rows x (m, 2N) and y (k, 2N)."""
    n = x.shape[1] // 2
    return 1j * HBAR * (x[:, :n] @ y[:, n:].T - x[:, n:] @ y[:, :n].T)


def transfer_matrix(gens: GeneratorSet) -> TransferMatrix:
    """All pairwise commutators of a generator set; antisymmetric by build."""
    if gens.kind == PHASE_SPACE:
        ab = np.stack([g.coeffs[:-1] for g in gens])
        entries = _phase_space_commutator_table(ab, ab)
        return TransferMatrix(labels=gens.labels, entries=entries, kind=PHASE_SPACE)
    mats = gens.matrices()
    return TransferMatrix(labels=gens.labels, entries=_commutator_table(mats, mats),
                          kind=MATRIX)


def otoc_matrix(hamiltonian, gens: GeneratorSet, t: float) -> OtocMatrix:
    """Commutators of evolved generators with static ones.

    Phase-space kind: the coefficient vectors ride the forward classical
    flow map (exact for quadratic Hamiltonians), matching the response
    pipeline.  Matrix kind: M_I(t) = U(t)^dag M_I U(t) with U = exp(-iHt),
    for a Hermitian H (a ``ValueError`` otherwise).
    """
    if gens.kind == PHASE_SPACE:
        # M_I(t) has (a, b) = S(t) (a_I, b_I); the phase never enters
        ab = np.stack([g.coeffs[:-1] for g in gens])
        s = _quadratic_flow(hamiltonian, gens.n_modes, t)
        entries = _phase_space_commutator_table(ab @ s.T, ab)
        return OtocMatrix(labels=gens.labels, entries=entries,
                          kind=PHASE_SPACE, time=float(t))
    u = _evolution(hamiltonian, gens, t)
    mats = gens.matrices()
    evolved = np.einsum("ba,gbc,cd->gad", u.conj(), mats, u)
    return OtocMatrix(labels=gens.labels, entries=_commutator_table(evolved, mats),
                      kind=MATRIX, time=float(t))


def _costed_block(m: TransferMatrix | OtocMatrix, keep: tuple[str, ...]) -> np.ndarray:
    idx = [m.labels.index(l) for l in keep]
    return m.entries[np.ix_(idx, idx)]


def check_correspondence(ru: ResponseMatrix, transfer: TransferMatrix,
                         otoc: OtocMatrix) -> float:
    """Max-norm residual of (R_u T - O) over the costed generator block."""
    if transfer.kind != PHASE_SPACE or otoc.kind != PHASE_SPACE:
        raise ValueError("the correspondence is defined for c-number entries "
                         "(phase-space generators)")
    t_block = _costed_block(transfer, ru.labels)
    o_block = _costed_block(otoc, ru.labels)
    if ru.entries.shape != t_block.shape:
        raise ValueError("response and transfer dimensions do not match")
    return float(np.abs(ru.entries @ t_block - o_block).max())


def averaged_otoc_identity(psi, hamiltonian, gens: GeneratorSet, t: float):
    """Both sides of the state-averaged correspondence, as real matrices.

    Returns (lhs, rhs) with lhs = <psi| O^dag O |psi> and
    rhs = <psi| T^dag L_u T |psi> over the costed generator block.  For
    Heisenberg generators the entries are c-numbers, so the averages are
    state independent; ``psi`` is validated but only its normalisation
    enters.
    """
    if gens.kind != PHASE_SPACE:
        raise ValueError("the averaged identity is computed for phase-space "
                         "generator sets")
    _check_gaussian_state(psi, gens)
    ru = unitary_response_matrix(hamiltonian, gens, t)
    transfer = transfer_matrix(gens)
    otoc = otoc_matrix(hamiltonian, gens, t)
    t_block = _costed_block(transfer, ru.labels)
    o_block = _costed_block(otoc, ru.labels)
    lhs = o_block.conj().T @ o_block
    lu = ru.entries.T @ ru.entries
    rhs = t_block.conj().T @ lu @ t_block
    if max(np.abs(lhs.imag).max(), np.abs(rhs.imag).max()) > 1e-12:
        raise AssertionError("state-averaged blocks should be real")
    return lhs.real, rhs.real
