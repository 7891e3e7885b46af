"""Independent oracles for the benchmark's outputs.

Every function here recomputes a quantity from closed forms or from the
benchmark's own matrix exponentials, never from geochaos.  Checks return a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# Endpoint tolerance in projective gap 1 - |tr(U^dag V)| / d.  Paths are
# rebuilt from their 64 piecewise-constant interval averages; on curved
# (weighted) qubit geodesics these miss the target by 1.1e-7 to 2.4e-7 (an
# eigenphase error of <= 7e-4 rad), on straight ones by ~1e-15.  1e-6 is an
# eigenphase error of 1.4e-3 rad.
ENDPOINT_TOL = 1e-6

PAULI = np.stack([
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
])


# ---------------------------------------------------------------------------
# single qubit and local two-qubit distances


def su2_rotation(theta: float, axis) -> np.ndarray:
    """exp(-i theta n.sigma): SU(2) eigenphases +-theta."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return (math.cos(theta) * np.eye(2)
            - 1j * math.sin(theta) * np.einsum("i,iab->ab", n, PAULI))


def su2_distance(u: np.ndarray) -> float:
    """Isotropic qubit complexity min(theta, pi - theta) of U(2) element u.

    Removing the phase leaves an SU(2) element with eigenphases +-theta,
    up to the sign of the square root of det u, which maps theta to
    pi - theta and leaves the minimum unchanged.
    """
    u = np.asarray(u, dtype=complex)
    su = u / np.sqrt(np.linalg.det(u))
    cos_theta = abs(np.trace(su).real) / 2.0
    return math.acos(min(1.0, cos_theta))


def local_factors(u4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a 4x4 product unitary a (x) b by a rank-one realignment."""
    r = np.asarray(u4, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    r = r.reshape(4, 4)
    left, s, right = np.linalg.svd(r)
    a = left[:, 0].reshape(2, 2) * math.sqrt(s[0])
    b = right[0].reshape(2, 2) * math.sqrt(s[0])
    if s[1] > 1e-9 * s[0]:
        raise ValueError("target is not a local product")
    # both factors are unitary up to reciprocal scalars
    scale = math.sqrt(abs(np.linalg.det(a)))
    return a / scale, b * scale


def local_product_distance(u4: np.ndarray) -> float:
    """sqrt(sum_i min(theta_i, pi - theta_i)^2) over the two factors."""
    a, b = local_factors(u4)
    return math.hypot(su2_distance(a), su2_distance(b))


def state_distance(psi_a, psi_b) -> float:
    """Fubini-Study angle arccos |<a|b>| of two normalised states."""
    overlap = abs(np.vdot(np.asarray(psi_a), np.asarray(psi_b)))
    return math.acos(min(1.0, overlap))


def bloch(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.array([(psi.conj() @ PAULI[k] @ psi).real for k in range(3)])


def state_from_bloch(n) -> np.ndarray:
    """A state whose Bloch vector is the unit vector n."""
    x, y, z = np.asarray(n, dtype=float) / np.linalg.norm(n)
    theta = math.acos(max(-1.0, min(1.0, z)))
    phi = math.atan2(y, x)
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])


# ---------------------------------------------------------------------------
# protocol paths


def path_unitary(values: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Time-ordered product of exp(-i ds Y_k.M) over a piecewise-constant path."""
    values = np.atleast_2d(values)
    ds = 1.0 / values.shape[0]
    u = np.eye(mats.shape[1], dtype=complex)
    for row in values:
        u = expm(-1j * ds * np.einsum("g,gab->ab", row, mats)) @ u
    return u


def projective_gap(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |tr(u^dag v)| / d: zero iff u and v agree up to a phase."""
    return max(0.0, 1.0 - abs(np.trace(u.conj().T @ v)) / u.shape[0])


def ray_gap(psi_a, psi_b) -> float:
    """1 - |<a|b>|^2: zero iff the two states lie on one ray."""
    return max(0.0, 1.0 - abs(np.vdot(psi_a, psi_b)) ** 2)


# ---------------------------------------------------------------------------
# response matrices


def symplectic_form(n_modes: int) -> np.ndarray:
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def flow_matrix(quadratic_form: np.ndarray, t: float) -> np.ndarray:
    """S(t) = exp(t J A) for H = z^T A z / 2."""
    a = np.asarray(quadratic_form, dtype=float)
    return expm(t * symplectic_form(a.shape[0] // 2) @ a)


def oscillator_response(system: str, omega: float, t: float) -> np.ndarray:
    """Closed-form unitary response S(t)^T of the one-mode oscillators."""
    if system == "iho":
        ch, sh = math.cosh(omega * t), math.sinh(omega * t)
        return np.array([[ch, omega * sh], [sh / omega, ch]])
    if system == "harmonic":
        c, s = math.cos(omega * t), math.sin(omega * t)
        return np.array([[c, -omega * s], [s / omega, c]])
    if system == "free":
        return np.array([[1.0, 0.0], [t, 1.0]])
    raise ValueError(f"no closed form for {system!r}")


def symplectic_defect(s: np.ndarray) -> float:
    """Max-norm of S^T J S - J, relative to the squared entry scale."""
    j = symplectic_form(s.shape[0] // 2)
    return float(np.abs(s.T @ j @ s - j).max() / max(1.0, np.abs(s).max() ** 2))


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Entrywise mismatch relative to max(1, |want|)."""
    got = np.asarray(got)
    want = np.asarray(want)
    return float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())


def otoc_entries(s: np.ndarray) -> np.ndarray:
    """[M_I(t), M_J] over the costed Heisenberg generators (x.., p..).

    Generator I rides the flow, its coefficient vector becoming S(t) e_I;
    two displacement generators commute to i (a_I . b_J - b_I . a_J).
    """
    n = s.shape[0] // 2
    moved = s.T  # row I = S(t) e_I
    base = np.eye(2 * n)
    return 1j * (moved[:, :n] @ base[:, n:].T - moved[:, n:] @ base[:, :n].T)


def fitted_exponents(flows: list[np.ndarray], times) -> np.ndarray:
    """Least-squares slopes of log singular values of S(t), descending."""
    logs = np.stack([np.log(np.linalg.svd(s, compute_uv=False)) for s in flows])
    design = np.stack([np.asarray(times, float), np.ones(len(times))], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.sort(logs, axis=1)[:, ::-1], rcond=None)
    return np.sort(coef[0])[::-1]


def adjoint_response(u: np.ndarray) -> np.ndarray:
    """Ad(U) in the Pauli basis, rows indexed by the perturbing generator.

    Row i holds the Pauli components of U sigma_i U^dag.
    """
    return np.array([[np.trace(PAULI[j] @ u @ PAULI[i] @ u.conj().T).real / 2
                      for j in range(3)] for i in range(3)])


def projected_adjoint_response(u: np.ndarray, psi0) -> np.ndarray:
    """Ad(U) (I - n n^T): the state response off the stabilizer of U psi0."""
    n = bloch(u @ np.asarray(psi0, dtype=complex))
    return adjoint_response(u) @ (np.eye(3) - np.outer(n, n))


# ---------------------------------------------------------------------------
# checks on geochaos results; each returns a list of problems


def exceeds(name: str, value: float, tol: float) -> list[str]:
    """One problem when value is above tol (or not finite), else none."""
    if not np.isfinite(value) or value > tol:
        return [f"{name} {value:.3g} > {tol:.3g}"]
    return []


def _length_bounds(length: float, iso_length: float, anisotropy: float) -> list[str]:
    """A weighted length lies in [L_iso, sqrt(w_max) L_iso] for weights >= 1."""
    slack = 1e-7 * max(1.0, iso_length)
    upper = math.sqrt(anisotropy) * iso_length
    if iso_length - slack <= length <= upper + slack:
        return []
    return [f"length {length:.9g} outside [{iso_length:.9g}, {upper:.9g}]"]


def check_unitary_solve(length: float, path_values, mats, target,
                        iso_length: float, anisotropy: float,
                        endpoint_tol: float) -> list[str]:
    """Length bounds, and the path reaches the target modulo phase."""
    return (_length_bounds(length, iso_length, anisotropy)
            + exceeds("endpoint gap",
                      projective_gap(target, path_unitary(path_values, mats)),
                      endpoint_tol))


def check_state_solve(length: float, path_values, mats, psi_ref, psi_target,
                      iso_length: float, anisotropy: float,
                      endpoint_tol: float) -> list[str]:
    """Length bounds, and the path carries psi_ref onto the target ray."""
    reached = path_unitary(path_values, mats) @ np.asarray(psi_ref, dtype=complex)
    return (_length_bounds(length, iso_length, anisotropy)
            + exceeds("ray gap", ray_gap(psi_target, reached), endpoint_tol))


def check_exact(name: str, length: float, want: float, tol: float) -> list[str]:
    return exceeds(f"{name} |L - L_exact|", abs(length - want), tol)
