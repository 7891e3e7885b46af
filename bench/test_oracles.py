"""Tests of the benchmark's oracles on known cases; no solver involved.

    python3 -m pytest bench/test_oracles.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as orc  # noqa: E402

X, Y, Z = orc.PAULI
I2 = np.eye(2)


def test_su2_distance_known_angles():
    assert orc.su2_distance(orc.su2_rotation(0.6, [1, 0, 0])) == pytest.approx(0.6, abs=1e-12)
    assert orc.su2_distance(orc.su2_rotation(math.pi / 2, [0, 1, 1])) == pytest.approx(
        math.pi / 2, abs=1e-7)
    # past pi/2 the shorter way round wins, whatever the global phase
    u = np.exp(0.37j) * orc.su2_rotation(2.3, [1, 2, 3])
    assert orc.su2_distance(u) == pytest.approx(math.pi - 2.3, abs=1e-12)
    assert orc.su2_distance(np.eye(2)) == 0.0


def test_two_qubit_distance_repository_case():
    u = expm(-1j * 0.6 * np.kron(X, I2)) @ expm(-1j * 0.9 * np.kron(I2, Z))
    assert orc.local_product_distance(u) == pytest.approx(math.hypot(0.6, 0.9), abs=1e-12)


def test_two_qubit_distance_factor_past_half_pi():
    u = np.kron(orc.su2_rotation(0.6, [0, 1, 0]), orc.su2_rotation(2.3, [1, 1, 0]))
    want = math.hypot(0.6, math.pi - 2.3)
    assert orc.local_product_distance(np.exp(1.1j) * u) == pytest.approx(want, abs=1e-12)


def test_two_qubit_distance_rejects_entangling_target():
    cnot = np.eye(4)[[0, 1, 3, 2]]
    with pytest.raises(ValueError):
        orc.local_product_distance(cnot)


def test_state_distance():
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    assert orc.state_distance(zero, one) == pytest.approx(math.pi / 2)
    assert orc.state_distance(zero, 1j * plus) == pytest.approx(math.pi / 4)


def test_state_from_bloch_roundtrip():
    n = np.array([0.3, -0.5, 0.8])
    n /= np.linalg.norm(n)
    assert np.allclose(orc.bloch(orc.state_from_bloch(n)), n, atol=1e-12)


def test_adjoint_response_is_rotation():
    u = orc.su2_rotation(0.4, [0, 0, 1])
    r = orc.adjoint_response(u)
    c, s = math.cos(0.8), math.sin(0.8)
    # U sigma_x U^dag = cos(2 theta) sigma_x + sin(2 theta) sigma_y
    assert np.allclose(r, [[c, s, 0], [-s, c, 0], [0, 0, 1]], atol=1e-12)
    assert np.linalg.det(orc.adjoint_response(orc.su2_rotation(1.3, [1, 2, 3]))) == (
        pytest.approx(1.0, abs=1e-12))


def test_projected_adjoint_reduces_at_t0():
    psi = np.array([math.cos(0.4), np.exp(0.7j) * math.sin(0.4)])
    n = orc.bloch(psi)
    assert np.allclose(orc.projected_adjoint_response(np.eye(2), psi),
                       np.eye(3) - np.outer(n, n), atol=1e-12)


def test_projected_adjoint_annihilates_stabilizer():
    psi = np.array([math.cos(0.4), np.exp(0.7j) * math.sin(0.4)])
    u = expm(-1j * 0.8 * (0.3 * X + 0.7 * Z))
    n = orc.bloch(u @ psi)
    assert np.allclose(orc.projected_adjoint_response(u, psi) @ n, 0.0, atol=1e-12)


@pytest.mark.parametrize("system", ["iho", "harmonic", "free"])
def test_oscillator_closed_forms_match_own_flow(system):
    omega, t = 1.3, 2.1
    a = {"iho": np.diag([-omega**2, 1.0]), "harmonic": np.diag([omega**2, 1.0]),
         "free": np.diag([0.0, 1.0])}[system]
    s = orc.flow_matrix(a, t)
    assert orc.relative_gap(orc.oscillator_response(system, omega, t), s.T) <= 1e-12
    assert orc.symplectic_defect(s) <= 1e-12


def test_symplectic_defect_rejects_perturbation():
    s = orc.flow_matrix(np.diag([-1.0, 1.0]), 1.0)
    s[0, 1] += 1e-6
    assert orc.symplectic_defect(s) > 1e-9


def test_otoc_entries_obey_correspondence():
    # R_u T = O with R_u = S^T and T the commutator table [x, p] = i
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    s = orc.flow_matrix(a + a.T, 0.7)
    table = 1j * np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    assert np.abs(s.T @ table - orc.otoc_entries(s)).max() <= 1e-12


def test_fitted_exponents_of_inverted_oscillator():
    omega = 0.8
    times = np.linspace(5, 10, 6)
    flows = [orc.flow_matrix(np.diag([-omega**2, 1.0]), t) for t in times]
    assert np.allclose(orc.fitted_exponents(flows, times), [omega, -omega], atol=1e-6)


def _geodesic(theta, n):
    """The exact isotropic geodesic: constant controls theta * n."""
    values = np.tile(theta * np.asarray(n, float), (64, 1))
    return theta, values


def test_unitary_solve_check_accepts_exact_and_rejects_perturbed():
    n = np.array([0.0, 0.6, 0.8])
    target = orc.su2_rotation(0.9, n)
    length, values = _geodesic(0.9, n)
    ok = orc.check_unitary_solve(length, values, orc.PAULI, target, 0.9, 1.0, 1e-9)
    assert ok == []
    assert orc.check_unitary_solve(length + 1e-3, values, orc.PAULI, target, 0.9, 1.0, 1e-9)
    assert orc.check_unitary_solve(length, values + 1e-3, orc.PAULI, target, 0.9, 1.0, 1e-9)
    # a weighted length may exceed the isotropic one up to sqrt(w_max)
    assert orc.check_unitary_solve(1.1 * length, values, orc.PAULI, target, 0.9, 1.5,
                                   1e-9) == []
    assert orc.check_unitary_solve(1.3 * length, values, orc.PAULI, target, 0.9, 1.5, 1e-9)


def test_state_solve_check_accepts_exact_and_rejects_perturbed():
    zero = np.array([1.0, 0.0])
    n = np.array([1.0, 0.0, 0.0])
    psi_b = orc.su2_rotation(0.5, n) @ zero * 1j  # ray reached modulo phase
    length, values = _geodesic(0.5, n)
    assert orc.state_distance(zero, psi_b) == pytest.approx(0.5)
    assert orc.check_state_solve(length, values, orc.PAULI, zero, psi_b, 0.5, 1.0, 1e-9) == []
    assert orc.check_state_solve(length, values * 1.01, orc.PAULI, zero, psi_b, 0.5, 1.0, 1e-9)
    assert orc.check_state_solve(0.49, values, orc.PAULI, zero, psi_b, 0.5, 1.0, 1e-9)


def test_exact_check_rejects_perturbed_length():
    assert orc.check_exact("L", 1.0, 1.0, 1e-7) == []
    assert orc.check_exact("L", 1.0 + 1e-6, 1.0, 1e-7)
    assert orc.check_exact("L", math.nan, 1.0, 1e-7)


@pytest.mark.parametrize("eps, rejected", [(2e-3, True), (7e-4, False)])
def test_endpoint_tolerance_separates_missed_targets(eps, rejected):
    """An exact path to a target that is off by the eigenphase eps.

    7e-4 rad is the miss of the worst curved 64-interval path measured
    (gap 2.4e-7); 2e-3 rad is a path that drifted off its target.
    """
    n = np.array([0.0, 0.6, 0.8])
    length, values = _geodesic(0.9, n)
    target = orc.su2_rotation(eps, [1.0, 0.0, 0.0]) @ orc.su2_rotation(0.9, n)
    found = orc.check_unitary_solve(length, values, orc.PAULI, target, 0.9, 1.0,
                                    orc.ENDPOINT_TOL)
    assert bool(found) is rejected
