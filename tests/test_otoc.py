"""Transfer matrix, evolved commutators, and the response correspondence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from geochaos.classical import (
    GaussianWignerState,
    QuadraticHamiltonian,
    free_particle,
    harmonic_oscillator,
    inverted_oscillator,
)
from geochaos.generators import Generator, GeneratorSet, heisenberg_generators, pauli_generators
from geochaos.otoc import (
    averaged_otoc_identity,
    check_correspondence,
    otoc_matrix,
    transfer_matrix,
)
from geochaos.response import unitary_response_matrix

HEIS = heisenberg_generators()
PAULIS = pauli_generators()


def test_transfer_matrix_heisenberg_symplectic_form():
    tm = transfer_matrix(HEIS)
    # costed block of i T / hbar is the standard symplectic form
    assert np.abs(tm.symplectic_image[:2, :2]
                  - np.array([[0.0, -1.0], [1.0, 0.0]])).max() == 0.0
    # identity rows and columns vanish identically
    assert np.abs(tm.entries[2, :]).max() == 0.0
    assert np.abs(tm.entries[:, 2]).max() == 0.0


def test_transfer_matrix_pauli():
    tm = transfer_matrix(PAULIS)
    mats = [g.matrix for g in PAULIS]
    assert np.abs(tm.entries[0, 1] - 2j * mats[2]).max() <= 1e-15
    assert np.abs(tm.entries[1, 2] - 2j * mats[0]).max() <= 1e-15


def test_transfer_matrix_single_generator():
    single = GeneratorSet((Generator.from_phase_space("x", [1.0], [0.0]),))
    tm = transfer_matrix(single)
    assert tm.entries.shape == (1, 1)
    assert tm.entries[0, 0] == 0.0


def test_transfer_matrix_antisymmetric():
    tm = transfer_matrix(HEIS)
    assert np.abs(tm.entries + tm.entries.T).max() == 0.0


def test_otoc_iho_values():
    o = otoc_matrix(inverted_oscillator(1.0), HEIS, 1.0)
    assert o.entries[0, 1] == pytest.approx(1j * np.cosh(1.0), abs=1e-12)
    assert o.entries[0, 0] == pytest.approx(-1j * np.sinh(1.0), abs=1e-12)


def test_otoc_zero_time_equals_transfer_exactly():
    for ham in (inverted_oscillator(1.0), harmonic_oscillator(2.0), free_particle()):
        o = otoc_matrix(ham, HEIS, 0.0)
        tm = transfer_matrix(HEIS)
        assert np.array_equal(o.entries, tm.entries)


def test_otoc_requires_quadratic_for_phase_space():
    with pytest.raises(TypeError):
        otoc_matrix(object(), HEIS, 1.0)


def test_matrix_otoc_rejects_non_hermitian_hamiltonian():
    h = np.array([[0.3, 1.0], [0.0, -0.3]])
    with pytest.raises(ValueError, match="not Hermitian"):
        otoc_matrix(h, PAULIS, 0.7)


def test_correspondence_iho_grid():
    ham = inverted_oscillator(1.0)
    tm = transfer_matrix(HEIS)
    for t in (0.5, 1.0, 2.0):
        ru = unitary_response_matrix(ham, HEIS, t)
        o = otoc_matrix(ham, HEIS, t)
        assert check_correspondence(ru, tm, o) <= 1e-10


def test_correspondence_zero_time_exact():
    for ham in (inverted_oscillator(0.7), harmonic_oscillator(1.0)):
        ru = unitary_response_matrix(ham, HEIS, 0.0)
        tm = transfer_matrix(HEIS)
        o = otoc_matrix(ham, HEIS, 0.0)
        assert check_correspondence(ru, tm, o) == 0.0


def test_correspondence_harmonic_any_time():
    ham = harmonic_oscillator(1.0)
    tm = transfer_matrix(HEIS)
    for t in np.arange(0.0, 10.5, 0.5):
        ru = unitary_response_matrix(ham, HEIS, float(t))
        o = otoc_matrix(ham, HEIS, float(t))
        assert check_correspondence(ru, tm, o) <= 1e-10


@settings(max_examples=60)
@given(st.integers(1, 2).flatmap(lambda n: st.lists(
           st.floats(min_value=-2.0, max_value=2.0),
           min_size=4 * n * n, max_size=4 * n * n)),
       st.floats(min_value=0.0, max_value=5.0))
def test_correspondence_residual_property(values, t):
    size = int(round(np.sqrt(len(values))))
    a = np.reshape(values, (size, size))
    ham = QuadraticHamiltonian((a + a.T) / 2)
    gens = heisenberg_generators(size // 2)
    ru = unitary_response_matrix(ham, gens, t)
    resid = check_correspondence(ru, transfer_matrix(gens), otoc_matrix(ham, gens, t))
    assert resid <= 1e-12 * max(1.0, float(np.abs(ru.entries).max()))


def test_correspondence_needs_phase_space_entries():
    tm = transfer_matrix(PAULIS)
    o = otoc_matrix(PAULIS.generators[2].matrix, PAULIS, 0.5)
    ru = unitary_response_matrix(inverted_oscillator(1.0), HEIS, 0.5)
    with pytest.raises(ValueError):
        check_correspondence(ru, tm, o)


def test_averaged_identity_iho():
    lhs, rhs = averaged_otoc_identity(GaussianWignerState.vacuum(),
                                      inverted_oscillator(1.0), HEIS, 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_averaged_identity_zero_time_is_transfer_square():
    lhs, rhs = averaged_otoc_identity(GaussianWignerState.vacuum(),
                                      harmonic_oscillator(1.0), HEIS, 0.0)
    tm = transfer_matrix(HEIS)
    block = tm.entries[:2, :2]
    expect = (block.conj().T @ block).real
    assert np.abs(lhs - expect).max() <= 1e-12
    assert np.abs(rhs - expect).max() <= 1e-12


def test_averaged_identity_free_particle_polynomial_growth():
    # the window into the polynomial regime: response [[1, 0], [t, 1]]
    t = 3.0
    ru = unitary_response_matrix(free_particle(), HEIS, t)
    assert np.abs(ru.entries - [[1.0, 0.0], [t, 1.0]]).max() <= 1e-10
    lhs, rhs = averaged_otoc_identity(GaussianWignerState.vacuum(),
                                      free_particle(), HEIS, t)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_averaged_identity_state_independent():
    ham = inverted_oscillator(1.0)
    states = [
        GaussianWignerState.vacuum(),
        GaussianWignerState(np.array([2.0, -1.0]), 0.5 * np.eye(2)),
        GaussianWignerState(np.array([0.3, 0.7]),
                            np.array([[1.2, 0.3], [0.3, 0.9]])),
    ]
    sides = [averaged_otoc_identity(s, ham, HEIS, 1.5) for s in states]
    for lhs, rhs in sides[1:]:
        assert np.abs(lhs - sides[0][0]).max() <= 1e-12
        assert np.abs(rhs - sides[0][1]).max() <= 1e-12


def test_matrix_kind_commutator_growth_periodicity():
    # qubit sanity: with H = sigma_z the squared commutator of the evolved
    # sigma_x against sigma_y is pi-periodic, computed two independent ways
    h = PAULIS.generators[2].matrix
    sx, sy = PAULIS.generators[0].matrix, PAULIS.generators[1].matrix

    def direct(t):
        u = expm(-1j * h * t)
        sx_t = u.conj().T @ sx @ u
        c = sx_t @ sy - sy @ sx_t
        return np.real(np.trace(c.conj().T @ c)) / 2

    def adjoint(t):
        # expand sigma_x(t) in the Pauli basis by the rotation about z
        sx_t = np.cos(2 * t) * sx - np.sin(2 * t) * sy
        c = sx_t @ sy - sy @ sx_t
        return np.real(np.trace(c.conj().T @ c)) / 2

    for t in np.linspace(0.0, 2.5, 11):
        a, b = direct(t), adjoint(t)
        assert a == pytest.approx(b, abs=1e-12)
        assert direct(t + np.pi) == pytest.approx(a, abs=1e-10)

    # the module's matrix-kind entries agree with the direct evolution
    o = otoc_matrix(h, PAULIS, 0.7)
    u = expm(-1j * h * 0.7)
    sx_t = u.conj().T @ sx @ u
    assert np.abs(o.entries[0, 1] - (sx_t @ sy - sy @ sx_t)).max() <= 1e-12


def test_averaged_identity_refuses_a_plain_vector():
    with pytest.raises(ValueError, match="GaussianWignerState"):
        averaged_otoc_identity(np.array([0.0, 0.0]), inverted_oscillator(1.0), HEIS, 1.0)
