"""Response matrices, spectra and Lyapunov extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from _fd_oracle import unitary_response_fd
from geochaos.classical import (
    GaussianWignerState,
    QuadraticHamiltonian,
    free_particle,
    harmonic_oscillator,
    inverted_oscillator,
    jacobian_matrix,
    symplectic_form,
)
from geochaos.generators import (
    DisplacementVector,
    Generator,
    GeneratorSet,
    conjugate_by_quadratic_flow,
    heisenberg_generators,
    pauli_generators,
)
from geochaos.geometry import CostWeights, bloch_vector, heisenberg_complexity
from geochaos.response import (
    ResponseMatrix,
    ResponseSpectrum,
    lyapunov_spectrum,
    response_spectrum,
    state_response_matrix,
    unitary_response_matrix,
)

HEIS = heisenberg_generators()
PAULIS = pauli_generators()
PROPERTY = settings(max_examples=60)
finite = st.floats(min_value=-2.0, max_value=2.0)


def symmetric_forms(n_modes):
    size = 2 * n_modes
    return st.lists(finite, min_size=size * size, max_size=size * size).map(
        lambda v: np.add(np.reshape(v, (size, size)),
                         np.reshape(v, (size, size)).T) / 2)


def adjoint_oracle(u):
    """Pauli components of U sigma_i U^dag by the trace formula, row i."""
    mats = [g.matrix for g in PAULIS]
    return np.array([[np.real(np.trace(mj @ u @ mi @ u.conj().T)) / 2
                      for mj in mats] for mi in mats])


# ---------------------------------------------------------------------------
# unitary flavor, displacement pipeline


def test_displacement_response_matches_analytic():
    r = unitary_response_matrix(inverted_oscillator(1.0), HEIS, 1.0)
    expect = np.array([[1.543081, 1.175201], [1.175201, 1.543081]])
    assert np.abs(r.entries - expect).max() <= 1e-6
    assert r.labels == ("x", "p")
    assert r.reliable.all()


def test_displacement_response_zero_time_identity():
    for ham in (inverted_oscillator(0.5), harmonic_oscillator(2.0), free_particle()):
        r = unitary_response_matrix(ham, HEIS, 0.0)
        assert np.abs(r.entries - np.eye(2)).max() <= 1e-12


def test_displacement_response_harmonic_rotation():
    # the displacement transport itself is the oracle here: entries follow
    # the transposed flow map of the harmonic oscillator
    ham = harmonic_oscillator(1.0)
    t = np.pi / 2
    r = unitary_response_matrix(ham, HEIS, t)
    expect = ham.flow_matrix(t).T
    assert np.abs(r.entries - expect).max() <= 1e-10
    assert np.abs(np.abs(r.entries) - [[0.0, 1.0], [1.0, 0.0]]).max() <= 1e-10


def test_displacement_response_determinant_one():
    for ham in (inverted_oscillator(2.0), harmonic_oscillator(0.5), free_particle()):
        for t in (0.5, 2.0, 5.0):
            r = unitary_response_matrix(ham, HEIS, t)
            scale = max(1.0, np.abs(r.entries).max() ** 2)
            assert abs(np.linalg.det(r.entries) - 1.0) <= 1e-8 * scale


def test_free_particle_response_polynomial():
    r = unitary_response_matrix(free_particle(), HEIS, 3.0)
    assert np.abs(r.entries - [[1.0, 0.0], [3.0, 1.0]]).max() <= 1e-10


@PROPERTY
@given(st.integers(1, 2).flatmap(symmetric_forms),
       st.floats(min_value=0.0, max_value=4.0))
def test_displacement_response_is_transposed_flow(a, t):
    # row K: partials of the transported unit displacement along K
    ham = QuadraticHamiltonian(a)
    n = ham.n_modes
    gens = heisenberg_generators(n)
    weights = CostWeights.isotropic(gens)
    r = unitary_response_matrix(ham, gens, t)
    for k, label in enumerate(r.labels):
        unit = np.eye(2 * n)[k]
        moved = conjugate_by_quadratic_flow(DisplacementVector(unit[:n], unit[n:]),
                                            ham, t)
        partials = heisenberg_complexity(moved, weights, gens).partials
        assert r.entries[k] == pytest.approx([partials[l] for l in r.labels],
                                             rel=1e-12, abs=1e-12)
    assert np.array_equal(r.entries, ham.flow_matrix(t).T)


def _rotated_heisenberg():
    """{(x + p)/sqrt 2, (p - x)/sqrt 2, id}: a rotated, non-canonical basis."""
    c = 1.0 / np.sqrt(2.0)
    return GeneratorSet((Generator.from_phase_space("u", c, c),
                         Generator.from_phase_space("v", -c, c),
                         Generator.from_phase_space("id", 0.0, 0.0, 1.0)),
                        identity_index=2)


@pytest.mark.parametrize("gens,canonical", [
    (GeneratorSet((HEIS[0],)), False),
    (_rotated_heisenberg(), False),
    (heisenberg_generators(1), True),
    (heisenberg_generators(1, include_identity=False), True),
    (heisenberg_generators(2), True),
    (heisenberg_generators(2, include_identity=False), True),
], ids=["x_only", "rotated", "one_mode", "one_mode_no_id", "two_modes",
        "two_modes_no_id"])
def test_phase_space_maps_need_the_canonical_basis(gens, canonical):
    # S(t) acts on (q_1..q_N, p_1..p_N): any other costed set would get the
    # canonical entries under its own labels
    n = gens.n_modes
    ham = QuadraticHamiltonian(np.diag(np.arange(1.0, 2 * n + 1)) - 0.3)
    calls = [lambda: unitary_response_matrix(ham, gens, 1.0),
             lambda: state_response_matrix(GaussianWignerState.vacuum(n), ham, gens, 1.0),
             lambda: heisenberg_complexity(DisplacementVector(np.ones(n), -np.ones(n)),
                                           CostWeights.isotropic(gens), gens)]
    if not canonical:
        for call in calls:
            with pytest.raises(ValueError, match="canonical"):
                call()
        return
    s = ham.flow_matrix(1.0)
    ru, rs, geo = (call() for call in calls)
    labels = gens.costed_labels()
    assert ru.labels == rs.labels == labels
    assert np.array_equal(ru.entries, s.T) and np.array_equal(rs.entries, s)
    assert [geo.partials[l] for l in labels] == [1.0] * n + [-1.0] * n


# ---------------------------------------------------------------------------
# unitary flavor, matrix pipeline


def test_matrix_response_zero_time_identity():
    r = unitary_response_matrix(PAULIS.generators[2].matrix, PAULIS, 0.0)
    assert np.abs(r.entries - np.eye(3)).max() <= 1e-12


def test_matrix_response_matches_adjoint_rotation():
    # oracle: partials of exp(-i eps M_K) conjugated through exp(-iHt) are
    # the basis components of the conjugated generator
    h = PAULIS.generators[2].matrix
    t = 0.3
    r = unitary_response_matrix(h, PAULIS, t)
    pred = adjoint_oracle(expm(-1j * h * t))
    assert np.abs(r.entries - pred).max() <= 1e-6
    assert abs(np.linalg.det(r.entries) - 1.0) <= 1e-6


@pytest.mark.parametrize("h, t", [
    (PAULIS.generators[2].matrix, 0.3),
    (0.4 * PAULIS.generators[0].matrix - 0.5 * PAULIS.generators[1].matrix
     + 0.6 * PAULIS.generators[2].matrix, 0.9),
], ids=["sigma_z", "generic_axis"])
def test_matrix_response_matches_finite_difference_oracle(h, t):
    r = unitary_response_matrix(h, PAULIS, t)
    assert np.abs(r.entries - unitary_response_fd(h, PAULIS, t)).max() <= 1e-6


@PROPERTY
@given(st.lists(finite, min_size=4, max_size=4),
       st.floats(min_value=0.0, max_value=5.0))
def test_matrix_response_is_rotation(coeffs, t):
    c0, cx, cy, cz = coeffs
    mats = [g.matrix for g in PAULIS]
    h = c0 * np.eye(2) + cx * mats[0] + cy * mats[1] + cz * mats[2]
    r = unitary_response_matrix(h, PAULIS, t).entries
    assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-12
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(r - adjoint_oracle(expm(-1j * h * t))).max() <= 1e-12


def test_matrix_response_ignores_trace_parts():
    # endpoints are compared modulo global phase, so the projector
    # |0><0| = (1 + sigma_z) / 2 acts as the basis element sigma_z / 2
    mats = [g.matrix for g in PAULIS]
    gens = GeneratorSet((Generator.from_matrix("x", mats[0]),
                         Generator.from_matrix("y", mats[1]),
                         Generator.from_matrix("p0", np.diag([1.0, 0.0]))))
    h = 0.4 * mats[0] + 0.2 * mats[1] - 0.7 * mats[2]
    scale = np.diag([1.0, 1.0, 0.5])
    pred = scale @ adjoint_oracle(expm(-1j * h * 0.6)) @ np.linalg.inv(scale)
    r = unitary_response_matrix(h, gens, 0.6)
    assert np.abs(r.entries - pred).max() <= 1e-12


def local_pauli_generators():
    mats = [g.matrix for g in PAULIS]
    gens = [Generator.from_matrix(f"{p}{site + 1}",
                                  np.kron(m, np.eye(2)) if site == 0
                                  else np.kron(np.eye(2), m))
            for site in (0, 1) for p, m in zip("xyz", mats)]
    return GeneratorSet(tuple(gens))


@settings(max_examples=20)
@given(st.floats(min_value=0.1, max_value=1.4))
def test_matrix_response_rejects_leaving_the_span(t):
    # exp(-i t Z Z) turns x1 into cos(2t) x1 + sin(2t) y1 z2, which no
    # local Pauli combination reaches
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="leaves the span"):
        unitary_response_matrix(zz, local_pauli_generators(), t)
    with pytest.raises(ValueError, match="leaves the span"):
        state_response_matrix(np.eye(4)[0], zz, local_pauli_generators(), t)


@pytest.mark.parametrize("flavor", ["unitary", "state"])
def test_matrix_response_rejects_non_hermitian_hamiltonian(flavor):
    # the closed-form qubit exponential reads only the upper triangle of H,
    # so a non-Hermitian H must be refused, not silently misread
    h = np.array([[0.3, 1.0], [0.0, -0.3]])
    with pytest.raises(ValueError, match="not Hermitian"):
        if flavor == "unitary":
            unitary_response_matrix(h, PAULIS, 0.7)
        else:
            state_response_matrix(np.array([1.0, 0.0]), h, PAULIS, 0.7)


# ---------------------------------------------------------------------------
# state flavor


def test_phase_space_state_response_refuses_a_plain_vector():
    # ndarray has a mean method, so only the state type can tell the two apart
    with pytest.raises(ValueError, match="GaussianWignerState"):
        state_response_matrix(np.array([0.0, 0.0]), inverted_oscillator(1.0), HEIS, 1.0)


def test_gaussian_state_response_equals_unitary_for_symmetric_flow():
    ham = inverted_oscillator(1.0)
    state = GaussianWignerState.vacuum()
    rs = state_response_matrix(state, ham, HEIS, 1.0)
    ru = unitary_response_matrix(ham, HEIS, 1.0)
    expect = np.array([[1.543081, 1.175201], [1.175201, 1.543081]])
    assert np.abs(rs.entries - expect).max() <= 1e-6
    assert np.abs(rs.entries - ru.entries).max() <= 1e-10


def test_gaussian_state_response_zero_time():
    rs = state_response_matrix(GaussianWignerState.vacuum(),
                               harmonic_oscillator(1.3), HEIS, 0.0)
    assert np.abs(rs.entries - np.eye(2)).max() <= 1e-14


def test_gaussian_state_response_equals_tangent_map():
    state = GaussianWignerState.vacuum()
    for ham in (inverted_oscillator(1.0), inverted_oscillator(2.0),
                harmonic_oscillator(1.0), free_particle()):
        for t in (0.5, 1.5, 3.0):
            rs = state_response_matrix(state, ham, HEIS, t)
            jac = jacobian_matrix(ham, state.mean, t)
            scale = max(1.0, np.abs(jac).max())
            assert np.abs(rs.entries - jac).max() <= 1e-6 * scale


@PROPERTY
@given(st.lists(st.floats(min_value=-1e13, max_value=1e13), min_size=2, max_size=2),
       st.sampled_from([inverted_oscillator(1.0), harmonic_oscillator(0.7),
                        free_particle()]),
       st.floats(min_value=0.0, max_value=3.0))
def test_gaussian_state_response_is_flow_at_any_mean(mean, ham, t):
    # differencing S(m + e_k) - S m lost digits to cancellation at large |m|
    state = GaussianWignerState(np.array(mean), 0.5 * np.eye(2))
    rs = state_response_matrix(state, ham, HEIS, t)
    assert np.array_equal(rs.entries, ham.flow_matrix(t))


def test_gaussian_pipeline_rejects_nonquadratic():
    with pytest.raises(TypeError):
        state_response_matrix(GaussianWignerState.vacuum(), object(), HEIS, 1.0)


def test_matrix_state_response_projected_adjoint_generic_state():
    # perturbations along the stabilizer of the evolved state cost nothing:
    # the response is the adjoint rotation projected transverse to the
    # evolved Bloch axis n, with n_j = <psi1|sigma_j|psi1>
    mats = [g.matrix for g in PAULIS]
    h = 0.3 * mats[0] + 0.7 * mats[2]
    t = 0.8
    psi0 = np.array([np.cos(0.4), np.exp(0.7j) * np.sin(0.4)])
    rs = state_response_matrix(psi0, h, PAULIS, t)
    u = expm(-1j * h * t)
    psi1 = u @ psi0
    axis = np.array([np.real(np.vdot(psi1, m @ psi1)) for m in mats])
    pred = adjoint_oracle(u) @ (np.eye(3) - np.outer(axis, axis))
    assert np.abs(rs.entries - pred).max() <= 1e-10
    assert np.abs(rs.entries @ axis).max() <= 1e-12


def test_matrix_state_response_zero_time_projector():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rs = state_response_matrix(plus, PAULIS.generators[2].matrix, PAULIS, 0.0)
    axis = bloch_vector(plus)
    pred = np.eye(3) - np.outer(axis, axis)
    assert np.abs(rs.entries - pred).max() <= 1e-12


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_identity():
    r = ResponseMatrix(flavor="unitary", entries=np.eye(3), time=0.0,
                       labels=("a", "b", "c"))
    sp = response_spectrum(r)
    assert np.allclose(sp.eigenvalues, 1.0)


def test_spectrum_iho_exponentials():
    r = unitary_response_matrix(inverted_oscillator(1.0), HEIS, 1.0)
    sp = response_spectrum(r)
    assert sp.eigenvalues[0] == pytest.approx(np.exp(2.0), rel=1e-9)
    assert sp.eigenvalues[1] == pytest.approx(np.exp(-2.0), rel=1e-9)
    assert np.abs(sp.l_matrix - sp.l_matrix.T).max() <= 1e-12


def test_spectrum_product_is_squared_determinant():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(3, 3))
    r = ResponseMatrix(flavor="unitary", entries=m, time=0.0,
                       labels=("a", "b", "c"))
    sp = response_spectrum(r)
    assert np.prod(sp.eigenvalues) == pytest.approx(np.linalg.det(m) ** 2,
                                                    rel=1e-8)


def test_spectrum_requires_square():
    r = ResponseMatrix(flavor="unitary", entries=np.ones((2, 3)), time=0.0,
                       labels=("a", "b", "c"))
    with pytest.raises(ValueError):
        response_spectrum(r)


# ---------------------------------------------------------------------------
# Lyapunov fits


def synthetic_spectra(lams, times):
    out = []
    for t in times:
        vals = np.sort(np.exp(2 * np.asarray(lams) * t))[::-1]
        out.append(ResponseSpectrum(l_matrix=np.diag(vals), eigenvalues=vals,
                                    time=float(t)))
    return out


def test_lyapunov_fit_exact_exponentials():
    spectra = synthetic_spectra([0.7, -0.7], np.linspace(1, 4, 7))
    est = lyapunov_spectrum(spectra, (1.0, 4.0))
    assert np.abs(est.lambdas - [0.7, -0.7]).max() <= 1e-12
    assert est.residual <= 1e-12


def test_lyapunov_iho_window():
    ham = inverted_oscillator(1.0)
    spectra = [response_spectrum(unitary_response_matrix(ham, HEIS, float(t)))
               for t in np.linspace(5, 10, 11)]
    est = lyapunov_spectrum(spectra, (5.0, 10.0))
    assert np.abs(est.lambdas - [1.0, -1.0]).max() <= 0.01
    assert abs(est.lambdas[0] + est.lambdas[-1]) <= max(2 * est.residual, 1e-8)


def test_lyapunov_harmonic_window():
    ham = harmonic_oscillator(1.0)
    spectra = [response_spectrum(unitary_response_matrix(ham, HEIS, float(t)))
               for t in np.linspace(20, 50, 31)]
    est = lyapunov_spectrum(spectra, (20.0, 50.0))
    assert np.abs(est.lambdas).max() <= 0.05


def test_lyapunov_iho_strong_hyperbolicity():
    # at omega = 2 the expanding eigenvalue reaches e^40 by t = 10, far past
    # where an SVD still resolves the contracting one
    ham = inverted_oscillator(2.0)
    spectra = [response_spectrum(unitary_response_matrix(ham, HEIS, float(t)))
               for t in np.linspace(5, 10, 11)]
    est = lyapunov_spectrum(spectra, (5.0, 10.0))
    assert np.abs(est.lambdas - [2.0, -2.0]).max() <= 0.01
    assert np.prod(spectra[-1].eigenvalues) == pytest.approx(1.0, abs=1e-9)


def test_spectrum_non_symplectic_keeps_svd():
    m = np.diag([4.0, 0.5])
    assert np.abs(m.T @ symplectic_form(1) @ m - symplectic_form(1)).max() > 0.5
    r = ResponseMatrix(flavor="unitary", entries=m, time=0.0,
                       labels=("a", "b"))
    assert np.array_equal(response_spectrum(r).eigenvalues, [16.0, 0.25])


def test_lyapunov_needs_enough_points():
    spectra = synthetic_spectra([0.5, -0.5], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        lyapunov_spectrum(spectra, (1.0, 3.0))


def test_lyapunov_rejects_nonpositive_eigenvalues():
    spectra = synthetic_spectra([0.5, -0.5], np.linspace(1, 3, 6))
    bad = ResponseSpectrum(l_matrix=np.diag([1.0, 0.0]),
                           eigenvalues=np.array([1.0, 0.0]), time=2.5)
    with pytest.raises(ValueError):
        lyapunov_spectrum(spectra + [bad], (1.0, 3.0))
