"""Classical flows, tangent maps, Lyapunov benchmarks and Wigner transport."""

import numpy as np
import pytest

from geochaos.classical import (
    GaussianWignerState,
    IntegratorConfig,
    QRConfig,
    QuadraticHamiltonian,
    classical_lyapunov,
    evolve_flow,
    evolve_wigner_gaussian,
    free_particle,
    hamiltonian_from_name,
    harmonic_oscillator,
    iho_displacement_analytic,
    iho_response_analytic,
    inverted_oscillator,
    jacobian_matrix,
    quartic_oscillator,
    symplectic_form,
)
from geochaos.generators import DisplacementVector, conjugate_by_quadratic_flow

J2 = symplectic_form(1)


def test_quadratic_form_must_be_symmetric():
    with pytest.raises(ValueError):
        QuadraticHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_iho_flow_endpoint():
    flow = evolve_flow(inverted_oscillator(1.0), [1.0, 0.0], 1.0)
    assert flow.endpoint == pytest.approx([np.cosh(1.0), np.sinh(1.0)], rel=1e-12)


def test_flow_zero_time():
    flow = evolve_flow(harmonic_oscillator(2.0), [0.3, -0.4], 0.0)
    assert np.allclose(flow.endpoint, [0.3, -0.4])


def test_harmonic_periodicity():
    x0 = np.array([1.0, 0.5])
    flow = evolve_flow(harmonic_oscillator(1.0), x0, 2.0 * np.pi)
    assert np.abs(flow.endpoint - x0).max() <= 1e-10


def test_jacobians_symplectic_unit_det():
    systems = [inverted_oscillator(1.0), inverted_oscillator(2.0),
               harmonic_oscillator(1.0), free_particle()]
    for ham in systems:
        for t in (0.5, 2.0, 5.0):
            jac = jacobian_matrix(ham, [0.2, 0.1], t)
            # scale-aware: the defect of S^T J S is quadratic in the entries
            scale = max(1.0, np.abs(jac).max() ** 2)
            assert np.abs(jac.T @ J2 @ jac - J2).max() <= 1e-8 * scale
            assert abs(np.linalg.det(jac) - 1.0) <= 1e-8 * scale


def test_iho_jacobian_matches_closed_form():
    jac = jacobian_matrix(inverted_oscillator(1.0), [0.0, 0.0], 1.0)
    ch, sh = np.cosh(1.0), np.sinh(1.0)
    assert np.abs(jac - [[ch, sh], [sh, ch]]).max() <= 1e-12


def test_jacobian_zero_time_identity():
    jac = jacobian_matrix(quartic_oscillator(), [1.0, 0.0], 0.0)
    assert np.allclose(jac, np.eye(2))


def test_quartic_tangent_map_vs_finite_differences():
    ham = quartic_oscillator()
    x0 = np.array([1.0, 0.0])
    t = 2.0
    jac = jacobian_matrix(ham, x0, t)
    eps = 1e-6
    fd = np.empty((2, 2))
    for k in range(2):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += eps
        xm[k] -= eps
        fd[:, k] = (evolve_flow(ham, xp, t).endpoint
                    - evolve_flow(ham, xm, t).endpoint) / (2 * eps)
    assert np.abs(jac - fd).max() <= 1e-6
    assert np.abs(jac.T @ J2 @ jac - J2).max() <= 1e-8


def test_quartic_energy_drift_guard():
    # a step far beyond the stability limit must be reported, not returned
    ham = quartic_oscillator()
    with pytest.raises(RuntimeError):
        evolve_flow(ham, [5.0, 0.0], 20.0, IntegratorConfig(step=1.0))


def test_flow_samples_shapes():
    flow = evolve_flow(inverted_oscillator(1.0), [1.0, 0.0], 2.0, n_samples=5)
    assert flow.times.shape == (5,)
    assert flow.points.shape == (5, 2)
    assert flow.jacobians.shape == (5, 2, 2)


# ---------------------------------------------------------------------------
# Lyapunov benchmark


def test_benettin_iho():
    est = classical_lyapunov(inverted_oscillator(1.0), [1.0, 0.5], 100.0)
    assert np.abs(est.lambdas - [1.0, -1.0]).max() <= 0.01


def test_benettin_harmonic():
    est = classical_lyapunov(harmonic_oscillator(1.0), [1.0, 0.5], 100.0)
    assert np.abs(est.lambdas).max() <= 0.01


def test_benettin_free_particle_algebraic_shear():
    est = classical_lyapunov(free_particle(), [1.0, 0.5], 400.0)
    assert np.abs(est.lambdas).max() <= 0.02


def test_benettin_nonlinear_route():
    # integrable system: exponents decay like log(t)/t along the orbit shear
    est = classical_lyapunov(quartic_oscillator(), [1.0, 0.0], 200.0,
                             QRConfig(step=0.005, renorm_every=20))
    assert np.abs(est.lambdas).max() <= 0.05


def _stepwise_benettin(ham, t_total, cfg=QRConfig()):
    """Reference loop: renorm_every products with flow_matrix(step) per
    block, then QR with positive R diagonal; exponents and residual."""
    step_map = ham.flow_matrix(cfg.step)
    block_t = cfg.step * cfg.renorm_every
    n_blocks = int(np.floor(t_total / block_t))
    q_mat = np.eye(2)
    logs = np.zeros(2)
    rates = []
    for _ in range(n_blocks):
        for _ in range(cfg.renorm_every):
            q_mat = step_map @ q_mat
        q_mat, r = np.linalg.qr(q_mat)
        diag = np.diag(r)
        q_mat = q_mat * np.where(diag < 0, -1.0, 1.0)
        logs += np.log(np.abs(diag))
        rates.append(np.log(np.abs(diag)) / block_t)
    lam = np.sort(logs / (n_blocks * block_t))[::-1]
    tail = np.sort(np.stack(rates[n_blocks // 2:]), axis=1)[:, ::-1]
    return lam, float(np.sqrt(np.mean((tail - lam) ** 2)))


@pytest.mark.parametrize("ham,t_total", [
    (inverted_oscillator(1.0), 60.0),
    (inverted_oscillator(2.0), 60.0),
    (harmonic_oscillator(1.0), 200.0),
    (free_particle(), 200.0),
], ids=["iho_1", "iho_2", "harmonic", "free"])
def test_benettin_block_map_matches_stepwise_loop(ham, t_total):
    # one flow_matrix(step * renorm_every) per block in place of the products
    est = classical_lyapunov(ham, [1.0, 0.5], t_total)
    lam, residual = _stepwise_benettin(ham, t_total)
    assert np.abs(est.lambdas - lam).max() <= 1e-12
    assert abs(est.residual - residual) <= 1e-12


def test_benettin_requires_enough_blocks():
    with pytest.raises(ValueError):
        classical_lyapunov(inverted_oscillator(1.0), [1.0, 0.0], 1.0)


# ---------------------------------------------------------------------------
# Gaussian Wigner transport


def test_wigner_zero_time():
    state = GaussianWignerState.vacuum()
    out = evolve_wigner_gaussian(state, inverted_oscillator(1.0), 0.0)
    assert np.allclose(out.mean, state.mean)
    assert np.allclose(out.covariance, state.covariance)


def test_wigner_shift_commutes_with_flow():
    # shifting then evolving equals evolving then shifting by S(t) delta
    ham = inverted_oscillator(1.0)
    state = GaussianWignerState(np.array([0.2, -0.1]), 0.5 * np.eye(2))
    delta = np.array([1e-3, 2e-3])
    t = 1.4
    s = ham.flow_matrix(t)
    a = evolve_wigner_gaussian(state.shifted(delta), ham, t)
    b = evolve_wigner_gaussian(state, ham, t).shifted(s @ delta)
    assert np.abs(a.mean - b.mean).max() <= 1e-12
    assert np.abs(a.covariance - b.covariance).max() <= 1e-12


def test_wigner_covariance_determinant_preserved():
    state = GaussianWignerState.vacuum()
    out = evolve_wigner_gaussian(state, inverted_oscillator(1.0), 1.0)
    assert np.linalg.det(out.covariance) == pytest.approx(0.25, rel=1e-10)


def test_wigner_needs_quadratic_hamiltonian():
    with pytest.raises(TypeError):
        evolve_wigner_gaussian(GaussianWignerState.vacuum(),
                               quartic_oscillator(), 1.0)


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianWignerState(np.zeros(2), np.array([[1.0, 0.0], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        GaussianWignerState(np.zeros(2), 0.1 * np.eye(2))  # below uncertainty


# ---------------------------------------------------------------------------
# closed-form oracles


def test_iho_response_analytic_values():
    r = iho_response_analytic(1.0, 1.0)
    ch, sh = np.cosh(1.0), np.sinh(1.0)
    assert np.abs(r.entries - [[ch, sh], [sh, ch]]).max() <= 1e-12
    assert np.allclose(iho_response_analytic(1.0, 0.0).entries, np.eye(2))
    r2 = iho_response_analytic(2.0, 0.5)
    expected = [[np.cosh(1.0), 2 * np.sinh(1.0)],
                [np.sinh(1.0) / 2, np.cosh(1.0)]]
    assert np.abs(r2.entries - expected).max() <= 1e-12


def test_iho_displacement_analytic_values():
    d = iho_displacement_analytic(1.0, 0.0, 1.0, 1.0)
    assert d.a[0] == pytest.approx(np.cosh(1.0), rel=1e-14)
    assert d.b[0] == pytest.approx(np.sinh(1.0), rel=1e-14)
    d0 = iho_displacement_analytic(0.3, -0.7, 2.0, 0.0)
    assert (d0.a[0], d0.b[0]) == (pytest.approx(0.3), pytest.approx(-0.7))


def test_displacement_analytic_agrees_with_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(8):
        e1, e2 = rng.normal(size=2)
        omega = rng.uniform(0.3, 2.5)
        t = rng.uniform(0.0, 3.0)
        ana = iho_displacement_analytic(e1, e2, omega, t)
        num = conjugate_by_quadratic_flow(
            DisplacementVector(np.array([e1]), np.array([e2])),
            inverted_oscillator(omega), t)
        assert abs(ana.a[0] - num.a[0]) <= 1e-12 * max(1, abs(ana.a[0]))
        assert abs(ana.b[0] - num.b[0]) <= 1e-12 * max(1, abs(ana.b[0]))


def test_hamiltonian_from_name():
    assert hamiltonian_from_name("iho", omega=2.0).omega == 2.0
    assert hamiltonian_from_name("free").name == "free"
    with pytest.raises(ValueError):
        hamiltonian_from_name("pendulum")
