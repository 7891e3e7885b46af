"""Cost functionals, protocol paths and the two geodesic solvers."""

import math

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from geochaos import geometry
from geochaos.generators import (
    DisplacementVector,
    Generator,
    GeneratorSet,
    heisenberg_generators,
    pauli_generators,
)
from geochaos.geometry import (
    CostWeights,
    GeodesicResult,
    ProtocolPath,
    SolverConfig,
    direct_path_complexity,
    heisenberg_complexity,
    partial_complexity,
    path_cost,
    path_endpoint,
    projective_distance,
    state_complexity,
    unitary_complexity,
)

PAULIS = pauli_generators()
ISO = CostWeights.isotropic(PAULIS)
WEIGHTED = CostWeights({"sigma_x": 1.0, "sigma_y": 1.0, "sigma_z": 1.5})
SX, SY, SZ = (g.matrix for g in PAULIS)

# a light but multistarted profile to keep the suite quick
LIGHT = SolverConfig(n_starts=60, n_refine=4, ode_steps=160,
                     n_restarts_direct=4, seed=1)


def local_paulis(n_qubits):
    """x/y/z Pauli on each qubit of an n-qubit register, labelled x1, y1, ..."""
    gens = []
    for q in range(n_qubits):
        for name, p in zip("xyz", (SX, SY, SZ)):
            m = np.ones((1, 1))
            for r in range(n_qubits):
                m = np.kron(m, p if r == q else np.eye(2))
            gens.append(Generator.from_matrix(f"{name}{q + 1}", m))
    return GeneratorSet(tuple(gens))


def random_hermitian(rng, shape, d):
    z = rng.normal(size=(*shape, d, d)) + 1j * rng.normal(size=(*shape, d, d))
    return 0.5 * (z + z.conj().swapaxes(-1, -2))


def rotation(theta, axis):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    h = axis[0] * SX + axis[1] * SY + axis[2] * SZ
    return np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * h


# ---------------------------------------------------------------------------
# weights and paths


def test_weights_validation():
    with pytest.raises(ValueError):
        CostWeights({"sigma_x": -1.0})
    gens = pauli_generators(include_identity=True)
    w = CostWeights({"sigma_x": 1.0, "sigma_y": 1.0, "sigma_z": 1.0, "id": 0.5})
    with pytest.raises(ValueError):
        w.validate_for(gens)
    CostWeights.isotropic(gens).validate_for(gens)


def test_missing_weight_label():
    with pytest.raises(KeyError):
        ISO.weight("sigma_w")


def test_path_grid_and_controls():
    path = ProtocolPath.constant(["a", "b"], [1.0, 2.0], n_intervals=4)
    assert np.allclose(path.grid, np.linspace(0, 1, 5))
    assert np.allclose(path.control("b"), 2.0)
    with pytest.raises(KeyError):
        path.control("c")
    back = ProtocolPath.from_json(path.to_json())
    assert np.allclose(back.values, path.values)


def test_path_endpoint_single_interval():
    path = ProtocolPath.constant(["sigma_x"], [np.pi / 2])
    gens = pauli_generators()
    sub = type(gens)((gens.generators[0],))
    u = path_endpoint(path, sub)
    assert np.abs(u - (-1j * SX)).max() <= 1e-12


def test_path_endpoint_zero_controls():
    path = ProtocolPath.constant(["sigma_x", "sigma_y", "sigma_z"],
                                 [0.0, 0.0, 0.0], n_intervals=3)
    assert np.abs(path_endpoint(path, PAULIS) - np.eye(2)).max() <= 1e-14


def test_path_endpoint_ordering_against_direct_product():
    # first interval z, then x: the x factor multiplies on the left
    from scipy.linalg import expm

    path = ProtocolPath(("sigma_x", "sigma_z"),
                        np.array([[0.0, np.pi / 4], [np.pi / 4, 0.0]]))
    gens = type(PAULIS)((PAULIS.generators[0], PAULIS.generators[2]))
    u = path_endpoint(path, gens)
    expect = expm(-1j * np.pi / 8 * SX) @ expm(-1j * np.pi / 8 * SZ)
    assert np.abs(u - expect).max() <= 1e-12


def test_path_endpoint_rejects_phase_space():
    with pytest.raises(ValueError):
        path_endpoint(ProtocolPath.constant(["x", "p"], [1.0, 0.0]),
                      heisenberg_generators())


def test_path_cost_straight_line():
    path = ProtocolPath.constant(["sigma_x", "sigma_y", "sigma_z"],
                                 [0.8, 0.0, 0.0], n_intervals=8)
    assert path_cost(path, ISO) == pytest.approx(0.8, rel=1e-14)


def test_path_cost_weighted_z():
    path = ProtocolPath.constant(["sigma_x", "sigma_y", "sigma_z"],
                                 [0.0, 0.0, 0.8], n_intervals=8)
    assert path_cost(path, WEIGHTED) == pytest.approx(0.8 * math.sqrt(1.5), rel=1e-14)


def test_path_cost_identity_direction_free():
    gens = pauli_generators(include_identity=True)
    w = CostWeights.isotropic(gens)
    path = ProtocolPath.constant(gens.labels, [0.0, 0.0, 0.0, 2.5])
    assert path_cost(path, w) == 0.0


def test_partial_complexity_linear_ramp():
    # midpoint sampling of Y(s) = c s integrates to exactly c/2
    c = 1.7
    n = 16
    mids = c * (np.arange(n) + 0.5) / n
    path = ProtocolPath(("sigma_x",), mids[:, None])
    res = GeodesicResult(path=path, length=0.0,
                         partials={"sigma_x": float(mids.mean())},
                         endpoint_residual=0.0, converged=True)
    assert partial_complexity(res, "sigma_x") == pytest.approx(c / 2, rel=1e-14)
    with pytest.raises(KeyError):
        partial_complexity(res, "sigma_q")


# ---------------------------------------------------------------------------
# Heisenberg straight lines


def test_heisenberg_complexity_transported_displacement():
    d = DisplacementVector(np.array([1.2]), np.array([-0.7]), phase=0.3)
    gens = heisenberg_generators()
    w = CostWeights.isotropic(gens)
    res = heisenberg_complexity(d, w, gens)
    assert res.partials["x"] == pytest.approx(1.2)
    assert res.partials["p"] == pytest.approx(-0.7)
    assert res.partials["id"] == pytest.approx(0.3)
    assert res.length == pytest.approx(math.hypot(1.2, 0.7), rel=1e-14)


def test_heisenberg_complexity_pure_phase_is_free():
    d = DisplacementVector(np.array([0.0]), np.array([0.0]), phase=2.0)
    res = heisenberg_complexity(d, CostWeights.isotropic(heisenberg_generators()))
    assert res.length == 0.0


def test_heisenberg_complexity_rejects_costed_identity():
    d = DisplacementVector(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        heisenberg_complexity(d, CostWeights({"x": 1.0, "p": 1.0, "id": 0.5}))


def test_heisenberg_complexity_euclidean_norm():
    d = DisplacementVector(np.array([3.0]), np.array([4.0]))
    res = heisenberg_complexity(d, CostWeights.isotropic(heisenberg_generators()))
    assert res.length == pytest.approx(5.0, rel=1e-14)


def test_heisenberg_weight_scaling():
    d = DisplacementVector(np.array([0.4]), np.array([1.1]))
    gens = heisenberg_generators()
    w = CostWeights.isotropic(gens)
    base = heisenberg_complexity(d, w, gens).length
    scaled = heisenberg_complexity(d, w.scaled(4.0), gens).length
    assert scaled == pytest.approx(2.0 * base, rel=1e-14)


# ---------------------------------------------------------------------------
# unitary complexity


def test_one_parameter_subgroup_is_geodesic():
    res = unitary_complexity(rotation(0.7, [1, 0, 0]), PAULIS, ISO, LIGHT)
    assert res.converged
    assert res.length == pytest.approx(0.7, abs=1e-8)
    assert res.partials["sigma_x"] == pytest.approx(0.7, abs=1e-7)
    assert abs(res.partials["sigma_y"]) <= 1e-7
    assert abs(res.partials["sigma_z"]) <= 1e-7


def test_identity_target_zero_length():
    res = unitary_complexity(np.eye(2), PAULIS, ISO, LIGHT)
    assert res.length == 0.0 and res.converged


def test_weighted_z_rotation_vs_direct_oracle():
    u = rotation(0.9, [0, 0, 1])
    solver = unitary_complexity(
        u, PAULIS, WEIGHTED,
        SolverConfig(n_starts=60, n_refine=4, ode_steps=160,
                     direct_fallback="never", seed=1))
    oracle = direct_path_complexity(u, PAULIS, WEIGHTED, LIGHT)
    assert solver.converged and oracle.converged
    assert solver.length <= 0.9 * math.sqrt(1.5) + 1e-9
    assert abs(solver.length - oracle.length) <= 1e-3


def test_solver_length_never_exceeds_direct_route():
    rng = np.random.default_rng(7)
    for _ in range(2):
        axis = rng.normal(size=3)
        u = rotation(rng.uniform(0.3, 1.2), axis)
        ea = unitary_complexity(
            u, PAULIS, WEIGHTED,
            SolverConfig(n_starts=60, n_refine=4, ode_steps=160,
                         direct_fallback="never", seed=2))
        direct = direct_path_complexity(u, PAULIS, WEIGHTED, LIGHT)
        assert ea.length <= direct.length + 1e-6


def random_feasible_path(u_target, rng, m=8):
    """A random prefix closed off by a constant log-correction segment.

    First m intervals carry random controls; the remaining m synthesise the
    exact (mod phase) correction rotation, so the endpoint hits the target.
    """
    ds = 1.0 / (2 * m)
    prefix = rng.normal(scale=0.8, size=(m, 3))
    v = np.eye(2, dtype=complex)
    for z in prefix:
        h = z[0] * SX + z[1] * SY + z[2] * SZ
        ang = ds * np.linalg.norm(z)
        axis = z / max(np.linalg.norm(z), 1e-300)
        v = (np.cos(ang) * np.eye(2) - 1j * np.sin(ang)
             * (axis[0] * SX + axis[1] * SY + axis[2] * SZ)) @ v
    w = u_target @ v.conj().T
    tr = np.trace(w) / 2
    w = w * np.conj(tr / abs(tr)) if abs(tr) > 1e-12 else w
    # w = cos(th) I - i sin(th) n.sigma
    comps = np.array([np.trace(p @ w) / 2 for p in (SX, SY, SZ)])
    sin_n = comps.imag * -1.0
    th = math.atan2(np.linalg.norm(sin_n), np.real(np.trace(w) / 2))
    axis = sin_n / max(np.linalg.norm(sin_n), 1e-300)
    tail = np.tile(2.0 * th * axis, (m, 1))
    return ProtocolPath(("sigma_x", "sigma_y", "sigma_z"),
                        np.concatenate([prefix, tail]))


def test_minimality_against_random_feasible_paths():
    # random paths hitting the same endpoint must never undercut the
    # solved geodesic
    rng = np.random.default_rng(8)
    u = rotation(0.8, [0.2, -1.0, 0.4])
    res = unitary_complexity(u, PAULIS, WEIGHTED, LIGHT)
    for _ in range(100):
        path = random_feasible_path(u, rng)
        assert projective_distance(path_endpoint(path, PAULIS), u) <= 1e-10
        assert path_cost(path, WEIGHTED) >= res.length - 1e-6


def test_bi_invariant_special_case_random_axes():
    # isotropic complexity of a rotation depends only on its angle
    rng = np.random.default_rng(9)
    theta = 0.9
    expect = min(theta, math.pi - theta)
    for _ in range(5):
        u = rotation(theta, rng.normal(size=3))
        res = unitary_complexity(u, PAULIS, ISO, LIGHT)
        assert res.length == pytest.approx(expect, abs=1e-4)


def test_solved_length_scales_with_weights():
    u = rotation(0.8, [0.3, 0.5, -0.8])
    base = unitary_complexity(u, PAULIS, WEIGHTED, LIGHT).length
    scaled = unitary_complexity(u, PAULIS, WEIGHTED.scaled(4.0), LIGHT).length
    assert scaled == pytest.approx(2.0 * base, abs=1e-6)


def test_length_dominates_weighted_partial_norm():
    # Minkowski: the straight-line content can never exceed the path length
    u = rotation(1.1, [1.0, 0.4, -0.2])
    res = unitary_complexity(u, PAULIS, WEIGHTED, LIGHT)
    w = WEIGHTED.vector(res.path.labels)
    p = np.array([res.partials[l] for l in res.path.labels])
    assert res.length ** 2 >= float(w @ p**2) - 1e-9


def test_straight_line_partials_saturate_length():
    res = unitary_complexity(rotation(0.7, [1, 0, 0]), PAULIS, ISO, LIGHT)
    w = ISO.vector(res.path.labels)
    p = np.array([res.partials[l] for l in res.path.labels])
    assert res.length ** 2 == pytest.approx(float(w @ p**2), abs=1e-8)


def test_non_unitary_target_rejected():
    with pytest.raises(ValueError):
        unitary_complexity(np.array([[1.0, 0.1], [0.0, 1.0]]), PAULIS, ISO, LIGHT)


def test_dimension_cap():
    big = np.eye(16)
    gens16 = type(PAULIS)(tuple(
        type(PAULIS.generators[0])(label=f"g{i}", matrix=np.kron(np.eye(8), m))
        for i, m in enumerate([SX, SY, SZ])))
    with pytest.raises(ValueError):
        unitary_complexity(big, gens16, CostWeights(
            {"g0": 1.0, "g1": 1.0, "g2": 1.0}), LIGHT)


def test_open_generator_set_rejected():
    # {sigma_x, sigma_y} does not close under commutation
    gens = type(PAULIS)((PAULIS.generators[0], PAULIS.generators[1]))
    with pytest.raises(ValueError):
        unitary_complexity(np.eye(2), gens,
                           CostWeights({"sigma_x": 1.0, "sigma_y": 1.0}), LIGHT)


# light profiles for d = 4 and d = 8 local-Pauli targets
MULTI_QUBIT_SHOOT = SolverConfig(n_starts=20, n_refine=3, ode_steps=120, seed=0,
                                 direct_fallback="never", max_iters=40)
MULTI_QUBIT_DIRECT = SolverConfig(n_intervals=8, n_restarts_direct=1,
                                  direct_max_iters=100, seed=0)


def test_two_qubit_product_target():
    # exercises the general-dimension propagator and residual machinery
    i2 = np.eye(2)
    gens = local_paulis(2)
    w = CostWeights({l: 1.0 for l in gens.labels})
    a, b = 0.6, 0.9
    u = expm(-1j * a * np.kron(SX, i2)) @ expm(-1j * b * np.kron(i2, SZ))
    res = unitary_complexity(u, gens, w, MULTI_QUBIT_SHOOT)
    assert res.converged
    assert res.length == pytest.approx(math.hypot(a, b), abs=1e-7)
    assert res.partials["x1"] == pytest.approx(a, abs=1e-6)
    assert res.partials["z2"] == pytest.approx(b, abs=1e-6)


def test_unreachable_target_best_effort():
    # a z-only set cannot synthesise an x rotation: best effort, not raised
    gens = type(PAULIS)((PAULIS.generators[2],))
    res = unitary_complexity(rotation(0.6, [1, 0, 0]), gens,
                             CostWeights({"sigma_z": 1.0}),
                             SolverConfig(n_starts=8, n_refine=2,
                                          ode_steps=64, n_restarts_direct=1,
                                          direct_fallback="auto", seed=0))
    assert not res.converged
    assert res.endpoint_residual > 1e-3


def test_result_serialization():
    res = unitary_complexity(rotation(0.4, [1, 0, 0]), PAULIS, ISO, LIGHT)
    doc = res.to_json()
    assert doc["converged"] is True
    assert set(doc["partials"]) == {"sigma_x", "sigma_y", "sigma_z"}
    assert len(doc["path"]["values"]) == LIGHT.n_intervals


def test_solver_config_json_round_trip():
    # configs saved before tol_endpoint, tol_length and max_radius_multiple
    # became module constants still load: unknown keys are dropped
    cfg = SolverConfig.from_json('{"n_starts": 10, "seed": 3, "unknown": 1, '
                                 '"tol_endpoint": 1e-6, "tol_length": 1e-6, '
                                 '"max_radius_multiple": 5}')
    assert cfg.n_starts == 10 and cfg.seed == 3
    assert len(cfg.to_json()) == 10
    assert SolverConfig.from_json(cfg.to_json()) == cfg


# ---------------------------------------------------------------------------
# state complexity


def test_state_complexity_same_state():
    psi = np.array([1.0, 0.0])
    res = state_complexity(psi, psi, PAULIS, ISO, LIGHT)
    assert res.length == 0.0


def test_state_complexity_bit_flip():
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([0.0, 1.0])
    res = state_complexity(psi0, psi1, PAULIS, ISO, LIGHT)
    assert res.length == pytest.approx(math.pi / 2, abs=1e-6)


def test_state_complexity_bit_flip_weighted():
    # penalising z cannot affect the x-generated geodesic
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([0.0, 1.0])
    res = state_complexity(psi0, psi1, PAULIS, WEIGHTED, LIGHT)
    assert res.length == pytest.approx(math.pi / 2, abs=1e-6)


def test_state_complexity_symmetric():
    rng = np.random.default_rng(11)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    a = v / np.linalg.norm(v)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = w / np.linalg.norm(w)
    ab = state_complexity(a, b, PAULIS, ISO, LIGHT)
    ba = state_complexity(b, a, PAULIS, ISO, LIGHT)
    assert abs(ab.length - ba.length) <= 1e-6


def test_state_complexity_triangle_inequality():
    rng = np.random.default_rng(12)

    def rnd():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)

    a, b, c = rnd(), rnd(), rnd()
    ab = state_complexity(a, b, PAULIS, ISO, LIGHT).length
    bc = state_complexity(b, c, PAULIS, ISO, LIGHT).length
    ac = state_complexity(a, c, PAULIS, ISO, LIGHT).length
    assert ac <= ab + bc + 1e-3


def test_state_complexity_requires_normalized():
    with pytest.raises(ValueError):
        state_complexity(np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                         PAULIS, ISO, LIGHT)


@pytest.mark.parametrize("solve", ["shooting", "direct"])
def test_three_qubit_product_target(solve):
    # d = 8, nine local Paulis: the isotropic complexity of a product of
    # local rotations is the root-sum-square of the per-qubit distances
    gens = local_paulis(3)
    w = CostWeights({l: 1.0 for l in gens.labels})
    angles = (0.6, 0.9, 2.5)
    u = np.kron(np.kron(expm(-1j * angles[0] * SX), expm(-1j * angles[1] * SZ)),
                expm(-1j * angles[2] * SY))
    if solve == "shooting":
        cfg = MULTI_QUBIT_SHOOT
        res = unitary_complexity(u, gens, w, cfg)
    else:
        cfg = MULTI_QUBIT_DIRECT
        res = direct_path_complexity(u, gens, w, cfg)
    expect = math.sqrt(sum(min(t, math.pi - t) ** 2 for t in angles))
    assert res.converged
    assert res.length == pytest.approx(expect, abs=1e-6)
    assert res.endpoint_residual <= geometry.TOL_ENDPOINT
    assert projective_distance(path_endpoint(res.path, gens), u) <= geometry.TOL_ENDPOINT


# ---------------------------------------------------------------------------
# the batched propagation engine


@pytest.mark.parametrize("n_factors", [1, 2, 5, 8, 13])
def test_ordered_product_is_sequential_left_composition(n_factors):
    rng = np.random.default_rng(n_factors)
    factors = geometry._exp_hermitian(random_hermitian(rng, (n_factors, 3), 4))
    expect = np.broadcast_to(np.eye(4), (3, 4, 4))
    for f in factors:
        expect = f @ expect
    got = geometry._ordered_product(factors)
    assert np.abs(got - expect).max() <= 1e-13
    prefixes = geometry._ordered_prefixes(factors)
    assert prefixes.shape == factors.shape
    expect = np.broadcast_to(np.eye(4), (3, 4, 4))
    for f, p in zip(factors, prefixes):
        expect = f @ expect
        assert np.abs(p - expect).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 4, 8])
def test_eigh_exponential_matches_expm(d):
    rng = np.random.default_rng(d)
    h = random_hermitian(rng, (5,), d)
    if d == 2:
        # the closed form's edge cases: zero, a multiple of the identity,
        # and a traceless part so small that r**2 underflows
        tiny = 1e-170 * (SX + 2 * SZ) + 0.3 * np.eye(2)
        h = np.concatenate([h, [np.zeros((2, 2)), 1.7 * np.eye(2), tiny]])
    got = geometry._exp_hermitian(h)
    for hk, gk in zip(h, got):
        assert np.abs(gk - expm(-1j * hk)).max() <= 1e-12


@pytest.mark.parametrize("spectrum", ["generic", "degenerate", "zero"])
def test_daleckii_krein_matches_expm_frechet(spectrum):
    rng = np.random.default_rng(5)
    mats = local_paulis(2).matrices()
    if spectrum == "generic":
        h = random_hermitian(rng, (3,), 4)
    elif spectrum == "degenerate":
        # a local-Pauli sum: eigenvalues +-0.7 +- 0.7, so 0 is doubly degenerate
        h = 0.7 * (mats[0] + mats[5])[None]
    else:
        h = np.zeros((1, 4, 4), dtype=complex)
    ds = 0.3
    g = random_hermitian(rng, h.shape[:1], 4) + 1j * random_hermitian(rng, h.shape[:1], 4)
    a, lam, v = geometry._eigh_exp(ds * h)
    c = geometry._daleckii_krein(lam, v, g)
    for k in range(h.shape[0]):
        for m in mats:
            e, fr = expm_frechet(-1j * ds * h[k], -1j * ds * m)
            assert np.abs(a[k] - e).max() <= 1e-12
            assert abs(np.trace(g[k] @ fr) - (-1j * ds) * np.trace(c[k] @ m)) <= 1e-12


def test_direct_objective_gradient_matches_central_differences():
    # one and two qubits: the same eigh route and adjoint contraction at d = 2, 4
    for n_qubits in (1, 2):
        gens = local_paulis(n_qubits)
        n_gen = len(gens)
        w = CostWeights({l: 1.0 + 0.25 * i for i, l in enumerate(gens.labels)})
        problem = geometry._MatrixProblem(gens, w, MULTI_QUBIT_DIRECT)
        rng = np.random.default_rng(3)
        u_target = expm(-1j * np.tensordot(rng.normal(size=n_gen), gens.matrices(), axes=1))
        n_int, mu = 5, 1e2
        x = rng.normal(size=n_int * n_gen)
        _, grad = geometry._direct_objective(x, problem, u_target, n_int, mu)
        step = 1e-6
        fd = np.empty_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = step
            hi, _ = geometry._direct_objective(x + e, problem, u_target, n_int, mu)
            lo, _ = geometry._direct_objective(x - e, problem, u_target, n_int, mu)
            fd[i] = (hi - lo) / (2 * step)
        assert np.abs(grad - fd).max() <= 1e-6 * max(1.0, np.abs(grad).max()), n_qubits


@pytest.mark.parametrize("n_steps", [60, 120, 17])
def test_shooting_chunking_is_invisible(monkeypatch, n_steps):
    # step counts that are not multiples of the chunk: every chunk size,
    # including one step per fold, must give the same endpoint
    gens = local_paulis(2)
    w = CostWeights({l: 1.0 + 0.5 * (l[0] == "z") for l in gens.labels})
    problem = geometry._MatrixProblem(gens, w, MULTI_QUBIT_SHOOT)
    v = np.random.default_rng(6).normal(size=(3, 6))
    ends = []
    for chunk in (1, 7, geometry._SHOOT_CHUNK, 10_000):
        monkeypatch.setattr(geometry, "_SHOOT_CHUNK", chunk)
        u, y_end, path = problem.shoot(v, n_steps=n_steps, want_path=True)
        assert path.shape == (n_steps + 1, 3, 6)
        assert np.array_equal(path[-1], y_end)
        ends.append(u)
    for u in ends[1:]:
        assert np.abs(u - ends[0]).max() <= 1e-13


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_shooting_propagator_is_fourth_order(n_qubits):
    # halving the step cuts the endpoint error ~16x; a propagator that
    # lost the Hermite slopes of the control curve would only reach ~4x
    gens = local_paulis(n_qubits)
    w = CostWeights({l: 1.0 + 0.5 * (l[0] == "z") for l in gens.labels})
    problem = geometry._MatrixProblem(gens, w, MULTI_QUBIT_SHOOT)
    v = 1.5 * np.random.default_rng(6).normal(size=(3, len(gens)))
    ref, _, _ = problem.shoot(v, n_steps=1280)
    err = [np.abs(problem.shoot(v, n_steps=n)[0] - ref).max() for n in (20, 40, 80)]
    assert err[0] / err[1] > 12 and err[1] / err[2] > 12


@pytest.mark.parametrize("n_steps", [60, 120, 17])
def test_isotropic_shooting_is_one_parameter_subgroup(n_steps):
    # bi-invariant metric: the velocity is constant and the endpoint is
    # exp(-i v.M) exactly, so a dropped or repeated step would show; one
    # qubit checks the 2x2 closed form, two qubits the eigh route
    for n_qubits in (1, 2):
        gens = local_paulis(n_qubits)
        problem = geometry._MatrixProblem(gens, CostWeights.isotropic(gens),
                                          MULTI_QUBIT_SHOOT)
        v = np.random.default_rng(7).normal(size=(2, len(gens)))
        u, _, _ = problem.shoot(v, n_steps=n_steps)
        for vk, uk in zip(v, u):
            expect = expm(-1j * np.tensordot(vk, gens.matrices(), axes=1))
            assert np.abs(uk - expect).max() <= 1e-12, n_qubits


def gell_mann():
    """The eight Gell-Mann matrices: an orthogonal basis of su(3)."""
    mats = []
    for a in range(3):
        for b in range(a + 1, 3):
            for entry in (1.0, -1j):
                m = np.zeros((3, 3), dtype=complex)
                m[a, b], m[b, a] = entry, np.conj(entry)
                mats.append(m)
    mats.append(np.diag([1.0, -1.0, 0.0]).astype(complex))
    mats.append(np.diag([1.0, 1.0, -2.0]).astype(complex) / math.sqrt(3.0))
    return GeneratorSet(tuple(Generator.from_matrix(f"l{i + 1}", m)
                              for i, m in enumerate(mats)))


def test_state_complexity_above_one_qubit_is_flagged_upper_bound():
    # qutrit |0> -> |1>: a unit-norm generator moves |0> at speed <= 1, so
    # the state complexity is pi/2, reached by exp(-i pi/2 l1)
    gens = gell_mann()
    res = state_complexity(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                           gens, CostWeights.isotropic(gens),
                           SolverConfig(n_starts=20, n_refine=3, ode_steps=120,
                                        seed=0, direct_fallback="never",
                                        max_iters=40, stabilizer_scan=4))
    assert res.converged
    assert res.method.endswith("+upper_bound")
    assert res.length == pytest.approx(math.pi / 2, abs=1e-6)
    qubit = state_complexity(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                             PAULIS, ISO, LIGHT)
    assert qubit.method in ("euler_arnold", "direct")
