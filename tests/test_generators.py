"""Generator algebra: validation, commutators, exact displacement group."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geochaos.generators import (
    HBAR,
    DisplacementVector,
    Generator,
    GeneratorSet,
    _commutator_table,
    commutator,
    compose_displacements,
    conjugate_by_quadratic_flow,
    heisenberg_generators,
    pauli_generators,
)
from geochaos.classical import (
    QuadraticHamiltonian,
    harmonic_oscillator,
    inverted_oscillator,
    symplectic_form,
)
from geochaos.response import unitary_response_matrix
from test_geometry import SX, SZ, gell_mann, local_paulis

finite = st.floats(min_value=-2.0, max_value=2.0)
# the traceless costed sets every solve runs on
COSTED_SETS = {"paulis": pauli_generators(), "local_paulis": local_paulis(2),
               "gell_mann": gell_mann()}


def truncated_qp(n):
    """Ladder-operator q, p matrices on an n-level truncation (hbar = 1)."""
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    ad = a.conj().T
    q = (a + ad) / np.sqrt(2)
    p = (a - ad) / (1j * np.sqrt(2))
    return q, p


# ---------------------------------------------------------------------------
# construction and validation


def test_matrix_generator_requires_hermitian():
    with pytest.raises(ValueError):
        Generator.from_matrix("bad", np.array([[0, 1], [0, 0]], dtype=complex))


def test_generator_set_rejects_non_hermitian_members():
    good = Generator.from_matrix("x", np.array([[0, 1], [1, 0]], dtype=complex))
    bad = Generator(label="bad", matrix=np.array([[0, 1j], [1j, 0]]))
    with pytest.raises(ValueError):
        GeneratorSet((good, bad))


def test_generator_set_rejects_duplicate_labels():
    g = Generator.from_matrix("x", np.eye(2))
    with pytest.raises(ValueError):
        GeneratorSet((g, Generator.from_matrix("x", np.eye(2))))


def test_generator_set_rejects_mixed_kinds():
    g1 = Generator.from_matrix("x", np.eye(2))
    g2 = Generator.from_phase_space("q", [1.0], [0.0])
    with pytest.raises(ValueError):
        GeneratorSet((g1, g2))


def test_identity_index_must_point_at_identity():
    gens = pauli_generators()
    with pytest.raises(ValueError):
        GeneratorSet(gens.generators, identity_index=0)


def test_phase_space_coeffs_must_be_finite():
    with pytest.raises(ValueError):
        Generator.from_phase_space("q", [np.inf], [0.0])


def test_json_round_trip_matrix_kind():
    gens = pauli_generators(include_identity=True)
    doc = gens.to_json()
    back = GeneratorSet.from_json(doc)
    assert back.labels == gens.labels
    assert back.identity_index == gens.identity_index
    for g1, g2 in zip(gens, back):
        assert np.allclose(g1.matrix, g2.matrix)


def test_json_round_trip_phase_space_kind():
    gens = heisenberg_generators(n_modes=2)
    back = GeneratorSet.from_json(gens.to_json())
    assert back.labels == gens.labels
    for g1, g2 in zip(gens, back):
        assert np.allclose(g1.coeffs, g2.coeffs)


# ---------------------------------------------------------------------------
# commutators


def test_commutator_canonical_pair():
    # [q, p] = i hbar: identity coefficient 1 in hbar = 1 units
    gens = heisenberg_generators()
    q, p = gens.generators[0], gens.generators[1]
    c = commutator(q, p)
    assert c.kind == "phase_space"
    assert np.allclose(c.a, 0) and np.allclose(c.b, 0)
    assert c.c == pytest.approx(1.0, abs=0)


def test_commutator_pauli_pair():
    gens = pauli_generators()
    c = commutator(gens.generators[0], gens.generators[1])
    assert np.allclose(c.matrix, 2j * gens.generators[2].matrix, atol=1e-15)


def test_commutator_self_is_zero():
    gens = heisenberg_generators()
    c = commutator(gens.generators[0], gens.generators[0])
    assert c.c == 0.0


def test_commutator_kind_mismatch():
    with pytest.raises(ValueError):
        commutator(pauli_generators().generators[0],
                   heisenberg_generators().generators[0])


def test_commutator_antisymmetry_matrix_kind():
    rng = np.random.default_rng(0)
    mats = []
    for i in range(4):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        mats.append(Generator.from_matrix(f"g{i}", m + m.conj().T))
    for a in mats:
        for b in mats:
            ab = commutator(a, b).matrix
            ba = commutator(b, a).matrix
            assert np.abs(ab + ba).max() <= 1e-12


def test_commutator_antisymmetry_phase_space_exact():
    gens = heisenberg_generators(n_modes=2)
    for a in gens:
        for b in gens:
            assert commutator(a, b).c == -commutator(b, a).c


def test_jacobi_identity():
    rng = np.random.default_rng(1)
    gens = []
    for i in range(3):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gens.append(Generator.from_matrix(f"g{i}", m + m.conj().T))
    a, b, c = gens

    def brk(x, y):
        return x @ y - y @ x

    total = (brk(a.matrix, brk(b.matrix, c.matrix))
             + brk(b.matrix, brk(c.matrix, a.matrix))
             + brk(c.matrix, brk(a.matrix, b.matrix)))
    scale = max(np.abs(g.matrix).max() for g in gens) ** 3
    assert np.abs(total).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# displacement composition


def test_compose_example_value():
    # frozen from the truncated-operator oracle below
    d1 = DisplacementVector(np.array([1.0]), np.array([0.0]))
    d2 = DisplacementVector(np.array([0.0]), np.array([1.0]))
    out = compose_displacements(d1, d2)
    assert np.allclose(out.a, [1.0])
    assert np.allclose(out.b, [1.0])
    assert out.phase == pytest.approx(0.5, abs=1e-15)


def test_compose_matches_truncated_operator_product():
    # independent oracle: composition in application order must reproduce
    # the operator product exp(i D2) exp(i D1) on a high truncation
    from scipy.linalg import expm

    q, p = truncated_qp(140)
    rng = np.random.default_rng(2)
    for _ in range(3):
        a1, b1, a2, b2 = rng.uniform(-1, 1, size=4)
        d = compose_displacements(
            DisplacementVector(np.array([a1]), np.array([b1])),
            DisplacementVector(np.array([a2]), np.array([b2])))
        lhs = expm(1j * (a2 * q + b2 * p)) @ expm(1j * (a1 * q + b1 * p))
        rhs = expm(1j * (d.a[0] * q + d.b[0] * p)) * np.exp(1j * d.phase)
        assert np.abs((lhs - rhs)[:40, :40]).max() < 1e-10


def test_compose_identity_element():
    d = DisplacementVector(np.array([0.3]), np.array([-0.4]), phase=0.2)
    zero = DisplacementVector(np.array([0.0]), np.array([0.0]))
    out = compose_displacements(d, zero)
    assert out.allclose(d, include_phase=True)


def test_compose_inverse_cancels():
    d = DisplacementVector(np.array([1.2, -0.3]), np.array([0.5, 0.9]), phase=1.1)
    out = compose_displacements(d, d.inverse())
    assert np.allclose(out.a, 0) and np.allclose(out.b, 0)
    assert out.phase == pytest.approx(0.0, abs=1e-15)


def displacements(n_modes, count):
    one = st.tuples(st.lists(finite, min_size=n_modes, max_size=n_modes),
                    st.lists(finite, min_size=n_modes, max_size=n_modes), finite)
    return st.lists(one.map(lambda abp: DisplacementVector(*abp)),
                    min_size=count, max_size=count)


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(lambda n: displacements(n, 3)))
def test_compose_associative(ds):
    left = compose_displacements(compose_displacements(ds[0], ds[1]), ds[2])
    right = compose_displacements(ds[0], compose_displacements(ds[1], ds[2]))
    assert left.allclose(right, tol=1e-12, include_phase=True)


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(lambda n: displacements(n, 2)))
def test_compose_phase_cocycle(ds):
    # the phase picked up beyond the sum is (hbar / 2) times the symplectic
    # form, so the group commutator d1 d2 (d2 d1)^-1 is the central phase
    # hbar (a1 . b2 - b1 . a2)
    d1, d2 = ds
    form = float(d1.a @ d2.b - d1.b @ d2.a)
    excess = compose_displacements(d1, d2).phase - d1.phase - d2.phase
    assert excess == pytest.approx(0.5 * HBAR * form, abs=1e-12)
    loop = compose_displacements(compose_displacements(d1, d2),
                                 compose_displacements(d2, d1).inverse())
    assert loop.is_pure_phase(tol=1e-12)
    assert loop.phase == pytest.approx(HBAR * form, abs=1e-12)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_displacements(
            DisplacementVector(np.array([1.0]), np.array([0.0])),
            DisplacementVector(np.array([1.0, 0.0]), np.array([0.0, 0.0])))


# ---------------------------------------------------------------------------
# conjugation by quadratic flows


def test_conjugate_iho_hyperbolic_growth():
    d = DisplacementVector(np.array([1.0]), np.array([0.0]))
    out = conjugate_by_quadratic_flow(d, inverted_oscillator(1.0), 1.0)
    assert out.a[0] == pytest.approx(np.cosh(1.0), rel=1e-12)
    assert out.b[0] == pytest.approx(np.sinh(1.0), rel=1e-12)


def test_conjugate_zero_time_is_identity():
    d = DisplacementVector(np.array([0.7]), np.array([-0.2]), phase=0.4)
    out = conjugate_by_quadratic_flow(d, inverted_oscillator(2.0), 0.0)
    assert out.allclose(d, tol=1e-14, include_phase=True)


def test_conjugate_harmonic_period():
    d = DisplacementVector(np.array([0.7]), np.array([-0.2]))
    ham = harmonic_oscillator(1.0)
    out = conjugate_by_quadratic_flow(d, ham, 2.0 * np.pi)
    assert out.allclose(d, tol=1e-12)


def test_conjugate_is_group_homomorphism():
    rng = np.random.default_rng(4)
    ham = inverted_oscillator(0.8)
    t = 0.9
    for _ in range(5):
        d1 = DisplacementVector(rng.normal(size=1), rng.normal(size=1),
                                phase=rng.normal())
        d2 = DisplacementVector(rng.normal(size=1), rng.normal(size=1),
                                phase=rng.normal())
        lhs = conjugate_by_quadratic_flow(compose_displacements(d1, d2), ham, t)
        rhs = compose_displacements(conjugate_by_quadratic_flow(d1, ham, t),
                                    conjugate_by_quadratic_flow(d2, ham, t))
        # phase compared modulo the zero-cost identity direction
        assert lhs.allclose(rhs, tol=1e-12)


def test_flow_matrix_is_symplectic():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for ham in (inverted_oscillator(1.3), harmonic_oscillator(0.7)):
        for t in (0.5, 2.0, 5.0):
            s = ham.flow_matrix(t)
            assert np.abs(s.T @ j @ s - j).max() <= 1e-10


def symmetric_forms(n_modes):
    # entries in [-1, 1] keep |S(t)| below ~e^4 for t <= 2, so the absolute
    # bound of the point test above still applies
    size = 2 * n_modes
    entries = st.floats(min_value=-1.0, max_value=1.0)
    return st.lists(entries, min_size=size * size, max_size=size * size).map(
        lambda v: np.add(np.reshape(v, (size, size)),
                         np.reshape(v, (size, size)).T) / 2)


@settings(max_examples=60)
@given(st.integers(1, 2).flatmap(symmetric_forms),
       st.floats(min_value=0.0, max_value=2.0))
def test_random_quadratic_flow_is_symplectic(a, t):
    ham = QuadraticHamiltonian(a)
    s = ham.flow_matrix(t)
    j = symplectic_form(ham.n_modes)
    assert np.abs(s.T @ j @ s - j).max() <= 1e-10


def test_conjugate_requires_quadratic_flow():
    d = DisplacementVector(np.array([1.0]), np.array([0.0]))
    with pytest.raises(TypeError):
        conjugate_by_quadratic_flow(d, object(), 1.0)


# ---------------------------------------------------------------------------
# the costed basis and its coordinate map


@settings(max_examples=60)
@given(st.sampled_from(sorted(COSTED_SETS)), st.data())
def test_span_coordinates_recover_components(name, data):
    # sum_i c_i M_i + lambda I maps back to c: the identity part is dropped
    gens = COSTED_SETS[name]
    c = np.array(data.draw(st.lists(finite, min_size=len(gens), max_size=len(gens))))
    x = np.tensordot(c, gens.matrices(), axes=1) + data.draw(finite) * np.eye(gens.dim)
    got, inside = gens._span_coordinates(x)
    assert inside
    assert np.abs(got - c).max() <= 1e-12 * max(1.0, np.abs(c).max())
    assert np.abs(gens._coordinates(x) - c).max() <= 1e-12 * max(1.0, np.abs(c).max())


@settings(max_examples=40)
@given(st.lists(finite, min_size=6, max_size=6), finite,
       st.floats(min_value=0.01, max_value=2.0), st.sampled_from([-1.0, 1.0]))
def test_span_check_rejects_zz_under_local_paulis(c, lam, mu, sign):
    gens = COSTED_SETS["local_paulis"]
    inside_x = np.tensordot(c, gens.matrices(), axes=1) + lam * np.eye(4)
    zz = np.kron(SZ, SZ)
    _, inside = gens._span_coordinates(np.stack([inside_x, inside_x + sign * mu * zz]))
    assert inside.tolist() == [True, False]


@settings(max_examples=30)
@given(st.sampled_from(sorted(COSTED_SETS)), st.integers(0, 2**32 - 1))
def test_commutator_table_equals_pairwise_loop(name, seed):
    mats = COSTED_SETS[name].matrices()
    d = mats.shape[1]
    rng = np.random.default_rng(seed)
    other = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    for x, y in ((mats, mats), (other, mats)):
        loop = np.array([[a @ b - b @ a for b in y] for a in x])
        assert np.array_equal(_commutator_table(x, y), loop)


@pytest.mark.parametrize("extra", [np.eye(2), SX, (SX + SZ) / np.sqrt(2)],
                         ids=["unmarked_identity", "duplicate", "combination"])
def test_costed_basis_rejects_dependent_generators(extra):
    gens = GeneratorSet(pauli_generators().generators
                        + (Generator.from_matrix("extra", extra),))
    with pytest.raises(ValueError, match="linearly dependent"):
        unitary_response_matrix(0.4 * SZ, gens, 0.5)
