import re

import numpy as np
import pytest

import enttime.hamiltonian as hamiltonian_module

from enttime.entropy import renyi_from_probabilities
from enttime.errors import DimensionError, ModelError, StateError
from enttime.hamiltonian import (
    Factor,
    ProductHamiltonian,
    ProductState,
    _factor_norms,
    _scan_hermitian,
    assemble,
    check_hermitian,
    product_state_vector,
)
from enttime.models import (
    FockField,
    JcmSpec,
    annihilation,
    build_jcm,
    creation,
    identity,
    sigma_minus,
    sigma_plus,
    sigma_z,
)
from enttime.tolerances import HERM_TOL

import oracles


def test_assemble_single_sigma_z_term():
    h = ProductHamiltonian(2, 2, (((sigma_z()), identity(2)),))
    assert np.array_equal(assemble(h), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_assemble_adjoint_paired_ladder_terms():
    # neither term is Hermitian, the sum is
    dim = 4
    h = ProductHamiltonian(
        2, dim, ((sigma_plus(), annihilation(dim)), (sigma_minus(), creation(dim)))
    )
    dense = assemble(h)
    assert np.array_equal(dense, dense.conj().T)


def test_assemble_matches_loop_oracle():
    rng = np.random.default_rng(51)
    for _ in range(30):
        dim_a = int(rng.integers(1, 5))
        dim_b = int(rng.integers(1, 5))
        terms = oracles.random_term_list(rng, dim_a, dim_b, int(rng.integers(1, 4)))
        h = ProductHamiltonian(dim_a, dim_b, tuple(terms))
        ref = np.zeros((dim_a * dim_b,) * 2, dtype=np.complex128)
        exact = ref.copy()
        for a, b in terms:
            ref += oracles.kron_loops(a, b)
            exact += np.kron(a, b)
        # the same products, added in term order from zero, and not symmetrized
        dense = assemble(h)
        assert np.array_equal(dense, exact)
        assert np.max(np.abs(dense - ref)) <= 1e-13


def test_assemble_jcm_matches_direct_build():
    # independent operator-by-operator construction in the full space
    lam, omega, n_max = 1.0, 0.7, 3
    dim = n_max + 1
    a = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    direct = (
        0.5 * omega * np.kron(np.diag([1.0, -1.0]), np.eye(dim))
        + omega * np.kron(np.eye(2), np.diag(np.arange(dim, dtype=float)))
        + lam * np.kron(np.array([[0.0, 0.0], [1.0, 0.0]]), a.conj().T)
        + lam * np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), a)
    )
    h = ProductHamiltonian(
        2,
        dim,
        (
            (sigma_z().scaled(0.5 * omega), identity(dim)),
            (identity(2), omega * np.diag(np.arange(dim, dtype=float)).astype(complex)),
            (lam * sigma_minus().toarray(), creation(dim)),
            (sigma_plus().scaled(lam), annihilation(dim).toarray()),
        ),
    )
    assert np.max(np.abs(assemble(h) - direct)) <= 1e-15


def test_assemble_rejects_non_hermitian_total():
    g = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = ProductHamiltonian(2, 2, ((g, np.eye(2)),))
    with pytest.raises(ModelError, match="residual"):
        assemble(h)


def dense_total(h):
    return sum(oracles.kron_loops(a, b) for a, b in oracles.dense_terms(h))


def sparse_matrix(rng, dim):
    m = oracles.random_matrix(rng, dim)
    m[rng.random((dim, dim)) < 0.6] = 0.0
    return m


def test_factor_norms_match_dense_frobenius_norms():
    rng = np.random.default_rng(54)
    for _ in range(40):
        dim_a = int(rng.integers(1, 5))
        dim_b = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            terms = oracles.random_term_list(rng, dim_a, dim_b, int(rng.integers(1, 3)))
        else:  # sparse factors only: their adjoints hit positions they leave zero
            ga, gb = sparse_matrix(rng, dim_a), sparse_matrix(rng, dim_b)
            terms = [(ga, gb), (ga.conj().T, gb.conj().T)]
        if rng.random() < 0.5:  # a non-Hermitian stray term
            terms.append((sparse_matrix(rng, dim_a), sparse_matrix(rng, dim_b)))
        if rng.random() < 0.3:  # a term with an all-zero factor
            terms.append((np.zeros((dim_a, dim_a)), sparse_matrix(rng, dim_b)))
        h = ProductHamiltonian(dim_a, dim_b, tuple(terms))
        total = dense_total(h)
        defect, norm = _factor_norms(h)
        assert defect == pytest.approx(np.linalg.norm(total - total.conj().T), abs=1e-12)
        assert norm == pytest.approx(np.linalg.norm(total), rel=1e-13, abs=1e-13)
    ladder = ProductHamiltonian(2, 4, ((sigma_plus(), annihilation(4)),))
    assert _factor_norms(ladder) == pytest.approx((np.sqrt(12.0), np.sqrt(6.0)), rel=1e-15)
    zero = ProductHamiltonian(2, 3, ((np.zeros((2, 2)), np.eye(3)),))
    assert _factor_norms(zero) == (0.0, 0.0)
    check_hermitian(zero)


def hermiticity_verdict(check, h):
    try:
        check(h)
    except ModelError as exc:
        return str(exc)
    return None


def test_factor_proof_keeps_the_scan_verdict(monkeypatch):
    spec = JcmSpec(lam=1.0, omega=0.7, n_max=30, field=FockField(3))
    h, _ = build_jcm(spec)
    dense = dense_total(h)
    _, norm = _factor_norms(h)
    factor_bound = HERM_TOL * max(1.0, norm / h.dim)
    scan_tol = HERM_TOL * max(1.0, np.max(np.abs(dense)))
    assert 2 * factor_bound < 0.5 * scan_tol
    # one entry of the annihilation factor of lam sigma_+ (x) a moves by delta;
    # H - H^dag gains delta sigma_+ (x) E_(5,6) minus its adjoint, so
    # ||H - H^dag||_F = sqrt(2) |delta| and max|H - H^dag| = |delta|
    phase = np.exp(0.3j)
    cases = [
        (0.5 * factor_bound / np.sqrt(2), False, None),
        (2.0 * factor_bound / np.sqrt(2), True, None),
        (0.5 * scan_tol, True, None),
        (2.0 * scan_tol, True, r"\(5, 37\)"),
    ]
    scans = []
    real_scan = _scan_hermitian
    monkeypatch.setattr(
        hamiltonian_module, "_scan_hermitian", lambda h: scans.append(h) or real_scan(h)
    )
    for delta, falls_back, message in cases:
        a = h.terms[3][1].toarray()
        a[5, 6] += delta * phase
        broken = ProductHamiltonian(2, h.dim_b, h.terms[:3] + ((h.terms[3][0], a),))
        scans.clear()
        verdict = hermiticity_verdict(check_hermitian, broken)
        assert bool(scans) == falls_back
        assert verdict == hermiticity_verdict(real_scan, broken)
        if message is None:
            assert verdict is None
        else:
            assert re.search(message, verdict)


def test_factors_store_the_exact_nonzeros_of_each_input():
    rng = np.random.default_rng(81)
    # entries that are exactly zero although written differently, and
    # nonzeros with no real part
    specials = np.array([-0.0, 0j, complex(-0.0, -0.0), 2.5j, -1e-300j, 1e-300])
    for _ in range(30):
        dim_a = int(rng.integers(1, 6))
        dim_b = int(rng.integers(1, 6))
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            pair = [sparse_matrix(rng, dim) for dim in (dim_a, dim_b)]
            for m in pair:
                hits = rng.random(m.shape) < 0.3
                m[hits] = rng.choice(specials, size=int(hits.sum()))
            terms.append(tuple(pair))
        h = ProductHamiltonian(dim_a, dim_b, tuple(terms))
        assert h.n_terms == len(terms)
        for factors, given in zip(h.terms, terms):
            for f, m in zip(factors, given):
                assert f.n == m.shape[0]
                assert f.indptr.dtype == np.int64 and f.indices.dtype == np.int32
                rows, cols = np.nonzero(m != 0)
                assert np.array_equal(np.diff(f.indptr), np.count_nonzero(m, axis=1))
                assert np.array_equal(f.indices, cols)
                assert np.array_equal(f.values, m[rows, cols])
                assert np.array_equal(oracles.dense_factor(f), m)
                for array in (f.indptr, f.indices, f.values):
                    assert not array.flags.writeable


def test_product_hamiltonian_validation():
    with pytest.raises(ModelError):
        ProductHamiltonian(2, 2, ())
    with pytest.raises(DimensionError):
        ProductHamiltonian(2, 2, ((np.eye(3), np.eye(2)),))
    with pytest.raises(DimensionError):
        ProductHamiltonian(2, 2, ((np.eye(2), np.eye(3)),))
    with pytest.raises(DimensionError):
        ProductHamiltonian(2, 2, ((np.array([1.0, 2.0]), np.eye(2)),))
    with pytest.raises(StateError, match="contains non-finite entries"):
        ProductHamiltonian(2, 2, ((np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])),))


def test_product_hamiltonian_copies_inputs():
    a = np.eye(2, dtype=np.complex128)
    b = np.eye(2, dtype=np.complex128)
    view = b[:, :]
    view.setflags(write=False)  # read-only, but b can still write to it
    h = ProductHamiltonian(2, 2, ((a, view),))
    a[0, 0] = 99.0
    b[1, 1] = 99.0
    assert np.array_equal(h.terms[0][0].toarray(), np.eye(2))
    assert np.array_equal(h.terms[0][1].toarray(), np.eye(2))
    with pytest.raises(ValueError):
        h.terms[0][0].values[0] = 5.0
    # a Factor is immutable and taken over as it is; its own arrays are copies
    values = np.ones(2, dtype=np.complex128)
    factor = Factor(2, [0, 1, 2], [0, 1], values)
    values[0] = 5.0
    assert factor.values[0] == 1.0
    assert ProductHamiltonian(2, 2, ((factor, factor),)).terms[0][0] is factor


def test_product_state_validation():
    with pytest.raises(StateError):
        ProductState(psi_a=np.array([1.0, 1.0]), psi_b=np.array([1.0, 0.0]))
    with pytest.raises(StateError):
        ProductState(psi_a=np.array([np.nan, 0.0]), psi_b=np.array([1.0, 0.0]))


def test_product_state_vector_layouts():
    # |e> (x) |0> in a 2 x 3 space: single amplitude at index 0
    s = ProductState(psi_a=np.array([1.0, 0.0]), psi_b=np.array([1.0, 0.0, 0.0]))
    vec = product_state_vector(s)
    assert vec[0] == 1.0
    assert np.count_nonzero(vec) == 1

    inv = 1.0 / np.sqrt(2.0)
    s2 = ProductState(psi_a=np.array([inv, inv]), psi_b=np.array([0.0, 1.0]))
    vec2 = product_state_vector(s2)
    assert abs(vec2[1] - inv) <= 1e-15
    assert abs(vec2[3] - inv) <= 1e-15
    assert np.count_nonzero(vec2) == 2


def test_product_state_vector_matches_index_formula():
    rng = np.random.default_rng(52)
    for _ in range(20):
        dim_a = int(rng.integers(1, 6))
        dim_b = int(rng.integers(1, 6))
        psi_a = oracles.random_unit_vector(rng, dim_a)
        psi_b = oracles.random_unit_vector(rng, dim_b)
        vec = product_state_vector(ProductState(psi_a=psi_a, psi_b=psi_b))
        for i in range(dim_a):
            for j in range(dim_b):
                expected = psi_a[i] * psi_b[j]
                assert abs(vec[i * dim_b + j] - expected) <= 1e-14


def test_product_state_vector_takes_every_state_the_reader_accepts():
    # each factor is within NORM_TOL of unit norm, the product is not
    psi = np.array([1.00000000009, 0.0])
    state = ProductState(psi_a=psi, psi_b=psi)
    vec = product_state_vector(state)
    assert np.array_equal(vec, np.kron(state.psi_a, state.psi_b))
    assert vec[0] == 1.00000000009 * 1.00000000009


def test_product_states_have_rank_one_reductions_and_zero_entropy():
    rng = np.random.default_rng(53)
    for _ in range(20):
        dim_a = int(rng.integers(2, 6))
        dim_b = int(rng.integers(2, 6))
        psi_a = oracles.random_unit_vector(rng, dim_a)
        psi_b = oracles.random_unit_vector(rng, dim_b)
        vec = product_state_vector(ProductState(psi_a=psi_a, psi_b=psi_b))
        rho = np.outer(vec, vec.conj())
        for keep, dim in (("A", dim_a), ("B", dim_b)):
            reduced = oracles.partial_trace_loops(rho, dim_a, dim_b, keep)
            eigenvalues = np.linalg.eigvalsh(reduced)
            assert np.sum(eigenvalues > 1e-12) == 1  # rank one
            assert renyi_from_probabilities(eigenvalues, 2) <= 1e-10
