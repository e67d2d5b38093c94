import numpy as np
import pytest

from enttime.entropy import renyi_from_probabilities
from enttime.errors import DimensionError, ModelError, StateError
from enttime.hamiltonian import (
    ProductHamiltonian,
    ProductState,
    assemble,
    product_state_vector,
)
from enttime.models import annihilation, creation, identity, sigma_minus, sigma_plus, sigma_z

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
        for a, b in terms:
            ref += oracles.kron_loops(a, b)
        assert np.max(np.abs(assemble(h) - 0.5 * (ref + ref.conj().T))) <= 1e-13


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
            (0.5 * omega * sigma_z(), identity(dim)),
            (identity(2), omega * np.diag(np.arange(dim, dtype=float)).astype(complex)),
            (lam * sigma_minus(), creation(dim)),
            (lam * sigma_plus(), annihilation(dim)),
        ),
    )
    assert np.max(np.abs(assemble(h) - direct)) <= 1e-15


def test_assemble_rejects_non_hermitian_total():
    g = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = ProductHamiltonian(2, 2, ((g, np.eye(2)),))
    with pytest.raises(ModelError, match="residual"):
        assemble(h)


def test_product_hamiltonian_validation():
    with pytest.raises(ModelError):
        ProductHamiltonian(2, 2, ())
    with pytest.raises(DimensionError):
        ProductHamiltonian(2, 2, ((np.eye(3), np.eye(2)),))
    with pytest.raises(DimensionError):
        ProductHamiltonian(2, 2, ((np.eye(2), np.eye(3)),))


def test_product_hamiltonian_copies_inputs():
    a = np.eye(2, dtype=np.complex128)
    b = np.eye(2, dtype=np.complex128)
    h = ProductHamiltonian(2, 2, ((a, b),))
    a[0, 0] = 99.0
    assert h.terms[0][0][0, 0] == 1.0
    with pytest.raises(ValueError):
        h.terms[0][0][0, 0] = 5.0


def test_product_state_validation():
    with pytest.raises(StateError):
        ProductState(psi_a=np.array([1.0, 1.0]), psi_b=np.array([1.0, 0.0]))
    with pytest.raises(StateError):
        ProductState(psi_a=np.array([np.nan, 0.0]), psi_b=np.array([1.0, 0.0]))


def test_product_state_vector_layouts():
    # |e> (x) |0> in a 2 x 3 space: single amplitude at index 0
    s = ProductState(psi_a=np.array([1.0, 0.0]), psi_b=np.array([1.0, 0.0, 0.0]))
    vec = product_state_vector(s)
    assert vec.amplitudes[0] == 1.0
    assert np.count_nonzero(vec.amplitudes) == 1

    inv = 1.0 / np.sqrt(2.0)
    s2 = ProductState(psi_a=np.array([inv, inv]), psi_b=np.array([0.0, 1.0]))
    vec2 = product_state_vector(s2)
    assert abs(vec2.amplitudes[1] - inv) <= 1e-15
    assert abs(vec2.amplitudes[3] - inv) <= 1e-15
    assert np.count_nonzero(vec2.amplitudes) == 2


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
                assert abs(vec.amplitudes[i * dim_b + j] - expected) <= 1e-14


def test_product_states_have_rank_one_reductions_and_zero_entropy():
    rng = np.random.default_rng(53)
    for _ in range(20):
        dim_a = int(rng.integers(2, 6))
        dim_b = int(rng.integers(2, 6))
        psi_a = oracles.random_unit_vector(rng, dim_a)
        psi_b = oracles.random_unit_vector(rng, dim_b)
        vec = product_state_vector(ProductState(psi_a=psi_a, psi_b=psi_b))
        rho = np.outer(vec.amplitudes, vec.amplitudes.conj())
        for keep, dim in (("A", dim_a), ("B", dim_b)):
            reduced = oracles.partial_trace_loops(rho, dim_a, dim_b, keep)
            eigenvalues = np.linalg.eigvalsh(reduced)
            assert np.sum(eigenvalues > 1e-12) == 1  # rank one
            assert renyi_from_probabilities(eigenvalues, 2) <= 1e-10
