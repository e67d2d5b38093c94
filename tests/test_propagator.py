import tracemalloc

import numpy as np
import pytest

import enttime.hamiltonian as hamiltonian_module
import enttime.propagator as propagator_module
from enttime.entropy import (
    VON_NEUMANN_ALPHA,
    entropy_series,
    renyi_from_probabilities,
    von_neumann_from_probabilities,
)
from enttime.errors import DimensionError, ModelError
from enttime.hamiltonian import (
    ProductHamiltonian,
    ProductState,
    assemble,
    check_hermitian,
)
from enttime.models import (
    BoseHubbardBoundarySpec,
    CoherentField,
    FockField,
    JcmSpec,
    annihilation,
    build_bose_hubbard_boundary,
    build_jcm,
    creation,
    sigma_minus,
    sigma_plus,
)
from enttime.propagator import Propagator

import oracles

ALPHAS = (VON_NEUMANN_ALPHA, 2, 3)


def dense_oracle(h):
    total = np.zeros((h.dim, h.dim), dtype=np.complex128)
    for a, b in oracles.dense_terms(h):
        total += oracles.kron_loops(a, b)
    return total


def dense_model(rng, dim_a, dim_b):
    """Random Hermitian product terms with every factor dense, and a random start."""
    terms = oracles.random_term_list(rng, dim_a, dim_b, 3)
    state = ProductState(
        psi_a=oracles.random_unit_vector(rng, dim_a), psi_b=oracles.random_unit_vector(rng, dim_b)
    )
    return ProductHamiltonian(dim_a, dim_b, tuple(terms)), state


def oracle_entropies(h, state, times):
    """Entropies from scipy's expm on the full dense H, per order."""
    dense = dense_oracle(h)
    psi0 = np.kron(state.psi_a, state.psi_b)
    out = {alpha: [] for alpha in ALPHAS}
    for t in times:
        psi = oracles.expm_propagate(dense, psi0, t)
        singular = np.linalg.svd(psi.reshape(h.dim_a, h.dim_b), compute_uv=False)
        probs = singular * singular
        out[VON_NEUMANN_ALPHA].append(von_neumann_from_probabilities(probs))
        for alpha in ALPHAS[1:]:
            out[alpha].append(renyi_from_probabilities(probs, alpha))
    return out


def assert_matches_oracle(h, state, times, tol=1e-12):
    expected = oracle_entropies(h, state, times)
    for series in entropy_series(h, state, ALPHAS, times):
        assert np.max(np.abs(series.values - expected[series.alpha])) <= tol


def sector_mask(rng, dim, n_sectors):
    """Symmetric 0/1 mask of a random partition of range(dim) into sectors."""
    labels = rng.permutation(np.arange(dim) % n_sectors)
    return labels, labels[:, None] == labels[None, :]


def sparse_unit_vector(rng, dim):
    vec = oracles.random_unit_vector(rng, dim)
    vec[rng.random(dim) < 0.4] = 0.0
    if not np.any(vec):
        vec[int(rng.integers(dim))] = 1.0
    return vec / np.linalg.norm(vec)


def test_hidden_direct_sums_split_into_sector_blocks():
    rng = np.random.default_rng(81)
    for _ in range(25):
        dim_a = int(rng.integers(2, 6))
        dim_b = int(rng.integers(2, 6))
        labels_a, mask_a = sector_mask(rng, dim_a, int(rng.integers(1, dim_a + 1)))
        labels_b, mask_b = sector_mask(rng, dim_b, int(rng.integers(1, dim_b + 1)))
        terms = [
            (a * mask_a, b * mask_b)
            for a, b in oracles.random_term_list(rng, dim_a, dim_b, int(rng.integers(1, 4)))
        ]
        h = ProductHamiltonian(dim_a, dim_b, tuple(terms))
        state = ProductState(
            psi_a=sparse_unit_vector(rng, dim_a), psi_b=sparse_unit_vector(rng, dim_b)
        )
        reached_a = set(labels_a[np.flatnonzero(state.psi_a)])
        reached_b = set(labels_b[np.flatnonzero(state.psi_b)])
        expected = sorted(
            int(np.sum(labels_a == sa)) * int(np.sum(labels_b == sb))
            for sa in reached_a
            for sb in reached_b
        )
        assert sorted(Propagator(h, state).block_sizes) == expected
        assert_matches_oracle(h, state, np.linspace(0.0, 2.0, 7))


def test_jcm_fock_excited_is_one_block_of_two():
    h, state = build_jcm(JcmSpec(lam=1.0, n_max=12, field=FockField(3), omega=0.3))
    propagator = Propagator(h, state)
    assert propagator.block_sizes == [2]
    assert list(propagator.blocks[0].indices) == [3, 13 + 4]  # |e,3>, |g,4>
    assert_matches_oracle(h, state, np.linspace(0.0, 3.0, 9))


def test_jcm_coherent_ground_splits_into_doublets():
    spec = JcmSpec(lam=1.0, n_max=30, field=CoherentField(1.5), c_e=0.0, c_g=1.0)
    h, state = build_jcm(spec)
    sizes = Propagator(h, state).block_sizes
    assert max(sizes) <= 2
    assert sum(sizes) >= 30
    assert_matches_oracle(h, state, np.linspace(0.0, 3.0, 9))


def test_bose_hubbard_particle_number_sectors():
    h, _ = build_bose_hubbard_boundary(
        BoseHubbardBoundarySpec(j_rate=1.0, u_rate=0.7, n_per_site_max=2)
    )
    mixed = np.ones(3) / np.sqrt(3.0)
    state = ProductState(psi_a=mixed, psi_b=mixed)
    # total particle number 0..4 over two sites of capacity 2
    assert sorted(Propagator(h, state).block_sizes) == [1, 1, 2, 2, 3]
    assert_matches_oracle(h, state, np.linspace(0.0, 2.0, 9))

    hb, sb = build_bose_hubbard_boundary(BoseHubbardBoundarySpec(j_rate=1.0))
    assert Propagator(hb, sb).block_sizes == [3]  # |0,2>, |1,1>, |2,0>


def test_random_dense_terms_are_one_block():
    rng = np.random.default_rng(82)
    for _ in range(10):
        dim_a = int(rng.integers(2, 5))
        dim_b = int(rng.integers(2, 5))
        terms = oracles.random_term_list(rng, dim_a, dim_b, int(rng.integers(1, 4)))
        h = ProductHamiltonian(dim_a, dim_b, tuple(terms))
        state = ProductState(
            psi_a=oracles.random_unit_vector(rng, dim_a),
            psi_b=oracles.random_unit_vector(rng, dim_b),
        )
        assert Propagator(h, state).block_sizes == [dim_a * dim_b]
        assert_matches_oracle(h, state, np.linspace(0.0, 1.5, 5))


def test_ladder_pair_keeps_asymmetric_patterns_apart():
    # Symmetrizing sigma_+ and a separately would chain every |e,n>, |g,n>
    # into one block; the kron pattern of each term only pairs |e,n> with
    # |g,n+1>.
    dim = 6
    h = ProductHamiltonian(
        2, dim, ((sigma_plus(), annihilation(dim)), (sigma_minus(), creation(dim)))
    )
    field = np.zeros(dim)
    field[[1, 4]] = [0.6, 0.8]
    state = ProductState(psi_a=np.array([1.0, 0.0]), psi_b=field)
    propagator = Propagator(h, state)
    assert [list(b.indices) for b in propagator.blocks] == [[1, dim + 2], [4, dim + 5]]
    assert_matches_oracle(h, state, np.linspace(0.0, 2.5, 9))


def test_hermiticity_defect_outside_the_reached_block_is_caught():
    dim = 8
    h, state = build_jcm(JcmSpec(lam=1.0, n_max=dim - 1, field=FockField(3)))
    stray = np.zeros((dim, dim))
    stray[5, 6] = 0.5  # |g,6> -> |g,5> with no adjoint partner
    ground = np.diag([0.0, 1.0])
    bad = ProductHamiltonian(2, dim, h.terms + ((ground, stray),))
    assert Propagator(h, state).block_sizes == [2]
    # a dense model, whose one block is the whole space, takes the same check
    dense, dense_state = dense_model(np.random.default_rng(86), 4, 4)
    dense_bad = ProductHamiltonian(4, 4, dense.terms + ((np.eye(4), stray[4:, 4:]),))
    assert Propagator(dense, dense_state).block_sizes == [16]
    cases = ((bad, state, r"\(13, 14\)"), (dense_bad, dense_state, "not Hermitian"))
    for broken, start, where in cases:
        with pytest.raises(ModelError, match=where) as from_blocks:
            Propagator(broken, start)
        with pytest.raises(ModelError) as from_dense:
            assemble(broken)
        assert str(from_blocks.value) == str(from_dense.value)


def test_dense_models_take_the_factor_proof(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the entrywise scan ran")

    h, state = dense_model(np.random.default_rng(87), 8, 8)
    monkeypatch.setattr(hamiltonian_module, "_scan_hermitian", no_scan)
    assert Propagator(h, state).block_sizes == [64]
    assert np.array_equal(assemble(h), sum(np.kron(a, b) for a, b in oracles.dense_terms(h)))


def test_norm_is_kept_relative_to_the_start():
    # each factor is within NORM_TOL of unit norm, so the start is not
    edge = 1.00000000009
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    state = ProductState(psi_a=np.array([edge, 0.0]), psi_b=np.array([edge, 0.0]))
    propagator = Propagator(ProductHamiltonian(2, 2, ((sigma_x, sigma_x),)), state)
    assert propagator.norm == edge * edge
    probs = propagator.probabilities(np.linspace(0.0, 3.0, 7))
    assert np.max(np.abs(probs.sum(axis=1) - edge**4)) <= 1e-14


def test_slab_check_matches_dense_on_every_slab_split(monkeypatch):
    rng = np.random.default_rng(83)
    monkeypatch.setattr(hamiltonian_module, "_SLAB_ENTRIES", 1)
    for _ in range(20):
        dim_a = int(rng.integers(1, 5))
        dim_b = int(rng.integers(1, 5))
        terms = oracles.random_term_list(rng, dim_a, dim_b, int(rng.integers(1, 4)))
        h = ProductHamiltonian(dim_a, dim_b, tuple(terms))
        ref = dense_oracle(h)
        assert np.max(np.abs(assemble(h) - 0.5 * (ref + ref.conj().T))) <= 1e-13
        check_hermitian(h)
        broken = ProductHamiltonian(
            dim_a,
            dim_b,
            tuple(terms) + ((oracles.random_matrix(rng, dim_a), np.diag(rng.random(dim_b))),),
        )
        defect = np.abs(dense_oracle(broken) - dense_oracle(broken).conj().T)
        i, j = np.unravel_index(int(np.argmax(defect)), defect.shape)
        with pytest.raises(ModelError, match=rf"at entry \({i}, {j}\)"):
            check_hermitian(broken)


def test_time_chunks_do_not_change_spectra(monkeypatch):
    spec = JcmSpec(lam=1.0, n_max=30, field=CoherentField(1.5), c_e=0.6, c_g=0.8)
    h, state = build_jcm(spec)
    times = np.linspace(-1.0, 2.0, 23)
    whole = Propagator(h, state).probabilities(times)
    monkeypatch.setattr(propagator_module, "_CHUNK_ENTRIES", 3 * h.dim)
    chunked = Propagator(h, state).probabilities(times)
    assert np.max(np.abs(whole - chunked)) <= 1e-14


def test_start_is_returned_exactly_at_time_zero():
    rng = np.random.default_rng(84)
    terms = oracles.random_term_list(rng, 3, 4, 2)
    h = ProductHamiltonian(3, 4, tuple(terms))
    state = ProductState(
        psi_a=oracles.random_unit_vector(rng, 3), psi_b=oracles.random_unit_vector(rng, 4)
    )
    (probs,) = Propagator(h, state).probabilities([0.0])
    assert probs[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(probs[1:]) <= 1e-30


def test_dimension_cap_applies_before_any_allocation():
    h = ProductHamiltonian(65, 64, ((np.eye(65), np.eye(64)),))
    state = ProductState(psi_a=np.eye(65)[0], psi_b=np.eye(64)[0])
    with pytest.raises(DimensionError, match="4160"):
        Propagator(h, state)
    with pytest.raises(DimensionError, match="4160"):
        assemble(h)
    # the factor proof needs no d x d array (276 MB here), so no cap applies
    tracemalloc.start()
    try:
        check_hermitian(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # a defect the proof cannot clear falls back to the capped scan
    stray = np.zeros((64, 64))
    stray[0, 1] = 1.0
    with pytest.raises(DimensionError, match="4160"):
        check_hermitian(ProductHamiltonian(65, 64, h.terms + ((np.eye(65), stray),)))


def test_propagator_guards():
    h, state = build_jcm(JcmSpec(lam=1.0, n_max=4, field=FockField(1)))
    other = ProductState(psi_a=np.array([1.0, 0.0]), psi_b=np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        Propagator(h, other)
    with pytest.raises(ValueError, match="finite"):
        Propagator(h, state).probabilities([0.0, np.nan])
