import tracemalloc
import warnings

import numpy as np
import pytest

import enttime.hamiltonian as hamiltonian_module
import enttime.linalg as linalg_module
import enttime.propagator as propagator_module
from enttime.entropy import (
    VON_NEUMANN_ALPHA,
    entropy_series,
    renyi_from_probabilities,
    von_neumann_from_probabilities,
)
from enttime.errors import DimensionError, ModelError, NumericalError
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
import enttime.timescale as timescale_module
from enttime.linalg import chebyshev_terms, hermitian_part
from enttime.propagator import Propagator
from enttime.tolerances import LANCZOS_STEPS, NORM_TOL

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
    _, series = entropy_series(h, state, ALPHAS, times)
    for alpha, values in zip(ALPHAS, series):
        assert np.max(np.abs(values - expected[alpha])) <= tol


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


def test_spread_is_the_range_of_the_reached_levels():
    h, state = build_jcm(JcmSpec(lam=1.0, n_max=12, field=FockField(3)))
    assert Propagator(h, state).spread == pytest.approx(4.0, abs=1e-12)  # levels +-2
    h, state = partial_block_model(np.random.default_rng(163))
    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    members = np.ix_(block.indices, block.indices)
    w = np.linalg.eigvalsh(hermitian_part(dense_oracle(h)[members]))
    assert abs(propagator.spread - (w[-1] - w[0])) <= 2.0 * block.margin


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
    # two doublets of one size: one group, one (2, 2) stack of indices
    assert [b.indices.tolist() for b in propagator.blocks] == [[[1, dim + 2], [4, dim + 5]]]
    assert_matches_oracle(h, state, np.linspace(0.0, 2.5, 9))


def test_equal_size_blocks_share_one_stacked_eigh(monkeypatch):
    """Blocks of at most LANCZOS_STEPS states go through one eig_hermitian call per
    size at construction, each with exactly the spectrum it gets alone, and no later
    grid calls a solver for them. A larger block takes one unstacked call on the first
    grid that needs its eigenbasis, and its Lanczos extremes hold its eigenvalues
    within its margin. A forced residual in one stacked block is refused at once."""
    cases = [
        build_jcm(JcmSpec(lam=1.0, n_max=40, field=CoherentField(3.0), c_e=0.0, c_g=1.0)),
        (build_bose_hubbard_boundary(
            BoseHubbardBoundarySpec(j_rate=1.0, u_rate=0.7, n_per_site_max=2))[0],
         ProductState(psi_a=np.ones(3) / np.sqrt(3.0), psi_b=np.ones(3) / np.sqrt(3.0))),
        dense_model(np.random.default_rng(88), 4, 4),
        dense_model(np.random.default_rng(89), 9, 10),
    ]
    calls = []
    solve = propagator_module.eig_hermitian
    monkeypatch.setattr(propagator_module, "eig_hermitian",
                        lambda m: calls.append(np.shape(m)) or solve(m))
    times = np.linspace(0.0, 0.1, 5)
    larges = 0
    for h, state in cases:
        calls.clear()
        propagator = Propagator(h, state)
        sizes = [n for n in propagator.block_sizes if n <= LANCZOS_STEPS]
        assert sorted(calls) == sorted(
            (sizes.count(n), n, n) if sizes.count(n) > 1 else (n, n) for n in set(sizes))
        calls.clear()
        # series, eigenbasis, and the series again on a grid long enough that it costs
        # less than propagating in the formed eigenbasis
        for grid in (times, 1e3 * times, np.linspace(0.0, 0.1, 2001)):
            propagator.probabilities(grid)
        large = [n for n in propagator.block_sizes if n > LANCZOS_STEPS]
        larges += len(large)
        assert calls == [(n, n) for n in large]
        assert len(propagator.blocks) == len(set(sizes)) + len(large)  # one per small size
        for block in propagator.blocks:
            n = block.indices.shape[-1]
            w, v = block.spectrum.eigenvalues, block.spectrum.eigenvectors
            for indices, w_k, v_k in zip(block.indices.reshape(-1, n), w.reshape(-1, n),
                                         v.reshape(-1, n, n)):
                matrix = hamiltonian_module.block_matrix(h, indices, indices)
                alone = solve(0.5 * (matrix + matrix.conj().T))
                assert np.array_equal(w_k, alone.eigenvalues)
                assert np.array_equal(v_k, alone.eigenvectors)
            if n <= LANCZOS_STEPS:
                assert block.operator is None
                assert block.extremes == (w[..., 0].min(), w[..., -1].max())
            else:
                assert block.terms is not None
                assert np.max(np.abs(np.subtract(block.extremes, w[[0, -1]]))) <= block.margin
    assert larges == 1

    h, state = cases[0]
    eigh = np.linalg.eigh

    def one_bad_doublet(a):
        w, v = eigh(a)
        if w.ndim == 2:
            w = w.copy()
            w[w.shape[0] // 2, 0] += 1e-6
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", one_bad_doublet)
    with pytest.raises(NumericalError, match="residual"):
        Propagator(h, state)


def test_each_block_size_propagates_as_one_stack(monkeypatch):
    """The coherent ground start reaches one 1-state block and 40 doublets: each size
    is one stack, propagated by one batched product and scattered once per time
    chunk, and the probabilities match expm on the dense H."""
    h, state = build_jcm(JcmSpec(lam=1.0, n_max=40, field=CoherentField(3.0), c_e=0.0, c_g=1.0))
    propagator = Propagator(h, state)
    assert sorted(propagator.block_sizes) == [1] + [2] * 40
    assert sorted(block.indices.shape for block in propagator.blocks) == [(1,), (40, 2)]
    r, c = propagator.support
    monkeypatch.setattr(propagator_module, "_CHUNK_ENTRIES", 4 * r * c)  # 4 times a chunk
    calls = []
    solve = propagator_module.propagate
    monkeypatch.setattr(propagator_module, "propagate",
                        lambda spectrum, psi0, *rest: calls.append(psi0.shape)
                        or solve(spectrum, psi0, *rest))
    times = np.linspace(0.0, 3.0, 10)
    probs = propagator.probabilities(times)
    assert sorted(calls) == sorted([(40, 2), (1,)] * 3)  # 3 chunks of at most 4 times
    dense = dense_oracle(h)
    psi0 = np.kron(state.psi_a, state.psi_b)
    expected = [oracles.schmidt_probabilities_svd(oracles.expm_propagate(dense, psi0, t), 2, 41)
                for t in times]
    assert np.max(np.abs(probs - np.array(expected))) <= 1e-13


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


def oracle_probabilities(h, state, times):
    dense = dense_oracle(h)
    psi0 = np.kron(state.psi_a, state.psi_b)
    out = []
    for t in times:
        psi = oracles.expm_propagate(dense, psi0, t)
        singular = np.linalg.svd(psi.reshape(h.dim_a, h.dim_b), compute_uv=False)
        out.append(singular * singular)
    return np.array(out)


def largest_series_reach(n):
    """The largest x = R max|t| at which one series of at most n terms serves, by bisection."""
    low, high = 0.0, 2.0 * (n + 2)
    for _ in range(60):
        mid = 0.5 * (low + high)
        fits = chebyshev_terms(mid, n) is not None
        low, high = (mid, high) if fits else (low, mid)
    return low


def largest_series_scale(block, times):
    """The largest s at which the series route serves the grid s * times, by bisection."""
    def fits(scale):
        return propagator_module._series_plan(
            scale * times, block.interval[1], block.indices.size, block.work,
            block.spectrum is not None) is not None

    high = 1.0
    while fits(high):
        high *= 2.0
    low = 0.0
    for _ in range(60):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if fits(mid) else (low, mid)
    return low


@pytest.mark.parametrize("dims", [(9, 10), (12, 12), (16, 16)])
def test_series_and_eigenbasis_routes_match_expm_on_both_sides_of_k_equal_n(dims):
    """Where no step count keeps every step within K <= n terms at less work than the
    eigenbasis, the grid takes the eigenbasis; just inside, the series in steps."""
    rng = np.random.default_rng(103 + dims[0])
    h, state = dense_model(rng, *dims)
    n = dims[0] * dims[1]
    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    unit = np.concatenate([[1.0, -0.3, 0.0, -1.0], rng.uniform(-1.0, 1.0, 5)])
    edge = largest_series_scale(block, unit)
    assert edge * block.interval[1] > largest_series_reach(n)  # past one series of n terms
    for scale, series in ((edge * (1 - 1e-3), True), (edge * (1 + 1e-2), False)):
        times = scale * unit
        probs = propagator.probabilities(times)
        assert (block.terms is not None) == series
        if series:
            assert block.steps > 1 and block.terms <= n
            assert block.vectors.shape[0] >= block.terms + 1
            assert 0.0 < block.growth <= 1.0 + NORM_TOL
        else:
            assert block.spectrum is not None
        assert np.max(np.abs(probs - oracle_probabilities(h, state, times))) <= 1e-12


def test_the_series_reach_of_each_block_size_stays_put():
    """The largest x that one series of at most n terms serves, the most a step of a block
    of n states may span, pinned to the last bit, so that no change to the sizing goes
    unnoticed."""
    pins = {81: 36.870379069521505, 90: 43.46951704554473, 144: 85.89457500693963,
            256: 181.5114121113591, 1024: 896.299252426517}
    assert {n: largest_series_reach(n) for n in pins} == pins


def test_series_rows_are_kept_and_extended_across_grids():
    h, state = dense_model(np.random.default_rng(107), 9, 10)
    propagator = Propagator(h, state)
    times = np.linspace(-0.5, 1.0, 7) * 8.0 / propagator.blocks[0].interval[1]  # x <= 8
    fresh = Propagator(h, state).probabilities(times)
    propagator.probabilities(0.1 * times)
    short = propagator.blocks[0].vectors.shape[0]
    assert np.array_equal(propagator.probabilities(times), fresh)
    assert propagator.blocks[0].vectors.shape[0] > short
    assert propagator.blocks[0].spectrum is None  # no eigenvectors were needed


def test_start_bytes_at_time_zero_on_the_series_route():
    h, state = dense_model(np.random.default_rng(109), 9, 10)
    propagator = Propagator(h, state)
    propagator.probabilities([0.0, -0.0])
    (block,) = propagator.blocks
    assert block.terms == 0
    for row in block.amplitudes([0.0, -0.0]):
        assert row.tobytes() == block.psi0.tobytes()


def stepped_grid(block, x, count, seed):
    """``count`` unsorted times over [-1, 1] x / R, with 0 and -0 among them."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.0, -0.0], rng.uniform(-1.0, 1.0, count - 2)]) * x / block.interval[1]


def test_stepped_series_matches_expm_at_negative_and_unsorted_times():
    """Past one series of n terms, the whole space takes the series in steps, each from the
    state the step before it carried there, out from psi0 on each side of zero."""
    h, state = product_form_model(np.random.default_rng(149), 12, 10)
    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    assert chebyshev_terms(150.0, block.indices.size) is None
    times = stepped_grid(block, 150.0, 60, 211)
    probs = propagator.probabilities(times)
    assert block.steps > 1 and block.terms is not None and block.spectrum is None
    assert np.max(np.abs(probs - oracle_probabilities(h, state, times))) <= 1e-12
    dense, psi0 = dense_oracle(h), np.kron(state.psi_a, state.psi_b)
    expected = np.array([oracles.expm_propagate(dense, psi0, t) for t in times])
    amplitudes = block.amplitudes(times)
    assert np.max(np.abs(amplitudes - expected)) <= 1e-12
    for row in amplitudes[:2]:  # t = 0 and -0 return the start's bytes
        assert row.tobytes() == block.psi0.tobytes()


def test_each_step_is_formed_once_on_a_grid_of_both_signs(monkeypatch):
    """Chunks go negative times first, each sign outward from zero, and a chunk takes its
    backward steps first, so a grid of several chunks over both signs forms the rows of
    each step past the first once, though only the latest step's rows are kept."""
    h, state = product_form_model(np.random.default_rng(149), 12, 10)
    vectors = propagator_module.chebyshev_vectors
    calls = []
    monkeypatch.setattr(propagator_module, "chebyshev_vectors",
                        lambda *args: calls.append(args[3].shape[0]) or vectors(*args))
    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    times = stepped_grid(block, 150.0, 3000, 233)
    assert 3000 > propagator_module._CHUNK_ENTRIES // 120  # more than one chunk
    propagator.probabilities(times)
    steps = propagator_module._step_index(np.abs(times), block.span)
    carried = {(sign, j) for sign, j in zip(np.signbit(times).tolist(), steps.tolist()) if j}
    assert len(carried) > 2 and calls[1:] == [1] * len(carried)  # after psi0's rows
    assert block.latest[0] == 1.0


def test_a_shrunk_series_interval_is_refused_on_a_later_step(monkeypatch):
    """The growth check holds on every step: rows from a carried state, on an interval
    shrunk below the spectrum, raise though the first step's rows passed."""
    h, state = product_form_model(np.random.default_rng(149), 12, 10)
    vectors = propagator_module.chebyshev_vectors
    psi0 = np.kron(state.psi_a, state.psi_b)

    def shrunk_after_the_first(m, center, radius, start, count):
        if not np.array_equal(start[0], psi0):
            radius *= 0.9
        return vectors(m, center, radius, start, count)

    monkeypatch.setattr(propagator_module, "chebyshev_vectors", shrunk_after_the_first)
    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    with pytest.raises(NumericalError, match="leaves"):
        propagator.probabilities(stepped_grid(block, 150.0, 60, 223))
    assert block.steps > 1


def test_tiny_times_in_a_chunk_of_their_own_take_one_term():
    """3000 times of 1e-200 fill a chunk of their own: each gets one series term, not an
    error, and the start's spectrum."""
    h, state = dense_model(np.random.default_rng(227), 9, 10)
    times = np.r_[0.3, np.full(3000, 1e-200)]
    probs = Propagator(h, state).probabilities(times)
    assert np.max(np.abs(probs[:1] - oracle_probabilities(h, state, times[:1]))) <= 1e-12
    assert np.max(np.abs(probs[1:] - oracle_probabilities(h, state, [0.0]))) <= 1e-15
    # the smallest subnormal time: one step, whose half would round to zero
    probs = Propagator(h, state).probabilities([5e-324, 0.0])
    assert np.max(np.abs(probs - oracle_probabilities(h, state, [0.0, 0.0]))) <= 1e-15


def test_entries_whose_squares_overflow_keep_the_series_interval():
    """Every A_n times 2^531 (entries near 1e161) at times over 2^531 is the same dynamics:
    the Lanczos interval scales with H, and the series gives the unscaled probabilities,
    with no overflow warning."""
    rng = np.random.default_rng(3)
    h, state = dense_model(rng, 9, 10)
    big = ProductHamiltonian(9, 10, tuple((a.toarray() * 2.0**531, b) for a, b in h.terms))
    base = Propagator(h, state)
    times = np.linspace(-0.5, 1.0, 7) * 8.0 / base.blocks[0].interval[1]
    expected = base.probabilities(times)
    propagator = Propagator(big, state)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        probs = propagator.probabilities(np.ldexp(times, -531))
    (block,) = propagator.blocks
    assert block.terms is not None  # the series, not the eigenbasis
    assert np.allclose(block.interval, np.ldexp(base.blocks[0].interval, 531), rtol=1e-12,
                       atol=0.0)
    assert np.max(np.abs(probs - expected)) <= 1e-14


def test_huge_times_go_to_the_eigenbasis_without_a_series(monkeypatch):
    def no_series(*args):
        raise AssertionError("Chebyshev vectors were formed")

    monkeypatch.setattr(propagator_module, "chebyshev_vectors", no_series)
    h, state = dense_model(np.random.default_rng(113), 4, 4)
    propagator = Propagator(h, state)
    probs = propagator.probabilities([0.0, 1e300, -1e300])
    assert propagator.blocks[0].terms is None and propagator.blocks[0].vectors is None
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12


def test_formed_eigenvectors_serve_a_later_short_grid(monkeypatch):
    """Once a grid has formed a block's eigenvectors, the route rule counts only the T n^2
    of propagating in them: a short grid that a fresh block takes by the series stays
    in the eigenbasis."""
    h, state = dense_model(np.random.default_rng(229), 9, 10)
    times = np.linspace(0.0, 0.1, 5)
    fresh = Propagator(h, state)
    fresh.probabilities(times)
    assert fresh.blocks[0].terms is not None
    propagator = Propagator(h, state)
    propagator.probabilities(1e3 * times)
    assert propagator.blocks[0].terms is None

    def no_series(*args):
        raise AssertionError("Chebyshev vectors were formed")

    monkeypatch.setattr(propagator_module, "chebyshev_vectors", no_series)
    probs = propagator.probabilities(times)
    assert propagator.blocks[0].terms is None
    assert np.max(np.abs(probs - oracle_probabilities(h, state, times))) <= 1e-12


def test_a_shrunk_series_interval_is_refused(monkeypatch):
    h, state = dense_model(np.random.default_rng(127), 9, 10)
    vectors = propagator_module.chebyshev_vectors
    monkeypatch.setattr(propagator_module, "chebyshev_vectors",
                        lambda m, center, radius, *rest: vectors(m, center, 0.9 * radius, *rest))
    propagator = Propagator(h, state)
    reach = 8.0 / propagator.blocks[0].interval[1]  # 35 terms for 90 states: the series
    with pytest.raises(NumericalError, match="leaves"):
        propagator.probabilities(np.linspace(0.0, reach, 5))


def test_block_spectra_keep_a_forced_residual(monkeypatch):
    """A residual forced below the tolerance passes and shows on the block's spectrum."""
    h, state = build_jcm(JcmSpec(lam=1.0, n_max=12, field=FockField(3)))
    delta = 1e-12
    eigh = np.linalg.eigh

    def moved(w):
        w = w.copy()
        w[..., 0] += delta
        return w

    monkeypatch.setattr(np.linalg, "eigh", lambda a: (moved(eigh(a)[0]), eigh(a)[1]))
    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    assert block.spectrum.residual == pytest.approx(delta, rel=1e-3)
    assert block.spectrum.residual <= block.spectrum.tolerance
    propagator.probabilities(np.linspace(0.0, 3.0, 7))
    assert block.terms is None


def partial_block_model(rng, n=12, kept=10):
    """Dense terms within two sectors per side, of kept and n - kept states, and a start
    inside the first ones: it reaches one block of kept^2 states, not the whole space."""
    second = np.arange(n) >= kept
    mask = second[:, None] == second[None, :]
    terms = tuple((a * mask, b * mask) for a, b in oracles.random_term_list(rng, n, n, 3))
    psi_a, psi_b = (np.where(second, 0.0, oracles.random_unit_vector(rng, n)) for _ in "ab")
    state = ProductState(psi_a=psi_a / np.linalg.norm(psi_a), psi_b=psi_b / np.linalg.norm(psi_b))
    return ProductHamiltonian(n, n, terms), state


def test_a_large_partial_block_takes_its_interval_from_lanczos(monkeypatch):
    """100 of 144 states: no eigvalsh, an interval from Lanczos on S, and expm's spectra
    on the series route and on the eigenbasis route."""
    h, state = partial_block_model(np.random.default_rng(163))

    def forbidden(*args, **kwargs):
        raise AssertionError("eigvalsh was called")

    starts = []
    lanczos = propagator_module.lanczos_interval
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(propagator_module, "lanczos_interval",
                        lambda operator, start:
                        starts.append(start.size) or lanczos(operator, start))
    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    assert block.indices.size == 100 < h.dim and starts == [100]
    assert not callable(block.operator)  # S of the block, not the whole space's product form
    for reach, series in ((20.0, True), (200.0, False)):
        times = reach / block.interval[1] * np.concatenate([[1.0, 0.0, -0.4], np.linspace(-1, 1, 4)])
        probs = propagator.probabilities(times)
        assert (block.terms is not None) == series
        assert np.max(np.abs(probs - oracle_probabilities(h, state, times))) <= 1e-12


def product_form_model(rng, dim_a, dim_b):
    """A dense model with one (g, g^dag) pair of terms: the product form is the cheaper one."""
    ga, gb = oracles.random_matrix(rng, dim_a), oracles.random_matrix(rng, dim_b)
    state = ProductState(
        psi_a=oracles.random_unit_vector(rng, dim_a), psi_b=oracles.random_unit_vector(rng, dim_b)
    )
    return ProductHamiltonian(dim_a, dim_b, ((ga, gb), (ga.conj().T, gb.conj().T))), state


def test_the_whole_space_takes_the_series_from_the_factors_alone(monkeypatch):
    """No dense S, no eigendecomposition, and nothing the covariance sum uses."""
    h, state = product_form_model(np.random.default_rng(149), 12, 10)

    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    for module, name in [(propagator_module, "eig_hermitian"),
                         (propagator_module, "block_matrix"),
                         (hamiltonian_module, "block_matrix"),
                         (hamiltonian_module.Factor, "matvec"),
                         (hamiltonian_module.Factor, "vecmat")]:
        monkeypatch.setattr(module, name, forbidden)
    for name, value in vars(timescale_module).items():
        if callable(value) and getattr(value, "__module__", None) == timescale_module.__name__:
            monkeypatch.setattr(timescale_module, name, forbidden)
    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    times = np.linspace(-0.5, 1.0, 9) * 60.0 / block.interval[1]
    probs = propagator.probabilities(times)
    assert block.terms is not None and callable(block.operator)
    assert np.max(np.abs(probs - oracle_probabilities(h, state, times))) <= 1e-12


def test_a_swap_symmetric_start_takes_the_whole_spectrum():
    """psi_a = psi_b under a swap-symmetric H populates only the symmetric levels. The
    antisymmetric one at the bottom of the spectrum is seeded by roundoff alone, and
    the interval, from a random start, covers it: no growth, and expm's spectra."""
    rng = np.random.default_rng(151)
    n = 10
    x, y, z = (oracles.random_hermitian(rng, n) for _ in range(3))
    one, units = np.eye(n), np.eye(n * n).reshape(n * n, n, n)
    swap_terms = tuple((5.0 * units[i * n + j], units[j * n + i])
                       for i in range(n) for j in range(n))  # 5 SWAP: antisymmetric levels low
    h = ProductHamiltonian(n, n, ((x, y), (y, x), (z, one), (one, z)) + swap_terms)
    phi = oracles.random_unit_vector(rng, n)
    state = ProductState(psi_a=phi, psi_b=phi)
    sym = hermitian_part(dense_oracle(h))
    w, v = np.linalg.eigh(sym)
    swap = np.arange(n * n).reshape(n, n).T.reshape(-1)
    parity = np.einsum("ik,ik->k", v[swap].conj(), v).real
    assert parity[0] < -0.5  # the lowest level is antisymmetric
    weights = np.abs(v.conj().T @ np.kron(phi, phi)) ** 2
    assert np.max(weights[parity < 0.0]) <= 1e-24  # and psi0 holds none of it

    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    times = np.linspace(0.0, 0.9, 7) * 40.0 / block.interval[1]
    probs = propagator.probabilities(times)
    assert block.terms is not None and block.growth <= 1.0 + NORM_TOL
    assert np.max(np.abs(probs - oracle_probabilities(h, state, times))) <= 1e-12


def test_a_short_lanczos_interval_is_refused(monkeypatch):
    """Ritz values of 3 steps without their margin miss both edges; the growth check refuses."""
    h, state = product_form_model(np.random.default_rng(157), 12, 12)
    lanczos = propagator_module.lanczos_interval
    monkeypatch.setattr(linalg_module, "LANCZOS_STEPS", 3)
    monkeypatch.setattr(propagator_module, "lanczos_interval",
                        lambda operator, start: (*lanczos(operator, start)[:2], 0.0))
    propagator = Propagator(h, state)
    (block,) = propagator.blocks
    w = np.linalg.eigvalsh(hermitian_part(dense_oracle(h)))
    assert block.extremes[0] > w[0] and block.extremes[1] < w[-1]
    with pytest.raises(NumericalError, match="leaves"):
        propagator.probabilities(np.linspace(0.0, 40.0 / block.interval[1], 5))


def sector_start_model(rng, dim_a, dim_b):
    """Dense terms within 3 sectors of A and 2 of B, and a start on the first two sectors
    of A and the first of B: its blocks touch a strict subset of the rows and columns."""
    labels_a, mask_a = sector_mask(rng, dim_a, 3)
    labels_b, mask_b = sector_mask(rng, dim_b, 2)
    terms = tuple((a * mask_a, b * mask_b)
                  for a, b in oracles.random_term_list(rng, dim_a, dim_b, 3))
    psi_a = np.where(labels_a < 2, oracles.random_unit_vector(rng, dim_a), 0.0)
    psi_b = np.where(labels_b == 0, oracles.random_unit_vector(rng, dim_b), 0.0)
    state = ProductState(psi_a=psi_a / np.linalg.norm(psi_a), psi_b=psi_b / np.linalg.norm(psi_b))
    support = (int(np.sum(labels_a < 2)), int(np.sum(labels_b == 0)))
    return ProductHamiltonian(dim_a, dim_b, terms), state, support


@pytest.mark.parametrize("dims", [(5, 7), (7, 5)])
def test_spectra_over_the_support_match_the_full_svd_and_pad_with_zeros(dims):
    h, state, support = sector_start_model(np.random.default_rng(131 + dims[0]), *dims)
    propagator = Propagator(h, state)
    assert propagator.support == support
    assert support[0] < dims[0] and support[1] < dims[1] and min(support) < min(dims)
    times = np.array([0.0, 0.7, -1.3, 2.0, 0.25, 5.0])
    probs = propagator.probabilities(times)
    assert probs.shape == (times.size, min(dims))
    assert np.all(np.diff(probs, axis=1) <= 0.0)
    assert np.all(probs[:, min(support):] == 0.0)
    assert np.max(np.abs(probs - oracle_probabilities(h, state, times))) <= 1e-13


@pytest.mark.parametrize("model", ["bose_hubbard_u100", "coherent_ground_40"])
def test_model_spectra_over_the_support_match_the_full_svd(model):
    if model == "bose_hubbard_u100":
        h, state = build_bose_hubbard_boundary(
            BoseHubbardBoundarySpec(j_rate=1.0, u_rate=100.0, n_per_site_max=4))
        assert Propagator(h, state).support == (3, 3)  # |0,2>, |1,1>, |2,0> of 5 x 5
    else:
        h, state = build_jcm(
            JcmSpec(lam=1.0, n_max=40, field=CoherentField(3.0), c_e=0.0, c_g=1.0))
    times = np.linspace(-1.0, 3.0, 9)
    probs = Propagator(h, state).probabilities(times)
    assert probs.shape == (times.size, min(h.dim_a, h.dim_b))
    assert np.max(np.abs(probs - oracle_probabilities(h, state, times))) <= 1e-13


def test_a_small_block_of_a_large_space_holds_nothing_of_length_d():
    h, state = build_jcm(JcmSpec(lam=1.0, n_max=2047, field=FockField(3)))
    propagator = Propagator(h, state)
    assert h.dim == 4096 and propagator.support == (2, 2)
    times = np.linspace(0.0, 3.0, 25)
    propagator.probabilities(times[:1])
    tracemalloc.start()
    try:
        probs = propagator.probabilities(times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (25, 2)
    # the amplitudes of 25 times over all 4096 states would take 1.6 MB
    assert peak < 64 * 1024
