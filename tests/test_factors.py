"""Property suite: the CSR factors and every reader of them against dense oracles.

Every reader takes the one route a factor has: entries come only as dense
rows scattered from the CSR slices (``Factor.rows``), and products use BLAS
on a full pattern and ``np.add.at`` on any other.
"""

import tracemalloc

import numpy as np
import pytest

import enttime.hamiltonian as hamiltonian_module
from enttime.cli import resolve_model_document
from enttime.errors import DimensionError, ModelError
from enttime.hamiltonian import (
    Factor,
    ProductHamiltonian,
    ProductState,
    _factor_norms,
    _scan_hermitian,
    block_matrix,
    check_hermitian,
    product_state_vector,
)
from enttime.models import CoherentField, FockField, JcmSpec, build_jcm
from enttime.propagator import invariant_blocks
from enttime.timescale import entanglement_timescale
from enttime.tolerances import HERM_TOL

import oracles

# exact zeros written differently, and nonzeros without a real part
SPECIALS = np.array([-0.0, 0j, complex(-0.0, -0.0), 2.5j, -1e-300j, 1e-300, -3j])

# t_ent_inv_sq off the dense matrices may differ from the CSR route by at most
# this many ulps of the covariance scale (the sums over a factor that is not
# full run in column order; 2.5 is the largest gap seen over 1000 random
# systems)
ULPS_OF_SCALE = 16


@pytest.fixture(params=["default"])
def route(request):
    """The one read route every factor has, named in the test ids."""
    return request.param


def random_factor_matrix(rng, dim):
    """A dense (full-pattern) or a sparse matrix with specials, now and then all zero."""
    m = oracles.random_matrix(rng, dim)
    if rng.random() < 0.5:
        return m
    m[rng.random((dim, dim)) < 0.6] = 0.0
    hits = rng.random((dim, dim)) < 0.2
    m[hits] = rng.choice(SPECIALS, size=int(hits.sum()))
    return m if rng.random() < 0.9 else 0.0 * m


def random_system(rng, *, stray=False):
    """Dense factor pairs, Hermitian in total unless a stray term is added, and a start."""
    dim_a, dim_b = (int(x) for x in rng.integers(1, 6, size=2))
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        ga, gb = random_factor_matrix(rng, dim_a), random_factor_matrix(rng, dim_b)
        terms += [(ga, gb), (ga.conj().T, gb.conj().T)]
    if stray:
        terms.append((random_factor_matrix(rng, dim_a), random_factor_matrix(rng, dim_b)))
    psi_a, psi_b = (oracles.random_unit_vector(rng, d) for d in (dim_a, dim_b))
    for psi in (psi_a, psi_b):
        if psi.size > 1 and rng.random() < 0.3:  # a start with zero amplitudes
            psi[rng.random(psi.size) < 0.5] = 0.0
            psi[0] = psi[0] or 1.0
            psi /= np.linalg.norm(psi)
    return terms, ProductState(psi_a=psi_a, psi_b=psi_b)


def dense_total(terms):
    return sum(np.kron(a, b) for a, b in terms)


def test_factor_reads_match_the_dense_matrix(route):
    rng = np.random.default_rng(91)
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        m = random_factor_matrix(rng, dim)
        (f, _), = ProductHamiltonian(dim, 1, ((m, np.ones((1, 1))),)).terms
        assert f.values.size == np.count_nonzero(m)
        assert np.array_equal(oracles.dense_factor(f), m)
        assert np.array_equal(f.toarray(), m)
        assert np.array_equal(oracles.dense_factor(f.adjoint()), m.conj().T)
        # the unchecked adjoint holds what the checked constructor makes of it
        adj = f.adjoint()
        checked = Factor(adj.n, adj.indptr, adj.indices, adj.values)
        for name in ("indptr", "indices", "values"):
            got, want = getattr(adj, name), getattr(checked, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        rows = rng.integers(dim, size=7)  # in any order, repeats included
        assert np.array_equal(f.rows(rows), m[rows])
        assert f.rows(rows[:0]).shape == (0, dim)
        x = oracles.random_unit_vector(rng, dim)
        assert np.allclose(f.matvec(x), m @ x, rtol=1e-14, atol=1e-15)
        assert np.allclose(f.vecmat(x), x @ m, rtol=1e-14, atol=1e-15)
        assert np.array_equal(f.scaled(0.0).toarray(), np.zeros((dim, dim)))


def test_factor_rejects_malformed_csr():
    for n, indptr, indices in [
        (2, [0, 1], [0]),  # indptr too short
        (2, [0, 2, 1], [0, 1]),  # indptr descends
        (2, [0, 1, 2], [0, 2]),  # column out of range
        (2, [0, 2, 2], [1, 0]),  # columns out of order
        (2, [0, 2, 2], [0, 0]),  # repeated column
    ]:
        with pytest.raises(DimensionError):
            Factor(n, indptr, indices, np.ones(len(indices)))
    with pytest.raises(DimensionError, match=r"factor B has shape \(2, 2\), expected \(3, 3\)"):
        ProductHamiltonian(1, 3, ((np.ones((1, 1)), Factor(2, [0, 1, 1], [1], [1.0])),))


def test_custom_model_input_keeps_only_exact_nonzeros():
    # explicit zeros, a negative zero and an imaginary-only entry in the file
    doc = {
        "model": "custom",
        "dim_a": 2,
        "dim_b": 2,
        "terms": [
            {"a": {"re": [[0.0, 1.0], [1.0, -0.0]]},
             "b": {"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, -1.0], [1.0, 0.0]]}},
        ],
        "state": {"psi_a": {"re": [1.0, 0.0]}, "psi_b": {"re": [1.0, 0.0]}},
    }
    h, _, _ = resolve_model_document(doc)
    (a, b), = h.terms
    assert np.array_equal(a.indices, [1, 0]) and np.array_equal(a.values, [1.0, 1.0])
    assert np.array_equal(b.indices, [1, 0]) and np.array_equal(b.values, [-1j, 1j])


def components_oracle(terms, support, dim_b):
    """Components of the term-wise kron nonzero pattern that meet ``support``, by BFS."""
    pattern = sum(np.kron(a != 0, b != 0) for a, b in terms) > 0
    adjacency = pattern | pattern.T
    seen, blocks = set(), []
    for seed in support:
        if seed in seen:
            continue
        block, frontier = {seed}, [seed]
        while frontier:
            for k in np.flatnonzero(adjacency[frontier.pop()]):
                if int(k) not in block:
                    block.add(int(k))
                    frontier.append(int(k))
        seen |= block
        blocks.append(sorted(block))
    return blocks


def test_block_search_matches_dense_components(route):
    rng = np.random.default_rng(92)
    for _ in range(100):
        terms, state = random_system(rng)
        h = ProductHamiltonian(state.dim_a, state.dim_b, tuple(terms))
        support = np.flatnonzero(product_state_vector(state))
        got = [list(block) for block in invariant_blocks(h, support)]
        assert got == components_oracle(terms, support.tolist(), h.dim_b)


def dense_verdict(terms):
    """None if the entrywise test passes on the dense total, else the worst entry."""
    total = dense_total(terms)
    defect = np.abs(total - total.conj().T)
    worst = int(np.argmax(defect))
    if defect.flat[worst] <= HERM_TOL * max(1.0, np.max(np.abs(total))):
        return None
    return divmod(worst, total.shape[0])


def verdict(check, h):
    try:
        check(h)
    except ModelError as exc:
        return str(exc)
    return None


def test_hermiticity_verdicts_match_dense(route, monkeypatch):
    rng = np.random.default_rng(93)
    real_norms = _factor_norms
    for k in range(100):
        terms, state = random_system(rng, stray=k % 2 == 1)
        h = ProductHamiltonian(state.dim_a, state.dim_b, tuple(terms))
        total = dense_total(terms)
        defect, norm = real_norms(h)
        assert defect == pytest.approx(np.linalg.norm(total - total.conj().T), abs=1e-12)
        assert norm == pytest.approx(np.linalg.norm(total), rel=1e-13, abs=1e-13)
        want = dense_verdict(terms)
        scan = verdict(_scan_hermitian, h)
        assert (scan is None) == (want is None)
        if want is not None:
            assert f"at entry ({want[0]}, {want[1]})" in scan
        # the factor proof, and the scan forced as its fallback
        monkeypatch.setattr(hamiltonian_module, "_factor_norms", real_norms)
        assert verdict(check_hermitian, h) == scan
        monkeypatch.setattr(hamiltonian_module, "_factor_norms", lambda h: (np.inf, 1.0))
        assert verdict(check_hermitian, h) == scan


def random_indices(rng, dim):
    """A non-empty ascending subset of range(dim)."""
    indices = np.flatnonzero(rng.random(dim) < 0.6)
    return indices if indices.size else np.arange(dim)


def test_block_matrix_matches_kron_slices(route):
    rng = np.random.default_rng(94)
    for _ in range(100):
        terms, state = random_system(rng, stray=True)
        h = ProductHamiltonian(state.dim_a, state.dim_b, tuple(terms))
        rows, other = random_indices(rng, h.dim), random_indices(rng, h.dim)
        for cols in (rows, other):  # a square block, then a rectangular one
            got = block_matrix(h, rows, cols)
            assert got.shape == (rows.size, cols.size)
            # the same products in term order; numpy may round a complex product
            # differently in np.kron's loop, so the match is to the last bits
            for total in (dense_total(terms), sum(oracles.kron_loops(a, b) for a, b in terms)):
                gap = np.max(np.abs(got - total[np.ix_(rows, cols)]), initial=0.0)
                assert gap <= 1e-14 * max(1.0, np.max(np.abs(total)))


@pytest.mark.parametrize("n_max, n_blocks", [(40, 41), (767, 493)])
def test_coherent_ground_blocks_match_kron_slices(route, n_max, n_blocks):
    # every A row of sigma_-/sigma_+ but one is empty there, so block_matrix
    # skips one of the two terms on each row run; the blocks are unchanged
    h, state = build_jcm(
        JcmSpec(lam=1.0, n_max=n_max, field=CoherentField(3.0), c_e=0.0, c_g=1.0)
    )
    blocks = invariant_blocks(h, np.flatnonzero(product_state_vector(state)))
    assert len(blocks) == n_blocks
    dense = oracles.dense_terms(h)
    loops = sum(oracles.kron_loops(a, b) for a, b in dense) if n_max == 40 else None
    for indices in blocks:
        ii, jj = np.divmod(indices, h.dim_b)
        slice_ = np.zeros((indices.size,) * 2, dtype=np.complex128)
        for a, b in dense:  # kron(a, b)[indices][:, indices], term by term
            slice_ += a[np.ix_(ii, ii)] * b[np.ix_(jj, jj)]
        got = block_matrix(h, indices, indices)
        assert np.array_equal(got, slice_)
        if loops is not None:
            assert np.array_equal(got, loops[np.ix_(indices, indices)])


def dense_covariance(factors, psi):
    """The covariance matrix from dense factors by BLAS matrix-vector products."""
    applied = np.stack([f @ psi for f in factors])
    bras = np.stack([psi.conj() @ f for f in factors])
    means = np.array([np.vdot(psi, row) for row in applied])
    return np.einsum("nd,md->nm", bras, applied) - np.outer(means, means)


def test_timescale_matches_the_dense_double_sum(route):
    rng = np.random.default_rng(95)
    for _ in range(100):
        terms, state = random_system(rng)
        h = ProductHamiltonian(state.dim_a, state.dim_b, tuple(terms))
        report = entanglement_timescale(h, state)
        dense = oracles.dense_terms(h)
        cov_a = dense_covariance([a for a, _ in dense], state.psi_a)
        cov_b = dense_covariance([b for _, b in dense], state.psi_b)
        want = max(complex(np.sum(cov_a * cov_b)).real, 0.0)
        gap = abs(report["t_ent_inv_sq"] - want)
        assert gap <= ULPS_OF_SCALE * np.spacing(max(report["scale"], 1.0))
        loops = oracles.covariance_sum_loops(dense, state.psi_a, state.psi_b)
        assert (abs(report["t_ent_inv_sq"] - max(loops.real, 0.0))
                <= 1e-12 * max(1.0, report["scale"]))


def test_build_jcm_with_free_terms_allocates_under_1_mb():
    # d = 1536, as in the benchmark, off zero detuning: four CSR factor
    # pairs, where one dense 768 x 768 field factor alone took 9.4 MB
    tracemalloc.start()
    try:
        h, _ = build_jcm(JcmSpec(lam=1.0, omega=0.3, n_max=767, field=FockField(3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.n_terms == 4
    assert peak < 2**20
