import math

import numpy as np
import pytest
import scipy.special

import enttime.linalg as linalg_module
from enttime.errors import DimensionError, NumericalError, StateError
from enttime.linalg import (
    bessel_j,
    chebyshev_propagate,
    chebyshev_terms,
    chebyshev_vectors,
    eig_hermitian,
    hermitian_part,
    hermitian_product,
    lanczos_interval,
    propagate,
    row_norms,
)
from enttime.hamiltonian import ProductHamiltonian, block_matrix
from enttime.tolerances import CHEB_TAIL_TOL, NORM_TOL, PROBE_COLUMNS, RECON_TOL

import oracles


def test_eig_hermitian_known_values():
    spec = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(eig_hermitian(sx).eigenvalues, [-1.0, 1.0])


def test_eig_hermitian_reconstruction_random():
    rng = np.random.default_rng(31)
    for _ in range(30):
        m = oracles.random_hermitian(rng, 8)
        spec = eig_hermitian(m)
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        v = spec.eigenvectors
        assert np.max(np.abs((v * spec.eigenvalues) @ v.conj().T - m)) <= 1e-11
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-12


def test_eig_hermitian_rejects_nonsquare():
    with pytest.raises(DimensionError):
        eig_hermitian(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        eig_hermitian(np.ones((2, 3, 3, 3)))
    with pytest.raises(StateError):
        eig_hermitian(np.array([[[1.0, 0.0], [0.0, np.inf]]]))


def test_eig_hermitian_stack_matches_single_calls():
    rng = np.random.default_rng(37)
    for n in (2, 5, 12):
        stack = np.stack([oracles.random_hermitian(rng, n) for _ in range(4)])
        spec = eig_hermitian(stack)
        assert spec.eigenvalues.shape == (4, n) and spec.eigenvectors.shape == (4, n, n)
        for k in range(4):
            alone = eig_hermitian(stack[k])
            assert np.array_equal(spec.eigenvalues[k], alone.eigenvalues)
            assert np.array_equal(spec.eigenvectors[k], alone.eigenvectors)


# ---------------------------------------------------------------------------
# the residual probe against the O(n^3) reconstruction check it replaced


def _reconstruction_rejects(sym, w, v) -> bool:
    """The check the probe replaced: max|V W V^dag - S| against RECON_TOL max(1, max|S|)."""
    residual = np.max(np.abs((v * w) @ v.conj().T - sym))
    return not residual <= RECON_TOL * max(1.0, np.max(np.abs(sym)))


def _perturb_entry(w, v):
    v[3, v.shape[1] // 2] += 1e-6


def _shift_eigenvalue(w, v):
    w[w.size // 2] += 1e-6 * np.max(np.abs(w))


def _swap_columns(w, v):
    v[:, [0, -1]] = v[:, [-1, 0]]


def _scale_column(w, v):
    v[:, -1] *= 1.0 + 1e-6


@pytest.mark.parametrize("n", [6, 200])
@pytest.mark.parametrize(
    "corrupt", [_perturb_entry, _shift_eigenvalue, _swap_columns, _scale_column],
    ids=["eigenvector-entry", "eigenvalue-shift", "swapped-columns", "scaled-column"],
)
def test_probe_rejects_what_the_reconstruction_check_rejects(monkeypatch, corrupt, n):
    rng = np.random.default_rng(53)
    stack = np.stack([oracles.random_hermitian(rng, n) for _ in range(3)])
    eigh = np.linalg.eigh
    broken = {}

    def corrupted_eigh(a):
        w, v = eigh(a)
        w, v = w.copy(), v.copy()
        corrupt(*((w[1], v[1]) if w.ndim == 2 else (w, v)))
        broken["decomposition"] = (w, v)
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", corrupted_eigh)
    for m in (stack[1], stack):  # alone, and as the middle matrix of a stack
        with pytest.raises(NumericalError, match="residual"):
            eig_hermitian(m)
        w, v = broken["decomposition"]
        if w.ndim == 2:
            w, v = w[1], v[1]
        assert _reconstruction_rejects(stack[1], w, v)


def test_small_probe_is_the_exact_frobenius_residual():
    rng = np.random.default_rng(59)
    for n in range(1, PROBE_COLUMNS + 1):
        sym = oracles.random_hermitian(rng, n)
        w, v = np.linalg.eigh(sym)
        w = w + rng.uniform(-1e-3, 1e-3, size=n)  # a residual well above roundoff
        exact = np.linalg.norm(sym - (v * w) @ v.conj().T, "fro")
        probe = linalg_module._residual_estimate(sym, w, v)
        assert probe == pytest.approx(exact, rel=1e-12)
        assert probe == pytest.approx(np.linalg.norm((sym - (v * w) @ v.conj().T) @ np.eye(n)),
                                      rel=1e-12)


def _chi2_cdf_even(x: float, k: int) -> float:
    """P(chi2_k <= x) for even k, in closed form."""
    half = x / 2.0
    return 1.0 - math.exp(-half) * sum(half**j / math.factorial(j) for j in range(k // 2))


@pytest.mark.parametrize("kind", ["real-rank-1", "complex-rank-1", "complex-rank-2"])
def test_probe_miss_rate_within_the_stated_bound(monkeypatch, kind):
    """Over probe seeds, a residual gamma times the threshold is accepted at most
    as often as P(chi2_k <= k / gamma^2), the bound stated next to RECON_TOL."""
    n, gamma, trials = 16, 2.0, 2000
    rng = np.random.default_rng(61)
    if kind == "real-rank-1":
        e = np.outer(rng.standard_normal(n), rng.standard_normal(n)).astype(np.complex128)
    else:
        rank = 1 if kind == "complex-rank-1" else 2
        e = oracles.random_matrix(rng, n, rank) @ oracles.random_matrix(rng, rank, n)
    w = np.arange(n, dtype=np.float64)
    sym = np.diag(w).astype(np.complex128) + e  # V = I, so the residual is exactly e
    threshold = np.linalg.norm(e) / gamma
    missed = 0
    for seed in range(trials):
        monkeypatch.setattr(linalg_module, "PROBE_SEED", seed)
        missed += linalg_module._residual_estimate(sym, w, np.eye(n)) <= threshold
    bound = _chi2_cdf_even(PROBE_COLUMNS / gamma**2, PROBE_COLUMNS)
    spread = math.sqrt(trials * bound * (1.0 - bound))
    assert missed <= trials * bound + 4.0 * spread
    if kind == "real-rank-1":  # the bound is attained there
        assert missed >= trials * bound - 4.0 * spread


def test_probe_margin_on_a_healthy_matrix(record_property):
    """A complex Hermitian matrix at d = 1024 passes far inside the threshold."""
    rng = np.random.default_rng(67)
    m = oracles.random_hermitian(rng, 1024)
    spec = eig_hermitian(m)
    sym = 0.5 * (m + m.conj().T)
    estimate = linalg_module._residual_estimate(sym, spec.eigenvalues, spec.eigenvectors)
    exact = np.linalg.norm(sym - (spec.eigenvectors * spec.eigenvalues)
                           @ spec.eigenvectors.conj().T)
    margin = RECON_TOL * np.linalg.norm(sym) / estimate
    record_property("probe_margin", float(margin))
    assert 0.5 * exact <= estimate <= 2.0 * exact
    assert margin >= 1e3


def test_hermitian_spectrum_is_frozen():
    spec = eig_hermitian(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        spec.eigenvectors[0, 0] = 0.0


def _eigenstate_case(rng):
    # H = sigma_z (x) I: |e>|0> picks up exactly exp(-i t)
    psi0 = np.zeros(4, dtype=np.complex128)
    psi0[0] = 1.0
    t = 0.73
    expected = np.zeros(4, dtype=np.complex128)
    expected[0] = np.exp(-1j * t)
    return np.kron(np.diag([1.0, -1.0]), np.eye(2)), psi0, [t], [expected], 1e-14


def _t0_case(rng):
    h = oracles.random_hermitian(rng, 6)
    psi0 = oracles.random_unit_vector(rng, 6)
    return h, psi0, [0.0], [psi0], 1e-14


def _expm_case(rng):
    d = int(rng.integers(2, 5)) * int(rng.integers(2, 5))
    h = oracles.random_hermitian(rng, d)
    psi0 = oracles.random_unit_vector(rng, d)
    times = rng.uniform(-3.0, 3.0, size=20)
    return h, psi0, times, [oracles.expm_propagate(h, psi0, t) for t in times], 1e-10


def _long_time_case(rng):
    h = oracles.random_hermitian(rng, 12)
    psi0 = oracles.random_unit_vector(rng, 12)
    return h, psi0, np.linspace(0.0, 10.0, 11), None, 1e-10


@pytest.mark.parametrize(
    "case",
    [_t0_case, _eigenstate_case, _expm_case, _long_time_case],
    ids=["t0-is-identity", "eigenstate-phase", "expm-oracle", "norm-at-long-times"],
)
def test_propagate(case):
    rng = np.random.default_rng(41)
    h, psi0, times, expected, tol = case(rng)
    spec = eig_hermitian(h)
    out = propagate(spec, psi0, (psi0.conj() @ spec.eigenvectors).conj(), times)
    assert out.shape == (len(times), psi0.size)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= tol
    if expected is not None:
        assert np.max(np.abs(out - np.array(expected))) <= tol


def test_propagate_keeps_the_bits_of_the_complex_expression():
    """The in-place phase shift gives the bits of psi0 + (shift * modes) @ V^T,
    shift = -2 sin^2(theta / 2) - i sin(theta), signed zeros at t = 0 included."""
    rng = np.random.default_rng(43)
    h = oracles.random_hermitian(rng, 24)
    h[np.diag_indices(24)] -= 3.0  # eigenvalues of both signs
    psi0 = oracles.random_unit_vector(rng, 24)
    spec = eig_hermitian(h)
    v = spec.eigenvectors
    modes = (psi0.conj() @ v).conj()
    times = np.concatenate([[0.0, -0.0], rng.uniform(-5.0, 5.0, size=30), [1e-300]])
    theta = np.multiply.outer(times, spec.eigenvalues)
    half = np.sin(0.5 * theta)
    shift = -2.0 * half * half - 1j * np.sin(theta)
    expected = psi0 + (shift * modes) @ v.T
    assert propagate(spec, psi0, modes, times).tobytes() == expected.tobytes()
    # a (b, n) stack: each matrix gets the bits it gets alone, modes included
    stack = np.stack([oracles.random_hermitian(rng, 6) for _ in range(5)])
    starts = np.stack([oracles.random_unit_vector(rng, 6) for _ in range(5)])
    spectra = eig_hermitian(stack)
    stacked_modes = (starts.conj()[:, None, :] @ spectra.eigenvectors)[:, 0, :].conj()
    out = propagate(spectra, starts, stacked_modes, times)
    assert out.shape == (times.size, 5, 6)
    for k in range(5):
        alone = eig_hermitian(stack[k])
        modes = (starts[k].conj() @ alone.eigenvectors).conj()
        assert stacked_modes[k].tobytes() == modes.tobytes()
        assert out[:, k].tobytes() == propagate(alone, starts[k], modes, times).tobytes()


def test_reduced_spectra_agree_for_random_pure_states():
    rng = np.random.default_rng(45)
    for _ in range(100):
        dim_a = int(rng.integers(1, 7))
        dim_b = int(rng.integers(1, 7))
        psi = oracles.random_unit_vector(rng, dim_a * dim_b)
        rho = np.outer(psi, psi.conj())
        spec_a = eig_hermitian(oracles.partial_trace_loops(rho, dim_a, dim_b, "A")).eigenvalues
        spec_b = eig_hermitian(oracles.partial_trace_loops(rho, dim_a, dim_b, "B")).eigenvalues
        width = max(dim_a, dim_b)
        padded_a = np.zeros(width)
        padded_b = np.zeros(width)
        padded_a[: dim_a] = spec_a
        padded_b[: dim_b] = spec_b
        assert np.max(np.abs(np.sort(padded_a) - np.sort(padded_b))) <= 1e-10


# ---------------------------------------------------------------------------
# the residual each spectrum keeps


@pytest.mark.parametrize("n", [5, 200])
def test_forced_residuals_show_on_the_spectrum(monkeypatch, n):
    """An eigenvalue moved by delta below the tolerance is accepted, and the
    spectrum of that matrix of the stack, and only that one, reports it."""
    rng = np.random.default_rng(73)
    stack = np.stack([oracles.random_hermitian(rng, n) for _ in range(3)])
    delta = 0.1 * RECON_TOL * np.linalg.norm(stack[1])
    eigh = np.linalg.eigh

    def moved(w):
        w = w.copy()
        w[1, n // 2] += delta
        return w

    monkeypatch.setattr(np.linalg, "eigh", lambda a: (moved(eigh(a)[0]), eigh(a)[1]))
    full = eig_hermitian(stack)
    assert full.residual[1] == pytest.approx(delta, rel=0.5)
    assert max(full.residual[0], full.residual[2]) <= 1e-2 * delta


def test_a_moved_eigenvalue_shows_past_the_squares_that_overflow(monkeypatch):
    """At 1e160 the squares of the entries overflow: the residual and its bound stay finite,
    and an eigenvalue moved by 1e-6 of the scale is still caught."""
    m = 1e160 * np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]])
    with np.errstate(over="raise"):
        spectrum = eig_hermitian(m)
    assert np.isfinite(spectrum.tolerance) and spectrum.residual <= spectrum.tolerance
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] + [1e154, 0.0], eigh(a)[1]))
    with pytest.raises(NumericalError, match="residual"):
        eig_hermitian(m)


# ---------------------------------------------------------------------------
# the Chebyshev series


@pytest.mark.parametrize("k_max", [0, 1, 6, 60, 500])
def test_bessel_j_matches_scipy(k_max):
    """scipy's jv is itself off by up to about 3e-14 at x = 2000 and 1.5e-14
    relative at x = 1e-9 (against mpmath), hence the tolerances. Orders from
    the series length at x on, where the recurrence starts, are held to the
    absolute tolerance only: the series never needs them more exactly."""
    xs = np.array([0.0, 1e-12, -1e-12, 1e-9, 0.02, 1.0, 323.0, 2000.0, -0.02, -323.0])
    orders = np.arange(k_max + 1)
    together = bessel_j(k_max, xs)
    assert together.shape == (xs.size, k_max + 1)
    reference = scipy.special.jv(orders[None, :], xs[:, None])
    assert np.max(np.abs(together - reference)) <= 1e-13
    for k, x in enumerate(xs):
        alone = bessel_j(k_max, [x])[0]
        assert np.max(np.abs(alone - reference[k])) <= 1e-13
        assert np.array_equal(bessel_j(k_max, [-x])[0], alone * (-1.0) ** orders)
        if abs(x) <= 1.0:
            kept = orders < chebyshev_terms(x, 10**4)
            assert np.all(np.abs(alone - reference[k])[kept]
                          <= 5e-14 * np.abs(reference[k])[kept])
    assert np.array_equal(bessel_j(k_max, [0.0])[0], np.eye(1, k_max + 1)[0])


def test_series_length_meets_its_bound_and_stops_at_the_limit():
    def bound(x, k):
        """Kapteyn's tail bound derived next to CHEB_TAIL_TOL, infinite for K + 1 <= x."""
        y = (k + 1) / x
        if not y > 1.0:
            return math.inf
        root = math.sqrt(y * y - 1.0)
        return 2.0 * math.exp(x * root - (k + 1) * math.acosh(y)) / (1.0 - y + root)

    for x in (1e-12, 1e-4, 0.5, 7.0, 100.0, 323.4):
        k = chebyshev_terms(x, 10**4)
        assert bound(x, k) <= CHEB_TAIL_TOL
        # the tail it drops, by the recurrence itself
        tail = 2.0 * np.sum(np.abs(bessel_j(k + 60, [x])[0, k + 1:]))
        assert tail <= CHEB_TAIL_TOL
        assert chebyshev_terms(-x, 10**4) == k
        assert chebyshev_terms(x, k) == k and chebyshev_terms(x, k - 1) is None
    assert chebyshev_terms(0.0, 0) == 0


@pytest.mark.parametrize("x", [0.5, 3.0, 8.0, 20.5, 40.0, 120.0, 323.4, 1000.0])
def test_series_lengths_stay_put(x):
    """K, pinned so that any change to the search shows."""
    table = {0.5: 14, 3.0: 24, 8.0: 36, 20.5: 58, 40.0: 86, 120.0: 185, 323.4: 414,
             1000.0: 1133}
    assert chebyshev_terms(x, 10**4) == table[x]


@pytest.mark.parametrize("x", [math.inf, 1e300, 2.0 * (1024 + 2), 1024.0 + 1.0])
def test_series_length_search_is_bounded(monkeypatch, x):
    """An x that K <= limit cannot serve (K + 1 > x) is refused before any term of the search."""
    monkeypatch.setattr(linalg_module, "_kapteyn", None)  # any step would call it
    assert chebyshev_terms(x, 1024) is None


@pytest.mark.parametrize("x", [5e-324, 1e-310, 1e-200, 1e-155, 1e-150, 1e-30, 1e-18])
def test_every_tiny_x_gets_one_term(x):
    """Sized in logs, no x > 0 overflows: below about 1e-17 one term meets the bound, which
    grows with x, and K = 0 never does for x > 0 (it needs K > x)."""
    assert chebyshev_terms(x, 100) == 1
    assert chebyshev_terms(-x, 1) == 1 and chebyshev_terms(x, 0) is None


def _series(h, psi0, times):
    """The series on the exact interval of ``h``, from eigvalsh as an oracle, widened by the
    margin the eigendecomposition check allows."""
    w = np.linalg.eigvalsh(h)
    margin = RECON_TOL * max(1.0, np.linalg.norm(h))
    center, radius = 0.5 * (w[0] + w[-1]), 0.5 * (w[-1] - w[0]) + margin
    k = chebyshev_terms(radius * np.max(np.abs(times)), 10**4)
    vectors, growth = chebyshev_vectors(h, center, radius, psi0[None], k)
    return chebyshev_propagate(psi0, vectors, center, radius, times), vectors, growth


@pytest.mark.parametrize("n", [16, 64, 256])
def test_series_matches_expm_at_negative_and_unsorted_times(n):
    rng = np.random.default_rng(89 + n)
    h = oracles.random_hermitian(rng, n)
    h[np.diag_indices(n)] += 2.0  # an off-center spectrum
    psi0 = oracles.random_unit_vector(rng, n)
    times = rng.uniform(-1.5, 1.5, size=9)
    out, vectors, growth = _series(h, psi0, times)
    expected = np.array([oracles.expm_propagate(h, psi0, t) for t in times])
    assert np.max(np.abs(out - expected)) <= 1e-12
    assert 0.0 < growth <= 1.0 + NORM_TOL
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-13


def test_series_returns_the_start_at_time_zero():
    rng = np.random.default_rng(97)
    h = oracles.random_hermitian(rng, 12)
    psi0 = oracles.random_unit_vector(rng, 12)
    out, _, _ = _series(h, psi0, [0.0, -0.0, 0.0])
    for row in out:
        assert row.tobytes() == psi0.tobytes()
    # and t = 0 in a grid that needs many terms
    out, vectors, _ = _series(h, psi0, [2.0, 0.0, -1.0])
    assert vectors.shape[0] > 10 and out[1].tobytes() == psi0.tobytes()


def test_series_keeps_the_bits_of_the_whole_array_expression():
    """The last passes, taken over blocks of rows, give the bits of
    (sum_k>=1 2 J_k v_k) p + q psi0 + psi0 taken over all times at once."""
    rng = np.random.default_rng(103)
    n = 100  # 81 rows a block: three blocks and a partial one
    h = oracles.random_hermitian(rng, n)
    h[np.diag_indices(n)] += 3.0  # a nonzero center, so p != 1
    psi0 = oracles.random_unit_vector(rng, n)
    times = np.concatenate([[0.0, -0.0], rng.uniform(-0.4, 0.4, size=300)])
    out, vectors, _ = _series(h, psi0, times)
    assert out.shape[0] > 3 * (linalg_module._BLOCK_ENTRIES // n)
    w = np.linalg.eigvalsh(h)
    margin = RECON_TOL * max(1.0, np.linalg.norm(h))
    center, radius = 0.5 * (w[0] + w[-1]), 0.5 * (w[-1] - w[0]) + margin
    k = chebyshev_terms(radius * np.max(np.abs(times)), vectors.shape[0] - 1)
    bessel = bessel_j(k, radius * times)
    theta = center * times
    half, sine = np.sin(0.5 * theta), np.sin(theta)
    q = bessel[:, 0] * (-2.0 * half * half - 1j * sine) - 2.0 * bessel[:, 2::2].sum(axis=1)
    bessel[:, 1:] *= 2.0
    expected = (bessel[:, 1:] @ vectors[1 : k + 1].view(np.float64)).view(np.complex128)
    expected *= (np.cos(theta) - 1j * sine)[:, None]
    expected += np.multiply.outer(q, psi0)
    expected += psi0
    assert out.tobytes() == expected.tobytes()


def test_row_norms_match_the_two_norm_of_each_row():
    rng = np.random.default_rng(107)
    x = rng.standard_normal((7, 40)) + 1j * rng.standard_normal((7, 40))
    for rows in (x, x[:, ::3], x[::2].T, x[:0]):  # contiguous, strided, transposed, empty
        expected = np.linalg.norm(rows, axis=1)
        assert np.allclose(row_norms(rows), expected, rtol=1e-14, atol=0.0)


def test_series_refuses_a_spectrum_outside_its_interval():
    rng = np.random.default_rng(101)
    h = oracles.random_hermitian(rng, 32)
    psi0 = oracles.random_unit_vector(rng, 32)
    w = np.linalg.eigvalsh(h)
    center, radius = 0.5 * (w[0] + w[-1]), 0.5 * (w[-1] - w[0])
    _, growth = chebyshev_vectors(h, center, radius * (1 + 1e-9), psi0[None], 60)
    assert growth <= 1.0 + NORM_TOL
    with pytest.raises(NumericalError, match="leaves"):
        chebyshev_vectors(h, center, 0.9 * radius, psi0[None], 60)
    # rows formed earlier are continued, and the check covers the new ones
    rows, _ = chebyshev_vectors(h, center, radius * (1 + 1e-9), psi0[None], 5)
    more, _ = chebyshev_vectors(h, center, radius * (1 + 1e-9), rows, 60)
    full, _ = chebyshev_vectors(h, center, radius * (1 + 1e-9), psi0[None], 60)
    assert np.array_equal(more, full)
    with pytest.raises(NumericalError, match="leaves"):
        chebyshev_vectors(h, center, 0.9 * radius, rows, 60)


def _whole_matrix(h):
    every = np.arange(h.dim)
    return hermitian_part(block_matrix(h, every, every))


@pytest.mark.parametrize("dims", [(1, 1), (2, 7), (5, 3), (6, 6)])
def test_product_form_matches_the_hermitian_part(dims):
    """S psi from the factors matches (M + M^dag)/2 psi, also where M is not Hermitian."""
    rng = np.random.default_rng(131 + dims[0])
    terms = oracles.random_term_list(rng, *dims, 4)
    terms.append((oracles.random_matrix(rng, dims[0]), oracles.random_matrix(rng, dims[1])))
    h = ProductHamiltonian(*dims, tuple(terms))
    apply = hermitian_product(oracles.dense_terms(h), h.paired)
    sym = _whole_matrix(h)
    for _ in range(3):
        psi = oracles.random_unit_vector(rng, h.dim)
        assert np.linalg.norm(apply(psi) - sym @ psi) <= 1e-13 * np.linalg.norm(sym @ psi)


def _adjoint(term):
    return tuple(f.conj().T for f in term)


@pytest.mark.parametrize("dims", [(2, 7), (5, 3), (6, 6)])
def test_adjoint_terms_enter_the_product_form_once(dims):
    """A list closed under the adjoint stacks N blocks, each once; unpaired terms keep both
    halves. Each gives the S psi of (M + M^dag)/2."""
    rng = np.random.default_rng(149 + dims[0])
    g = (oracles.random_matrix(rng, dims[0]), oracles.random_matrix(rng, dims[1]))
    x = (oracles.random_hermitian(rng, dims[0]), oracles.random_hermitian(rng, dims[1]))
    lone = (oracles.random_matrix(rng, dims[0]), oracles.random_matrix(rng, dims[1]))
    cases = [
        ([g, x, _adjoint(g)], 3),  # a pair apart, and a Hermitian term
        ([x, x], 2),  # two self-adjoint terms
        ([g, _adjoint(g), _adjoint(g)], 4),  # the second adjoint finds no partner
        ([lone, x], 3),  # M is not Hermitian: lone keeps both halves
        ([lone, _adjoint(lone), g], 4),
    ]
    for terms, width in cases:
        h = ProductHamiltonian(*dims, tuple(terms))
        apply = hermitian_product(oracles.dense_terms(h), h.paired)
        assert 2 * h.n_terms - sum(h.paired) == width
        sym = _whole_matrix(h)
        psi = oracles.random_unit_vector(rng, h.dim)
        assert np.linalg.norm(apply(psi) - sym @ psi) <= 1e-13 * np.linalg.norm(sym @ psi)


def test_lanczos_interval_holds_the_extreme_eigenvalues_within_its_margin():
    rng = np.random.default_rng(137)
    for case in range(24):
        dims = (int(rng.integers(2, 13)), int(rng.integers(2, 13)))
        h = ProductHamiltonian(*dims, tuple(oracles.random_term_list(rng, *dims, 3)))
        sym = _whole_matrix(h)
        w = np.linalg.eigvalsh(sym)
        start = rng.standard_normal(h.dim)
        operator = hermitian_product(oracles.dense_terms(h), h.paired) if case % 2 else sym
        low, high, margin = lanczos_interval(operator, start)
        assert RECON_TOL <= margin <= 1e-6 * (w[-1] - w[0])
        assert abs(low - w[0]) <= margin and abs(high - w[-1]) <= margin


def test_lanczos_interval_scales_with_entries_whose_squares_overflow():
    """S and 2^531 S (entries near 1e161) give the same interval up to that factor, on a
    matrix and on the product form, with no overflow on the way."""
    rng = np.random.default_rng(3)
    terms = oracles.random_term_list(rng, 9, 10, 3)
    h = ProductHamiltonian(9, 10, tuple(terms))
    big = ProductHamiltonian(9, 10, tuple((a * 2.0**531, b) for a, b in terms))
    start = rng.standard_normal(h.dim)
    expected = np.ldexp(lanczos_interval(_whole_matrix(h), start), 531)
    w = np.linalg.eigvalsh(_whole_matrix(big))
    with np.errstate(all="raise"):
        for operator in (_whole_matrix(big), hermitian_product(oracles.dense_terms(big),
                                                               big.paired)):
            low, high, margin = lanczos_interval(operator, start)
            assert np.allclose((low, high, margin), expected, rtol=1e-12, atol=0.0)
            assert abs(low - w[0]) <= margin and abs(high - w[-1]) <= margin


def test_lanczos_stops_on_an_invariant_subspace(monkeypatch):
    """A beta of zero or roundoff ends Lanczos with exact Ritz values and no division by it."""
    rng = np.random.default_rng(139)
    sym = _whole_matrix(ProductHamiltonian(4, 4, tuple(oracles.random_term_list(rng, 4, 4, 3))))
    w, v = np.linalg.eigh(sym)
    scaled_identity = ProductHamiltonian(3, 5, ((2.5 * np.eye(3), np.eye(5)),
                                                (np.eye(3), -0.5 * np.eye(5))))
    cases = [
        (np.array([[-3.0 + 0j]]), np.array([0.7]), -3.0),  # a 1 x 1 model
        (hermitian_product(oracles.dense_terms(scaled_identity), scaled_identity.paired),
         rng.standard_normal(15), 2.0),
        (sym, v[:, -1], w[-1]),  # a start that is an eigenvector
    ]
    steps = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda t: steps.append(t.shape[0]) or eigh(t))
    with np.errstate(all="raise"):
        for operator, start, level in cases:
            low, high, margin = lanczos_interval(operator, start)
            assert low == pytest.approx(level, abs=1e-13) and high == pytest.approx(level, abs=1e-13)
            assert margin == RECON_TOL * max(1.0, abs(low), abs(high))
    assert steps == [1, 1, 1]


def _tail_bound_exact(x, k, phi):
    """The dropped tail and sup over rho = e^phi of min(F, G), from J_k itself.

    |J_k| is maximized over a grid of arguments up to x, and T_k(y) / T_K(y),
    y = cosh(phi), is formed as e^((k-K) phi) (1 + e^(-2k phi)) / (1 + e^(-2K phi)),
    which does not overflow.
    """
    args = np.linspace(0.0, x, 41)
    orders = np.arange(0, k + 200)
    j = np.abs(scipy.special.jv(orders[:, None], args[None, :])).max(axis=1)
    ratio = (np.exp(np.outer(orders - k, phi)) * (1.0 + np.exp(-2.0 * np.outer(orders, phi)))
             / (1.0 + np.exp(-2.0 * k * phi)))
    f = (2.0 * j[k + 1:, None] * ratio[k + 1:]).sum(axis=0)
    g = 2.0 * np.exp(-k * phi) / (1.0 + np.exp(-2.0 * k * phi))
    g = g + (2.0 * j[: k + 1, None] * ratio[: k + 1]).sum(axis=0)
    return 2.0 * j[k + 1:].sum(), float(np.minimum(f, g).max())


@pytest.mark.parametrize("x", [0.5, 3.0, 8.0, 40.0, 120.0])
def test_series_length_without_an_enclosing_interval(x):
    """With the interval guarded only by the growth check, the dropped tail plus what
    components outside the interval add stays within CHEB_TAIL_TOL, measured from J_k
    over a grid of rho."""
    k = chebyshev_terms(x, 10**4)
    assert chebyshev_terms(x, k) == k
    assert chebyshev_terms(x, k - 1) is None
    tail, outside = _tail_bound_exact(x, k, np.linspace(1e-4, 3.0, 400))
    assert tail + (1.0 + NORM_TOL) * outside <= CHEB_TAIL_TOL
