import numpy as np
import pytest

from enttime.errors import DimensionError, StateError
from enttime.linalg import as_complex_matrix, eig_hermitian, propagate

import oracles


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(DimensionError):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(StateError):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])


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
    out = propagate(eig_hermitian(h), psi0, times)
    assert out.shape == (len(times), psi0.size)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= tol
    if expected is not None:
        assert np.max(np.abs(out - np.array(expected))) <= tol


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
