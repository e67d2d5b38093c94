"""Dense complex linear algebra kernel shared by all higher modules.

Input validation, the checked Hermitian eigendecomposition (of one matrix
or of a stack of equal-size ones, checked by an O(k n^2) residual probe
rather than an O(n^3) reconstruction) and propagation in its eigenbasis.
Nothing here knows about the bipartite split: the composite index
i * dim_b + j is laid out by
:func:`~enttime.hamiltonian.product_state_vector` and read back by
:class:`~enttime.propagator.Propagator`.

All heavy lifting is delegated to numpy (LAPACK); this module adds the
validation and the error contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, StateError
from .tolerances import PROBE_COLUMNS, PROBE_SEED, RECON_TOL

__all__ = [
    "as_complex_matrix",
    "HermitianSpectrum",
    "eig_hermitian",
    "propagate",
]


def as_complex_matrix(m, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite 2-D complex128 array.

    Parameters
    ----------
    m : array_like
        Anything numpy can turn into a matrix.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        2-D complex128 view or copy of the input.
    """
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise DimensionError(
            f"{name} must be a 2-D array with positive dimensions, got shape {out.shape!r}"
        )
    if not np.all(np.isfinite(out)):
        raise StateError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True, eq=False)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, or of a stack of them.

    ``eigenvalues`` are real and ascending, ``eigenvectors`` holds the
    orthonormal eigenvectors as columns, so
    ``(eigenvectors * eigenvalues) @ eigenvectors.conj().T`` reconstructs the
    matrix; a stack carries its leading axis on both fields. Instances come
    out of :func:`eig_hermitian`, which checks the residual; the fields are
    kept read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def eig_hermitian(m) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, or of an (b, n, n) stack, with a residual probe.

    The input is symmetrized as S = (M + M^dag)/2 before the solve; callers
    are expected to pass matrices that are already Hermitian to working
    precision. A stack takes one LAPACK call, and each of its matrices gets
    exactly the spectrum it would get alone. Raises :class:`NumericalError`
    when LAPACK fails to converge or when, for any matrix, the probe of
    ||S - V W V^dag||_F (:func:`_residual_estimate`, O(n^2) per probe
    column) exceeds ``RECON_TOL`` max(1, ||S||_F); the detection bound is
    derived next to ``RECON_TOL``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionError(f"matrix must be square, got shape {m.shape!r}")
    if not np.all(np.isfinite(m)):
        raise StateError("matrix contains non-finite entries")
    sym = m.conj().swapaxes(-1, -2)
    sym += m
    sym *= 0.5
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    residual = _residual_estimate(sym, w, v)
    tol = RECON_TOL * np.maximum(1.0, np.linalg.norm(sym, axis=(-2, -1)))
    bad = np.flatnonzero(~(residual <= tol))
    if bad.size:
        k = bad[0]
        raise NumericalError(
            f"eigendecomposition residual {residual.flat[k]:.3e} exceeds {tol.flat[k]:.3e}"
        )
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def _residual_estimate(sym: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||(S - V W V^dag) X||_F / sqrt(columns of X) for each matrix of the stack.

    X is the identity when n <= ``PROBE_COLUMNS`` (the exact Frobenius
    residual), else ``PROBE_COLUMNS`` standard normal columns from
    ``PROBE_SEED``, applied as S X - V (W (V^dag X)).
    """
    n = w.shape[-1]
    if n <= PROBE_COLUMNS:
        x, scale = np.eye(n), 1.0
    else:
        x = np.random.default_rng(PROBE_SEED).standard_normal((n, PROBE_COLUMNS))
        scale = math.sqrt(PROBE_COLUMNS)
    vx = (v.swapaxes(-1, -2) @ x).conj()  # V^dag X, as X is real
    e = sym @ x - v @ (w[..., :, None] * vx)
    return np.linalg.norm(e, axis=(-2, -1)) / scale


def propagate(spectrum: HermitianSpectrum, psi0: np.ndarray, modes: np.ndarray,
              times) -> np.ndarray:
    """Amplitudes exp(-i M t) psi0 for each time, one row per time.

    Evaluated as psi0 + V diag(exp(-i w t) - 1) V^dag psi0 with the phase
    shift written through sines, so t = 0 returns psi0 exactly and the
    change of a nearly unmoved state keeps its relative accuracy. ``modes``
    is V^dag psi0, formed once by the caller for all its time grids as
    ``(psi0.conj() @ V).conj()``. The rows for all times come out of one
    (T x dim) by (dim x dim) product, into a new array.
    """
    theta = np.multiply.outer(np.asarray(times, dtype=np.float64), spectrum.eigenvalues)
    half = 0.5 * theta
    np.sin(half, out=half)
    np.sin(theta, out=theta)
    shift = 1j * theta
    # -2 sin^2(theta / 2) - i sin(theta), in the order of the complex expression
    np.multiply(half, -2.0, out=theta)
    theta *= half
    np.subtract(theta, shift, out=shift)
    shift *= modes
    out = shift @ spectrum.eigenvectors.T
    out += psi0
    return out
