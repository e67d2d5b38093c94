"""Dense complex linear algebra kernel shared by all higher modules.

Input validation, the checked Hermitian eigendecomposition and propagation
in its eigenbasis. Nothing here knows about the bipartite split: the
composite index i * dim_b + j is laid out by
:func:`~enttime.hamiltonian.product_state_vector` and read back by
:class:`~enttime.propagator.Propagator`.

All heavy lifting is delegated to numpy (LAPACK); this module adds the
validation and the error contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, StateError
from .tolerances import RECON_TOL

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
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending, ``eigenvectors`` holds the
    orthonormal eigenvectors as columns, so
    ``(eigenvectors * eigenvalues) @ eigenvectors.conj().T`` reconstructs the
    matrix. Instances come out of :func:`eig_hermitian`, which enforces the
    reconstruction residual; the fields are kept read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def eig_hermitian(m) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix with a reconstruction check.

    The input is symmetrized as (M + M^dag)/2 before the solve; callers are
    expected to pass matrices that are already Hermitian to working
    precision. Raises :class:`NumericalError` when LAPACK fails to converge
    or the reconstruction residual exceeds ``RECON_TOL`` relative to
    max(1, max|M|).
    """
    m = as_complex_matrix(m, name="matrix")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape!r}")
    sym = 0.5 * (m + m.conj().T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    residual = float(np.max(np.abs((v * w) @ v.conj().T - sym)))
    tol = RECON_TOL * max(1.0, float(np.max(np.abs(sym))))
    if residual > tol:
        raise NumericalError(
            f"eigendecomposition reconstruction residual {residual:.3e} exceeds {tol:.3e}"
        )
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def propagate(spectrum: HermitianSpectrum, psi0: np.ndarray, times) -> np.ndarray:
    """Amplitudes exp(-i M t) psi0 for each time, one row per time.

    Evaluated as psi0 + V diag(exp(-i w t) - 1) V^dag psi0 with the phase
    shift written through sines, so t = 0 returns psi0 exactly and the
    change of a nearly unmoved state keeps its relative accuracy. The rows
    for all times come out of one (T x dim) by (dim x dim) product.
    """
    theta = np.multiply.outer(np.asarray(times, dtype=np.float64), spectrum.eigenvalues)
    half = np.sin(0.5 * theta)
    shift = -2.0 * half * half - 1j * np.sin(theta)
    modes = (psi0.conj() @ spectrum.eigenvectors).conj()
    return psi0 + (shift * modes) @ spectrum.eigenvectors.T

